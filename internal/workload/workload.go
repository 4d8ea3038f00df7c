// Package workload generates reproducible optimization workloads: random
// catalogs, join queries over chain/star/clique graphs, a fixed
// warehouse-style star schema, and a canonical suite of memory
// environments. It supplies the inputs for the experiment harness
// (internal/experiments) and the examples.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/query"
)

// Errors.
var (
	ErrBadSpec = errors.New("workload: invalid spec")
)

// Shape selects the join-graph topology.
type Shape uint8

// Shapes.
const (
	Chain  Shape = iota // t0 — t1 — t2 — ...
	Star                // t0 joined to every other table
	Clique              // every pair joined
	Random              // random spanning tree plus extra edges
)

func (s Shape) String() string {
	switch s {
	case Chain:
		return "chain"
	case Star:
		return "star"
	case Clique:
		return "clique"
	case Random:
		return "random"
	default:
		return "unknown"
	}
}

// Joins returns the shape's join graph over the named tables, every edge
// an equi-join on column k. Only Random draws from rng: one parent per
// table after the first, a random spanning tree.
func (s Shape) Joins(names []string, rng *rand.Rand) ([]query.Join, error) {
	var joins []query.Join
	switch s {
	case Chain:
		for i := 1; i < len(names); i++ {
			joins = append(joins, keyJoin(names[i-1], names[i]))
		}
	case Star:
		for i := 1; i < len(names); i++ {
			joins = append(joins, keyJoin(names[0], names[i]))
		}
	case Clique:
		for i := range names {
			for j := i + 1; j < len(names); j++ {
				joins = append(joins, keyJoin(names[i], names[j]))
			}
		}
	case Random:
		for i := 1; i < len(names); i++ {
			joins = append(joins, keyJoin(names[rng.Intn(i)], names[i]))
		}
	default:
		return nil, fmt.Errorf("%w: shape %d", ErrBadSpec, s)
	}
	return joins, nil
}

func keyJoin(a, b string) query.Join {
	return query.Join{
		Left:  query.ColRef{Table: a, Column: "k"},
		Right: query.ColRef{Table: b, Column: "k"},
	}
}

// Spec controls random scenario generation.
type Spec struct {
	Tables        int
	Shape         Shape
	MinPages      float64 // per-table page range
	MaxPages      float64
	TuplesPerPage float64
	FilterProb    float64 // chance each table gets a range filter
	OrderByProb   float64 // chance the query has an ORDER BY on a join key
	IndexProb     float64 // chance each table gets an index on its key
}

// DefaultSpec returns a reasonable medium-size spec.
func DefaultSpec(tables int, shape Shape) Spec {
	return Spec{
		Tables:        tables,
		Shape:         shape,
		MinPages:      100,
		MaxPages:      200_000,
		TuplesPerPage: 50,
		FilterProb:    0.4,
		OrderByProb:   0.5,
		IndexProb:     0.3,
	}
}

// Scenario is a generated catalog plus query.
type Scenario struct {
	Cat   *catalog.Catalog
	Block *query.Block
}

// Generate builds a scenario from the spec using rng for all randomness
// (same seed ⇒ same scenario).
func Generate(spec Spec, rng *rand.Rand) (Scenario, error) {
	if spec.Tables < 1 || spec.Tables > query.MaxTables {
		return Scenario{}, fmt.Errorf("%w: %d tables", ErrBadSpec, spec.Tables)
	}
	if spec.MinPages <= 0 || spec.MaxPages < spec.MinPages || spec.TuplesPerPage <= 0 {
		return Scenario{}, fmt.Errorf("%w: page configuration", ErrBadSpec)
	}
	cat := catalog.New()
	names := make([]string, spec.Tables)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		pages := math.Trunc(spec.MinPages + rng.Float64()*(spec.MaxPages-spec.MinPages))
		rows := pages * spec.TuplesPerPage
		distinct := math.Trunc(1 + rng.Float64()*rows)
		tab := catalog.MustTable(names[i], pages, rows,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: distinct, Min: 0, Max: 1e12},
			catalog.Column{Name: "v", Type: catalog.TypeInt, Distinct: 1000, Min: 0, Max: 999},
		)
		if err := cat.AddTable(tab); err != nil {
			return Scenario{}, err
		}
		if rng.Float64() < spec.IndexProb {
			err := cat.AddIndex(catalog.Index{
				Name:      "ix_" + names[i],
				Table:     names[i],
				Column:    "k",
				Clustered: rng.Float64() < 0.5,
				Height:    2,
			})
			if err != nil {
				return Scenario{}, err
			}
		}
	}
	joins, err := spec.Shape.Joins(names, rng)
	if err != nil {
		return Scenario{}, err
	}
	if spec.Shape == Random && spec.Tables >= 3 && rng.Float64() < 0.4 {
		joins = append(joins, keyJoin(names[0], names[spec.Tables-1]))
	}
	blk := &query.Block{Tables: names, Joins: joins}
	for i := 0; i < spec.Tables; i++ {
		if rng.Float64() < spec.FilterProb {
			blk.Filters = append(blk.Filters, query.Filter{
				Col:   query.ColRef{Table: names[i], Column: "v"},
				Op:    catalog.OpLt,
				Value: float64(50 + rng.Intn(900)),
			})
		}
	}
	if rng.Float64() < spec.OrderByProb {
		blk.OrderBy = &query.ColRef{Table: names[rng.Intn(spec.Tables)], Column: "k"}
	}
	if err := blk.Validate(cat); err != nil {
		return Scenario{}, err
	}
	return Scenario{Cat: cat, Block: blk}, nil
}

// NamedEnv pairs an environment with a human-readable label.
type NamedEnv struct {
	Name string
	Env  envsim.Env
}

// StandardEnvs returns the canonical environment suite used across the
// experiments: from the degenerate point law (where LEC ≡ LSC) through the
// paper's bimodal example to wide and dynamic (Markov) environments.
func StandardEnvs() ([]NamedEnv, error) {
	var out []NamedEnv
	add := func(name string, mem dist.Dist, chain *dist.Chain) {
		out = append(out, NamedEnv{Name: name, Env: envsim.Env{Mem: mem, Chain: chain}})
	}
	add("point-1000", dist.Point(1000), nil)
	bimodal, err := dist.Bimodal(700, 2000, 0.2)
	if err != nil {
		return nil, err
	}
	add("paper-bimodal", bimodal, nil)
	spread, err := dist.SpreadAround(1000, 900, 0.4)
	if err != nil {
		return nil, err
	}
	add("wide-spread", spread, nil)
	levels := []float64{64, 256, 1024, 4096}
	heavy, err := dist.Zipf(levels, 1.2)
	if err != nil {
		return nil, err
	}
	add("zipf-levels", heavy, nil)
	sticky, err := dist.Sticky(levels, 0.8)
	if err != nil {
		return nil, err
	}
	stickyInit, err := dist.Uniform(levels...)
	if err != nil {
		return nil, err
	}
	add("markov-sticky", stickyInit, sticky)
	volatile, err := dist.RandomWalk(levels, 0.4, 0.4)
	if err != nil {
		return nil, err
	}
	add("markov-volatile", stickyInit, volatile)
	return out, nil
}

// Warehouse builds a fixed star-schema catalog (a fact table with four
// dimensions, in the spirit of the decision-support workloads the paper's
// introduction motivates) and a batch of analytical join queries.
func Warehouse() (*catalog.Catalog, []*query.Block, error) {
	cat := catalog.New()
	type tdef struct {
		name          string
		pages, rows   float64
		keyDistinct   float64
		extraCol      string
		extraDistinct float64
	}
	tables := []tdef{
		{"sales", 500_000, 50_000_000, 50_000_000, "amount", 10_000},
		{"customer", 20_000, 2_000_000, 2_000_000, "region", 25},
		{"product", 5_000, 500_000, 500_000, "category", 100},
		{"store", 500, 50_000, 50_000, "state", 50},
		{"dates", 100, 10_000, 10_000, "year", 30},
	}
	for _, td := range tables {
		cols := []catalog.Column{
			{Name: "k", Type: catalog.TypeInt, Distinct: td.keyDistinct, Min: 0, Max: 1e12},
			{Name: td.extraCol, Type: catalog.TypeInt, Distinct: td.extraDistinct, Min: 0, Max: td.extraDistinct - 1},
		}
		// The fact table carries a foreign key per dimension.
		if td.name == "sales" {
			for _, fk := range []string{"customer_k", "product_k", "store_k", "date_k"} {
				cols = append(cols, catalog.Column{Name: fk, Type: catalog.TypeInt, Distinct: 1_000_000, Min: 0, Max: 1e12})
			}
		}
		if err := cat.AddTable(catalog.MustTable(td.name, td.pages, td.rows, cols...)); err != nil {
			return nil, nil, err
		}
	}
	if err := cat.AddIndex(catalog.Index{Name: "ix_customer", Table: "customer", Column: "k", Clustered: true, Height: 3}); err != nil {
		return nil, nil, err
	}
	if err := cat.AddIndex(catalog.Index{Name: "ix_product", Table: "product", Column: "k", Clustered: true, Height: 2}); err != nil {
		return nil, nil, err
	}

	fk := func(dim, fkCol string) query.Join {
		return query.Join{
			Left:  query.ColRef{Table: "sales", Column: fkCol},
			Right: query.ColRef{Table: dim, Column: "k"},
		}
	}
	queries := []*query.Block{
		{ // Q1: sales by customer region, ordered by customer key.
			Tables:  []string{"sales", "customer"},
			Joins:   []query.Join{fk("customer", "customer_k")},
			Filters: []query.Filter{{Col: query.ColRef{Table: "customer", Column: "region"}, Op: catalog.OpLt, Value: 5}},
			OrderBy: &query.ColRef{Table: "customer", Column: "k"},
		},
		{ // Q2: three-way: sales x product x store.
			Tables: []string{"sales", "product", "store"},
			Joins:  []query.Join{fk("product", "product_k"), fk("store", "store_k")},
			Filters: []query.Filter{
				{Col: query.ColRef{Table: "product", Column: "category"}, Op: catalog.OpLt, Value: 10},
			},
		},
		{ // Q3: four-way with a date slice, ordered output.
			Tables: []string{"sales", "customer", "product", "dates"},
			Joins: []query.Join{
				fk("customer", "customer_k"), fk("product", "product_k"), fk("dates", "date_k"),
			},
			Filters: []query.Filter{
				{Col: query.ColRef{Table: "dates", Column: "year"}, Op: catalog.OpGe, Value: 25},
				{Col: query.ColRef{Table: "customer", Column: "region"}, Op: catalog.OpLt, Value: 3},
			},
			OrderBy: &query.ColRef{Table: "sales", Column: "customer_k"},
		},
		{ // Q4: full star.
			Tables: []string{"sales", "customer", "product", "store", "dates"},
			Joins: []query.Join{
				fk("customer", "customer_k"), fk("product", "product_k"),
				fk("store", "store_k"), fk("dates", "date_k"),
			},
			Filters: []query.Filter{
				{Col: query.ColRef{Table: "store", Column: "state"}, Op: catalog.OpLt, Value: 5},
			},
		},
	}
	for _, q := range queries {
		if err := q.Validate(cat); err != nil {
			return nil, nil, err
		}
	}
	return cat, queries, nil
}
