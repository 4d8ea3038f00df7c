// Package serving is the engine-in-the-loop validation subsystem: it
// generates *serving mixes* — engine-scale workloads pairing a catalog of
// distinct queries (with physically materialized relations) with a Zipf
// popularity law, per-tenant memory regimes and a Markov drift of the
// optimizer's statistics — and Monte-Carlo-runs them, optimizing every
// request with both the classical LSC policy and an LEC algorithm, then
// *executing* both plans on the mini engine under shared sampled memory
// trajectories. The Report compares realized (measured) physical I/O, not
// analytic expected cost: the empirical check that the least-expected-cost
// plan actually costs least over a distribution of environments.
package serving

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/engine"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/query"
	"lecopt/internal/storage"
	"lecopt/internal/workload"
)

// errBadMix reports an invalid mix specification.
var errBadMix = errors.New("serving: invalid mix spec")

// Tenant is one memory regime of a multi-tenant serving host: a name plus
// the environment (initial law and optional Markov chain) its queries run
// under.
type Tenant struct {
	Name string
	Env  envsim.Env
}

// DriftSpec models correlated statistics drift: while a mix is served, the
// true distinct-count of every join key walks away from what the catalog
// recorded at "ANALYZE time". The walk is a sticky Markov chain over
// multiplicative Factors (which must include the neutral 1), advanced once
// per request and shared by all tables — drift is correlated, not
// per-table noise. Both policies optimize against the same drifted
// statistics; execution always runs on the true physical data.
type DriftSpec struct {
	Factors []float64
	Stay    float64
}

// Gen is the serving mix's engine-scale generator: the physical
// vocabulary of its tables and the shape of its queries.
// All sizes are engine-scale: relations are physically materialized and
// every request's plans are actually executed, so page counts here are
// 10²-10³, not the 10⁵ of the analytic workload.Spec.
type Gen struct {
	MinTables, MaxTables int // tables per query (≥ 2: every plan joins)
	MinPages, MaxPages   int // physical pages per base table
	TuplesPerPage        int
	KeyRange             int64 // join keys drawn from [0, KeyRange)
	OrderByProb          float64
	Shapes               []workload.Shape

	// FilterProb is the probability that a query carries a range filter
	// "t.k <= v" on one of its tables, with v drawn so the selectivity is
	// uniform in [MinFilterSel, MaxFilterSel] — the choice point between
	// an index walk and a heap scan, the paper's Sections 2/5 hedging
	// scenario. Zero disables filters.
	FilterProb                 float64
	MinFilterSel, MaxFilterSel float64

	// DisableIndexes makes the workload heap-only: the mix builds no
	// indexes, so the catalog offers none and the optimizer has no index
	// access path to consider — the pre-access-path behavior (`lecbench
	// -workload -noindex`). The default (false) builds an index on every
	// table's join key (clustered on sorted tables, unclustered otherwise;
	// see IndexFanout) and lets both policies plan real index scans the
	// engine executes.
	DisableIndexes bool
	// ClusteredProb is the probability a table is stored in key order and
	// gets a clustered index (otherwise unclustered). Ignored when
	// DisableIndexes is set.
	ClusteredProb float64
	// IndexFanout is the entry capacity of every index page (default 16).
	IndexFanout int
}

// MixSpec controls serving-mix generation.
type MixSpec struct {
	Queries int     // distinct queries in the mix
	ZipfS   float64 // popularity skew: query i is requested ∝ 1/(i+1)^ZipfS

	Gen

	Tenants []Tenant
	Drift   DriftSpec
}

// DefaultMixSpec returns the canonical Zipf+Markov serving mix: 12 distinct
// queries with skew 1.1, four tenants from defaultTenants, and a ±2x sticky
// statistics drift.
func DefaultMixSpec() (MixSpec, error) {
	tenants, err := defaultTenants()
	if err != nil {
		return MixSpec{}, err
	}
	return MixSpec{
		Queries: 12,
		ZipfS:   1.1,
		Gen: Gen{
			MinTables:     2,
			MaxTables:     4,
			MinPages:      8,
			MaxPages:      64,
			TuplesPerPage: 6,
			KeyRange:      600,
			OrderByProb:   0.4,
			FilterProb:    0.5,
			MinFilterSel:  0.05,
			MaxFilterSel:  0.6,
			ClusteredProb: 0.5,
			IndexFanout:   16,
			Shapes:        []workload.Shape{workload.Chain, workload.Star, workload.Random},
		},
		Tenants: tenants,
		Drift:   DriftSpec{Factors: []float64{0.5, 1, 2}, Stay: 0.85},
	}, nil
}

// defaultTenants returns the canonical multi-tenant memory regimes, from a
// zero-variance batch tier (where LEC ≡ LSC) through static bimodal
// pressure to sticky and volatile Markov memory. Levels are engine-scale
// pages, chosen to straddle the sort-merge/grace-hash thresholds of tables
// in the DefaultMixSpec size range.
func defaultTenants() ([]Tenant, error) {
	levels := []float64{5, 9, 17, 40}
	bimodal, err := dist.Bimodal(7, 40, 0.35)
	if err != nil {
		return nil, err
	}
	uniform, err := dist.Uniform(levels...)
	if err != nil {
		return nil, err
	}
	sticky, err := dist.Sticky(levels, 0.7)
	if err != nil {
		return nil, err
	}
	volatile, err := dist.RandomWalk(levels, 0.3, 0.45)
	if err != nil {
		return nil, err
	}
	return []Tenant{
		{Name: "batch", Env: envsim.Env{Mem: dist.Point(40)}},
		{Name: "interactive", Env: envsim.Env{Mem: bimodal}},
		{Name: "shared-sticky", Env: envsim.Env{Mem: uniform, Chain: sticky}},
		{Name: "shared-volatile", Env: envsim.Env{Mem: uniform, Chain: volatile}},
	}, nil
}

// ServingQuery is one distinct query of a mix: the statistics catalog the
// optimizer sees, the query block, and the materialized physical data the
// engine executes against. Catalog statistics match the physical generator
// exactly (pages, rows, key range), so at drift factor 1 the optimizer's
// estimates are unbiased.
type ServingQuery struct {
	ID     int
	Cat    *catalog.Catalog
	Block  *query.Block
	Store  *storage.Store
	Eng    *engine.Engine
	Phases int
}

// Mix is a generated serving workload, ready for Run.
type Mix struct {
	Spec       MixSpec
	Queries    []*ServingQuery
	Tenants    []Tenant
	Popularity dist.Dist // law over query IDs (as float64 values)

	driftChain *dist.Chain // nil: no statistics drift
}

// NewMix generates a serving mix from the spec using rng for all
// randomness (same seed ⇒ same mix, including the physical tuples).
func NewMix(spec MixSpec, rng *rand.Rand) (*Mix, error) {
	if spec.Queries < 1 {
		return nil, fmt.Errorf("%w: %d queries", errBadMix, spec.Queries)
	}
	if math.IsNaN(spec.ZipfS) || spec.ZipfS < 0 {
		return nil, fmt.Errorf("%w: Zipf skew %v", errBadMix, spec.ZipfS)
	}
	if err := spec.Gen.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadMix, err)
	}
	if len(spec.Tenants) == 0 {
		return nil, fmt.Errorf("%w: no tenants", errBadMix)
	}
	for _, tn := range spec.Tenants {
		if err := tn.Env.Validate(); err != nil {
			return nil, fmt.Errorf("%w: tenant %q: %v", errBadMix, tn.Name, err)
		}
	}
	chain, err := spec.Drift.chain()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadMix, err)
	}
	m := &Mix{Spec: spec, Tenants: spec.Tenants, driftChain: chain}
	ids := make([]float64, spec.Queries)
	for i := range ids {
		ids[i] = float64(i)
	}
	pop, err := dist.Zipf(ids, spec.ZipfS)
	if err != nil {
		return nil, err
	}
	m.Popularity = pop
	for i := 0; i < spec.Queries; i++ {
		q, err := generateServingQuery(i, spec.Gen, rng)
		if err != nil {
			return nil, err
		}
		m.Queries = append(m.Queries, q)
	}
	return m, nil
}

// generateServingQuery builds one query: a join block over freshly
// materialized relations plus a catalog whose statistics agree with the
// generator (matched statistics keep the engine-vs-model comparison about
// plan choice rather than estimation error). It draws the table count and
// the shape before it materializes the tables.
func generateServingQuery(id int, g Gen, rng *rand.Rand) (*ServingQuery, error) {
	tables := g.MinTables + rng.Intn(g.MaxTables-g.MinTables+1)
	shape := g.Shapes[rng.Intn(len(g.Shapes))]
	cat := catalog.New()
	store := storage.NewStore()
	names := make([]string, tables)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		if err := g.table(names[i], cat, store, rng); err != nil {
			return nil, err
		}
	}
	blk, err := g.block(names, shape, cat, rng)
	if err != nil {
		return nil, err
	}
	return &ServingQuery{
		ID:     id,
		Cat:    cat,
		Block:  blk,
		Store:  store,
		Eng:    engine.New(store),
		Phases: tables - 1,
	}, nil
}

// validate checks the generation fields. Its errors carry no sentinel:
// NewMix wraps them in its own.
func (g Gen) validate() error {
	if g.MinTables < 2 || g.MaxTables < g.MinTables || g.MaxTables > query.MaxTables {
		return fmt.Errorf("tables range [%d, %d]", g.MinTables, g.MaxTables)
	}
	if g.MinPages < 1 || g.MaxPages < g.MinPages || g.TuplesPerPage < 1 || g.KeyRange < 1 {
		return errors.New("physical sizing")
	}
	if len(g.Shapes) == 0 {
		return errors.New("no shapes")
	}
	if g.FilterProb < 0 || g.FilterProb > 1 || math.IsNaN(g.FilterProb) {
		return fmt.Errorf("filter prob %v", g.FilterProb)
	}
	if g.FilterProb > 0 {
		if !(g.MinFilterSel > 0) || g.MaxFilterSel < g.MinFilterSel || g.MaxFilterSel > 1 {
			return fmt.Errorf("filter selectivity range [%v, %v]", g.MinFilterSel, g.MaxFilterSel)
		}
	}
	if g.ClusteredProb < 0 || g.ClusteredProb > 1 || math.IsNaN(g.ClusteredProb) {
		return fmt.Errorf("clustered prob %v", g.ClusteredProb)
	}
	if g.IndexFanout < 0 || g.IndexFanout == 1 {
		return fmt.Errorf("index fanout %d", g.IndexFanout)
	}
	return nil
}

// table materializes one relation into store and records it in cat with
// statistics that match the physical data exactly (pages, rows, key
// range), so at drift factor 1 the optimizer's estimates are unbiased.
// Unless DisableIndexes is set, the relation also gets a physical B-tree
// index on its join key — clustered over key-ordered storage with
// probability ClusteredProb, unclustered otherwise — whose built height is
// what the catalog records, so cost.IndexScanIO prices the very structure
// the engine walks.
func (g Gen) table(name string, cat *catalog.Catalog, store *storage.Store, rng *rand.Rand) error {
	pages := g.MinPages + rng.Intn(g.MaxPages-g.MinPages+1)
	spec := storage.GenSpec{Name: name, Pages: pages, TuplesPerPage: g.TuplesPerPage, KeyRange: g.KeyRange}
	clustered := !g.DisableIndexes && rng.Float64() < g.ClusteredProb
	var rel *storage.Relation
	var err error
	if clustered {
		rel, err = storage.GenerateSorted(spec, rng)
	} else {
		rel, err = storage.Generate(spec, rng)
	}
	if err != nil {
		return err
	}
	if err := store.Add(rel); err != nil {
		return err
	}
	tab, err := catalog.NewTable(name, float64(pages), float64(pages*g.TuplesPerPage),
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: float64(g.KeyRange), Min: 0, Max: float64(g.KeyRange)})
	if err != nil {
		return err
	}
	if err := cat.AddTable(tab); err != nil {
		return err
	}
	if g.DisableIndexes {
		return nil
	}
	fanout := g.IndexFanout
	if fanout == 0 {
		fanout = 16
	}
	ixName := "ix_" + name + "_k"
	ix, err := storage.BuildIndex(store, ixName, name, "k", clustered, fanout)
	if err != nil {
		return err
	}
	return cat.AddIndex(catalog.Index{
		Name: ixName, Table: name, Column: "k",
		Clustered: clustered, Height: float64(ix.Height()),
	})
}

// block draws a query over the named tables of cat: the shape's joins, an
// ORDER BY on a join key with probability OrderByProb, and with
// probability FilterProb one range filter "t.k <= v" — the
// index-vs-heap-scan choice point of the paper's headline examples.
func (g Gen) block(names []string, shape workload.Shape, cat *catalog.Catalog, rng *rand.Rand) (*query.Block, error) {
	joins, err := shape.Joins(names, rng)
	if err != nil {
		return nil, err
	}
	blk := &query.Block{Tables: names, Joins: joins}
	if rng.Float64() < g.OrderByProb {
		blk.OrderBy = &query.ColRef{Table: names[rng.Intn(len(names))], Column: "k"}
	}
	if rng.Float64() < g.FilterProb {
		sel := g.MinFilterSel + rng.Float64()*(g.MaxFilterSel-g.MinFilterSel)
		blk.Filters = append(blk.Filters, query.Filter{
			Col:   query.ColRef{Table: names[rng.Intn(len(names))], Column: "k"},
			Op:    catalog.OpLe,
			Value: math.Round(sel * float64(g.KeyRange)),
		})
	}
	if err := blk.Validate(cat); err != nil {
		return nil, err
	}
	return blk, nil
}

// chain builds the drift walk, or nil when Factors is empty (no drift).
// Its errors carry no sentinel: NewMix wraps them in its own.
func (d DriftSpec) chain() (*dist.Chain, error) {
	if len(d.Factors) == 0 {
		return nil, nil
	}
	hasNeutral := false
	for _, f := range d.Factors {
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("drift factor %v", f)
		}
		if f == 1 {
			hasNeutral = true
		}
	}
	if !hasNeutral {
		return nil, errors.New("drift factors must include the neutral 1")
	}
	chain, err := dist.Sticky(d.Factors, d.Stay)
	if err != nil {
		return nil, fmt.Errorf("drift chain: %v", err)
	}
	return chain, nil
}

// servingCostModel is the cost model every serving-path optimization and
// conditional charge runs under. Serving predictions are judged against
// the engine's measured I/O, so they use cost.ModelEngine — the charge
// that replays the engine's actual grace-hash recursion — while the paper
// experiments stay on cost.ModelPaper (the zero value) to keep the E1-E20
// goldens pinned to the published three-case formulas.
const servingCostModel = cost.ModelEngine

// planOpts returns the optimizer plan-space options every serving request
// runs under: the serving cost model, and nothing that narrows the plan
// space. Which access paths exist is the catalog's to say — a heap-only mix
// registers no index, so it gets no index plans.
func planOpts() *optimizer.Options {
	return &optimizer.Options{CostModel: servingCostModel}
}
