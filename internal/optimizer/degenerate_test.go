package optimizer

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/query"
)

// TestDegenerateChainExactness: with a Point memory law and the identity
// (one-state) chain, the whole uncertainty apparatus must vanish. The
// dynamic-memory program reduces to Algorithm C (every phase law is the
// same point), which in turn reduces to a standard System R optimization
// at that memory value: all three pick the same plan, score it with the
// same number, and attribute it to phases identically. This is the
// degenerate anchor of the phase-ledger contract — if the collapse is not
// exact, per-phase attribution error exists even with zero uncertainty
// and the ledger could not distinguish model error from law error.
func TestDegenerateChainExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		sc := randScenario(rng, 2+rng.Intn(3))
		mem := math.Trunc(4 + rng.Float64()*200)
		law := dist.Point(mem)
		chain, err := dist.Sticky([]float64{mem}, 1)
		if err != nil {
			t.Fatal(err)
		}

		lsc, err := LSC(sc.cat, sc.blk, Options{}, mem)
		if err != nil {
			t.Fatalf("trial %d: lsc: %v", trial, err)
		}
		c, err := AlgorithmC(sc.cat, sc.blk, Options{}, law)
		if err != nil {
			t.Fatalf("trial %d: C: %v", trial, err)
		}
		cd, err := AlgorithmCDynamic(sc.cat, sc.blk, Options{}, law, chain)
		if err != nil {
			t.Fatalf("trial %d: C-dynamic: %v", trial, err)
		}

		if got, want := c.Plan.String(), lsc.Plan.String(); got != want {
			t.Fatalf("trial %d (mem %v): C plan %s != LSC plan %s", trial, mem, got, want)
		}
		if got, want := cd.Plan.String(), c.Plan.String(); got != want {
			t.Fatalf("trial %d (mem %v): C-dynamic plan %s != C plan %s", trial, mem, got, want)
		}
		if !relClose(c.EC, lsc.EC) || !relClose(cd.EC, c.EC) {
			t.Fatalf("trial %d (mem %v): scores diverge: lsc=%v c=%v cd=%v",
				trial, mem, lsc.EC, c.EC, cd.EC)
		}

		// Per-phase charges: complete (one entry per phase, summing to the
		// score) and identical between the static and dynamic programs —
		// with one chain state there is nothing for the dynamic program to
		// hedge across phases.
		phases := c.Plan.Phases()
		if len(c.PhaseEC) != phases || len(cd.PhaseEC) != phases || len(lsc.PhaseEC) != phases {
			t.Fatalf("trial %d: phase counts %d/%d/%d, want %d",
				trial, len(lsc.PhaseEC), len(c.PhaseEC), len(cd.PhaseEC), phases)
		}
		var sum float64
		for i := 0; i < phases; i++ {
			if c.PhaseEC[i] != cd.PhaseEC[i] || c.PhaseEC[i] != lsc.PhaseEC[i] {
				t.Fatalf("trial %d phase %d: charges diverge: lsc=%v c=%v cd=%v",
					trial, i, lsc.PhaseEC[i], c.PhaseEC[i], cd.PhaseEC[i])
			}
			sum += c.PhaseEC[i]
		}
		if !relClose(sum, c.EC) {
			t.Fatalf("trial %d: phase charges sum %v != score %v", trial, sum, c.EC)
		}
	}
}

// TestNonFinitePagesRefused: NewTable refuses non-finite and non-positive
// statistics, but a caller can still write one into a table afterwards. A
// NaN, +Inf, zero or negative Pages must then get ErrNoPlan from every
// algorithm, not a plan with a NaN, infinite or empty-input EC — Algorithm
// B's top-c path and Algorithm D included.
func TestNonFinitePagesRefused(t *testing.T) {
	mem, err := dist.Bimodal(700, 2000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, pages := range []float64{math.NaN(), math.Inf(1), 0, -5} {
		cat := catalog.New()
		for _, name := range []string{"A", "B"} {
			tab, err := catalog.NewTable(name, 1000, 50_000,
				catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 5000, Min: 0, Max: 1e4})
			if err != nil {
				t.Fatal(err)
			}
			if err := cat.AddTable(tab); err != nil {
				t.Fatal(err)
			}
		}
		tab, err := cat.Table("A")
		if err != nil {
			t.Fatal(err)
		}
		tab.Pages = pages
		k := query.ColRef{Table: "A", Column: "k"}
		blk := &query.Block{
			Tables:  []string{"A", "B"},
			Joins:   []query.Join{{Left: k, Right: query.ColRef{Table: "B", Column: "k"}}},
			Filters: []query.Filter{{Col: k, Op: catalog.OpLt, Value: 50}},
			OrderBy: &k,
		}
		for _, alg := range []struct {
			name string
			run  func() (Result, error)
		}{
			{"LSC", func() (Result, error) { return LSC(cat, blk, Options{}, mem.Mean()) }},
			{"A", func() (Result, error) { return AlgorithmA(cat, blk, Options{}, mem) }},
			{"B", func() (Result, error) { return AlgorithmB(cat, blk, Options{}, mem, 3) }},
			{"C", func() (Result, error) { return AlgorithmC(cat, blk, Options{}, mem) }},
			{"D", func() (Result, error) { return AlgorithmD(cat, blk, Options{}, mem, nil, nil) }},
		} {
			if res, err := alg.run(); !errors.Is(err, ErrNoPlan) {
				t.Errorf("Pages %v, %s: EC %v, err %v; want ErrNoPlan", pages, alg.name, res.EC, err)
			}
		}
	}
}
