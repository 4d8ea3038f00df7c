package optimizer

import (
	"errors"
	"math"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
)

// fastPathHits counts, over one finished kernel table, the cases the
// kernel's price-once shortcuts serve.
type fastPathHits struct {
	leafBoth int // a leaf with both order slots held: one input, one price
	topFull  int // a top-c cell that filled to c (the bar turns candidates away)
}

func (h *fastPathHits) add(c *ctx, sc *dpScratch) {
	for j := 0; j < c.n; j++ {
		if bit := uint64(1) << uint(j); sc.held[cell(bit, 0)] > 0 && sc.held[cell(bit, 1)] > 0 {
			h.leafBoth++
		}
	}
	full := fullMask(c.n)
	if sc.pol == keepTopC {
		for mask := uint64(1); mask <= full; mask++ {
			for slot := 0; slot < 2; slot++ {
				if sc.held[cell(mask, slot)] == sc.depth {
					h.topFull++
				}
			}
		}
	}
}

// TestPinnedCorpusExercisesFastPaths guards the bit pin's reach: the
// kernel shares a join price between a leaf's two slots (every left input
// is one subset at one size), and a full top-c cell turns candidates away
// before their nodes are built. The pinned corpus must
// take each of these paths under every algorithm that can — otherwise
// algorithm_bits.golden would not notice a shortcut that changed a bit.
func TestPinnedCorpusExercisesFastPaths(t *testing.T) {
	envs, sticky := pinSticky(t)
	hits := map[string]*fastPathHits{}
	for _, alg := range pinAlgs {
		hits[alg] = &fastPathHits{}
	}
	for i, sc := range pinScenarios(t) {
		mem, selLaws, sizeLaws, hint := pinInputs(t, i, sc, envs)
		for _, model := range []cost.Model{cost.ModelPaper, cost.ModelEngine} {
			for _, hints := range []map[string]float64{nil, hint} {
				c, err := prepare(sc.Cat, sc.Block, Options{CostModel: model, SizeHints: hints})
				if err != nil {
					t.Fatal(err)
				}
				pass := func(alg string, s scorer, pol policy, depth int) {
					t.Helper()
					scr := getScratch(pol, depth, c.n)
					defer scr.release()
					if alg == "D" {
						var err error
						if s, err = c.lawScorer(scr, mem); err != nil {
							t.Fatalf("scenario %d %s: %v", i, alg, err)
						}
					}
					c.run(scr, s, math.Inf(1))
					hits[alg].add(c, scr)
				}
				pass("LSC", c.pointScorer(mem.Mean()), keepBest, 1)
				for _, p := range c.bucketPoints(mem) {
					pass("A", c.pointScorer(p), keepBest, 1)
					pass("B", c.pointScorer(p), keepTopC, 3)
				}
				pass("C", scorer{laws: []dist.Dist{mem}, model: model}, keepBest, 1)
				laws, err := sticky.Env.Chain.PhaseLaws(sticky.Env.Mem, lastPhase(c.n)+1)
				if err != nil {
					t.Fatal(err)
				}
				pass("C-dynamic", scorer{laws: laws, model: model}, keepBest, 1)
				if err := errors.Join(c.setSelLaws(selLaws), c.setSizeLaws(sizeLaws)); err != nil {
					t.Fatal(err)
				}
				pass("D", scorer{}, keepBest, 1)
			}
		}
	}
	for _, alg := range pinAlgs {
		h := hits[alg]
		t.Logf("%-9s leaf both slots %5d, top-c full %5d", alg, h.leafBoth, h.topFull)
		if h.leafBoth == 0 || (alg == "B" && h.topFull == 0) {
			t.Errorf("%s: the pinned corpus misses a fast path: %+v", alg, *h)
		}
	}
}
