package optimizer

import (
	"math"
	"testing"

	"lecopt/internal/dist"
	"lecopt/internal/query"
	"lecopt/internal/workload"
)

// refSigmaBetween and refSigmaLawBetween are the σ-products as they were
// before they followed the join graph: one factor per member of mask, in
// FROM order, edge or no edge.
func refSigmaBetween(c *ctx, j int, mask uint64) float64 {
	s := 1.0
	for i := 0; i < c.n; i++ {
		if mask&(1<<uint(i)) != 0 {
			s *= c.sigma[i*c.n+j]
		}
	}
	return s
}

func refSigmaLawBetween(c *ctx, j int, mask uint64) (dist.Dist, error) {
	law := dist.Point(1)
	for i := 0; i < c.n; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		var pair dist.Dist
		if len(c.sigmaD) != 0 {
			pair = c.sigmaD[i*c.n+j]
		}
		if pair.IsZero() {
			pair = dist.Point(c.sigma[i*c.n+j])
		}
		var err error
		if law, err = dist.Combine2(law, pair, func(x, y float64) float64 { return x * y }); err != nil {
			return dist.Dist{}, err
		}
	}
	return law, nil
}

// TestSigmaProductsMatchFullLoop: following adjacency bits (and folding
// point factors as scalars until the first installed law) returns the bits
// of the loop over every member — on every (table, subset) of a clique, a
// star, a chain and a graph with a doubled edge, with and without
// selectivity laws.
func TestSigmaProductsMatchFullLoop(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		name    string
		shape   workload.Shape
		doubled bool
	}{
		{"clique", workload.Clique, false},
		{"star", workload.Star, false},
		{"chain", workload.Chain, false},
		{"doubled-edge", workload.Random, true},
	} {
		sc := wideScenario(t, n, tc.shape, 31)
		if tc.doubled {
			j0 := sc.Block.Joins[0]
			sc.Block.Joins = append(sc.Block.Joins, query.Join{
				Left:  query.ColRef{Table: j0.Left.Table, Column: "v"},
				Right: query.ColRef{Table: j0.Right.Table, Column: "v"},
			})
		}
		for _, withLaws := range []bool{false, true} {
			c, err := prepare(sc.Cat, sc.Block, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if withLaws {
				// Laws on the first and the last edge: the first is the
				// doubled one where there is one, and in FROM order some
				// subsets meet a law first, others a run of points first.
				laws := map[string]dist.Dist{}
				for _, e := range []query.Join{sc.Block.Joins[0], sc.Block.Joins[len(sc.Block.Joins)-1]} {
					li, ri := sc.Block.TableIndex(e.Left.Table), sc.Block.TableIndex(e.Right.Table)
					s := c.sigma[li*c.n+ri]
					// Weights 1:4:1 normalise to probabilities that sum to
					// 1 − 1 ulp, so a later Point(1) factor renormalises
					// them: skipping it would show here.
					laws[EdgeKey(e)] = dist.MustNew([]float64{s / 3, s, 3 * s}, []float64{1, 4, 1})
				}
				if err := c.setSelLaws(laws); err != nil {
					t.Fatal(err)
				}
			}
			var sl dist.Slab
			for j := 0; j < n; j++ {
				for mask := uint64(0); mask <= fullMask(n); mask++ {
					if mask&(1<<uint(j)) != 0 {
						continue
					}
					if got, want := c.sigmaBetween(j, mask), refSigmaBetween(c, j, mask); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s laws=%v: sigmaBetween(%d, %06b) = %v, full loop %v", tc.name, withLaws, j, mask, got, want)
					}
					got, err := c.sigmaLawBetween(&sl, j, mask)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refSigmaLawBetween(c, j, mask)
					if err != nil {
						t.Fatal(err)
					}
					if !got.ApproxEqual(want, 0) {
						t.Fatalf("%s laws=%v: sigmaLawBetween(%d, %06b) = %v, full loop %v", tc.name, withLaws, j, mask, got, want)
					}
				}
			}
		}
	}
}
