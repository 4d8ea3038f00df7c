package expcost

import (
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
)

// fuzzLaw draws a law of n points. Values come from a small grid when
// collide is set, so products and maps merge equal values — the case where
// the order of a sort's equal keys decides the bits of a probability — and
// weights cycle 1:4:1 so normalisation leaves an ulp to lose.
func fuzzLaw(rng *rand.Rand, n int, collide bool) dist.Dist {
	vals, weights := make([]float64, n), make([]float64, n)
	for i := range vals {
		if collide {
			vals[i] = float64(1 + rng.Intn(4))
		} else {
			vals[i] = math.Exp(rng.Float64()*20 - 8)
		}
		weights[i] = []float64{1, 4, 1}[i%3] * (0.5 + rng.Float64())
	}
	return dist.MustNew(vals, weights)
}

// checkLaw fails unless got is want value for value and probability for
// probability, bit for bit.
func checkLaw(t *testing.T, op string, got dist.Dist, err error, want dist.Dist) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	same := got.Len() == want.Len()
	for i := 0; same && i < got.Len(); i++ {
		gv, gp := got.At(i)
		wv, wp := want.At(i)
		same = math.Float64bits(gv) == math.Float64bits(wv) && math.Float64bits(gp) == math.Float64bits(wp)
	}
	if !same {
		t.Fatalf("%s: slab %v, heap %v", op, got, want)
	}
}

// FuzzLawKernel holds the optimizer's slab-built size laws to the heap
// functions they replace: dist.Slab's Rebucket, Combine3, Combine2 (the
// σ-chain's pairwise products), Map (the page clamp) and the whole
// ResultSizeDistIn must come out with the same Float64bits as
// Dist.Rebucket, dist.Combine3, dist.Combine2, Dist.Map and
// ResultSizeDist. One slab serves every round, Reset between the second
// and third, so a buffer that leaks one law's data into the next — or
// storage a Reset hands out again — shows up too. Each round also prices
// joins and sorts over the laws (checkPrices).
func FuzzLawKernel(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(3), uint8(8), false)
	f.Add(int64(2), uint8(12), uint8(1), uint8(6), uint8(27), true)
	f.Add(int64(3), uint8(40), uint8(17), uint8(2), uint8(1), true)
	f.Add(int64(4), uint8(1), uint8(1), uint8(1), uint8(64), false)
	f.Fuzz(func(t *testing.T, seed int64, na, nb, nc, target uint8, collide bool) {
		rng := rand.New(rand.NewSource(seed))
		size := func(n uint8) int { return 1 + int(n)%48 }
		b := 1 + int(target)%64
		mul2 := func(x, y float64) float64 { return x * y }
		mul3 := func(x, y, z float64) float64 { return x * y * z }
		clamp := func(v float64) float64 { return math.Min(math.Max(math.Round(v), 1), 1e6) }
		heapLaw := func(d dist.Dist, err error) dist.Dist {
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		var sl dist.Slab
		for round := 0; round < 3; round++ {
			if round == 2 {
				sl.Reset()
			}
			a, bb, c := fuzzLaw(rng, size(na), collide), fuzzLaw(rng, size(nb), collide), fuzzLaw(rng, size(nc), collide)

			want, _ := a.Rebucket(b)
			got, err := sl.Rebucket(a, b)
			checkLaw(t, "Rebucket", got, err, want)

			got, err = sl.Combine3(a, bb, c, mul3)
			checkLaw(t, "Combine3", got, err, heapLaw(dist.Combine3(a, bb, c, mul3)))

			chain := sl.Point(c.Value(0))
			checkLaw(t, "Point", chain, nil, dist.Point(c.Value(0)))
			heap := dist.Point(c.Value(0))
			for _, d := range []dist.Dist{a, bb, c} {
				chain, err = sl.Combine2(chain, d, mul2)
				heap = heapLaw(dist.Combine2(heap, d, mul2))
				checkLaw(t, "σ-chain Combine2", chain, err, heap)
			}

			got, err = sl.Map(chain, clamp)
			checkLaw(t, "Map", got, err, heapLaw(heap.Map(clamp)))

			want, err = ResultSizeDist(a, bb, c, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err = ResultSizeDistIn(&sl, a, bb, c, b)
			checkLaw(t, "ResultSizeDistIn", got, err, want)

			checkPrices(t, a, bb, c, round == 1)
		}
	})
}

// pageCap is cost's cap on the pages a price counts (2⁵²).
const pageCap = 1 << 52

// cappedMean is E[min(X, pageCap)], the least a join pays to read an input
// of law d.
func cappedMean(d dist.Dist) float64 {
	e := 0.0
	for i := 0; i < d.Len(); i++ {
		e += d.Prob(i) * math.Min(d.Value(i), pageCap)
	}
	return e
}

// checkPrices holds the prices the optimizer's bounded kernel relies on:
// over size laws clamped to one page or more — scaled past pageCap when
// huge is set — and memory law mem, every join of both models prices ≥ 0,
// never NaN, and at least (1 − 1e-12) of the capped floor
// E[min(A, 2⁵²)] + E[min(B, 2⁵²)], in expectation over the laws
// (JoinECModel) and at one size each (cost.JoinCard); a sort prices ≥ 0,
// never NaN. The slack covers rounding and weights that sum to 1 − 1 ulp.
// Every card entry is also the Float64bits of mem.ExpectF over the formula,
// at those sizes and with either size 0, NaN, ±Inf or past 2⁵².
func checkPrices(t *testing.T, a, b, mem dist.Dist, huge bool) {
	t.Helper()
	pages := func(v float64) float64 {
		if huge {
			v *= 1e13
		}
		return math.Max(v, 1)
	}
	a, errA := a.Map(pages)
	b, errB := b.Map(pages)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	check := func(name string, v, floor float64) {
		t.Helper()
		if !(v >= 0) || v < (1-1e-12)*floor {
			t.Fatalf("%s = %v, floor %v", name, v, floor)
		}
	}
	outer, inner := a.Value(a.Len()-1), b.Value(0)
	for _, model := range []cost.Model{cost.ModelPaper, cost.ModelEngine} {
		var card [cost.BlockNL + 1]float64
		cost.JoinCard(&card, model, cost.Methods, outer, inner, &mem)
		for _, m := range cost.Methods {
			name := model.String() + "/" + m.String()
			check("JoinECModel "+name, JoinECModel(model, m, a, b, mem), cappedMean(a)+cappedMean(b))
			check("JoinCard "+name, card[m], math.Min(outer, pageCap)+math.Min(inner, pageCap))
		}
		for _, odd := range []float64{outer, 0, math.NaN(), math.Inf(1), math.Inf(-1), outer * (1 << 53)} {
			for _, sizes := range [][2]float64{{odd, inner}, {outer, odd}} {
				cost.JoinCard(&card, model, cost.Methods, sizes[0], sizes[1], &mem)
				for _, m := range cost.Methods {
					want := mem.ExpectF(func(v float64) float64 { return cost.JoinIOModel(model, m, sizes[0], sizes[1], v) })
					if math.Float64bits(card[m]) != math.Float64bits(want) {
						t.Fatalf("JoinCard(%v, %v, %v)[%v] = %v, ExpectF = %v", model, sizes[0], sizes[1], m, card[m], want)
					}
				}
			}
		}
	}
	check("SortEC", SortEC(a, mem), 0)
}
