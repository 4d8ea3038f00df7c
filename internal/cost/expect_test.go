package cost

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lecopt/internal/dist"
)

// refAboveCbrt and refPassMultiplier are the two lines the multiply-first
// test replaced; every bit-equality check below is against them.
func refAboveCbrt(mem, r float64) bool { return mem > math.Cbrt(r) }

func refPassMultiplier(r, mem float64) float64 {
	switch {
	case mem > math.Sqrt(r):
		return 2
	case refAboveCbrt(mem, r):
		return 4
	}
	return 6
}

// ulps returns v moved n representable values up (n < 0: down).
func ulps(v float64, n int) float64 {
	dir := math.Inf(1)
	if n < 0 {
		dir, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		v = math.Nextafter(v, dir)
	}
	return v
}

func checkAboveCbrt(t testing.TB, mem, r float64) {
	t.Helper()
	if got, want := AboveCbrt(mem, r), refAboveCbrt(mem, r); got != want {
		t.Fatalf("AboveCbrt(%v [%016x], %v [%016x]) = %v, mem > math.Cbrt(r) = %v",
			mem, math.Float64bits(mem), r, math.Float64bits(r), got, want)
	}
	if got, want := passMultiplier(r, mem), refPassMultiplier(r, mem); got != want {
		t.Fatalf("passMultiplier(%v, %v) = %v, reference %v", r, mem, got, want)
	}
}

// TestAboveCbrtMatchesRoot walks the boundary mem³ = r from both sides: for
// each base memory the pivot is the cube as computed, the exact cube where
// it is representable, and what math.Cbrt maps back onto the base — each ±6
// ulp, against the base ±6 ulp — plus the arguments no size should be but a
// caller can pass.
func TestAboveCbrtMatchesRoot(t *testing.T) {
	bases := []float64{1, 1.5, 2, 3, 4.25, 7, 10, 27, 63, 64, 100, 700, 1000, 1024, 4096, 65536, 1e5, 123456.789,
		1e6, 3e7, 1e10, 5.5e15, 1e50, 1e100, math.Cbrt(math.MaxFloat64), 5.6e102,
		0.5, 0.1, 1e-3, 1e-50, 1e-100, 1e-105, 1e-108, 2.8e-103}
	for k := 0; k < 400; k++ {
		bases = append(bases, 1+float64(k)*0.37, math.Exp(float64(k)*0.09))
	}
	for _, m := range bases {
		pivots := []float64{m * m * m, math.Pow(m, 3)}
		// The largest r whose rounded root is still ≤ m, found by bisection
		// on the monotone math.Cbrt: the exact flip point of the reference.
		lo, hi := ulps(m*m*m, -64), math.Min(ulps(m*m*m, 64), math.MaxFloat64)
		for math.Nextafter(lo, hi) < hi {
			mid := lo + (hi-lo)/2
			if math.Cbrt(mid) <= m {
				lo = mid
			} else {
				hi = mid
			}
		}
		pivots = append(pivots, lo, hi)
		for _, r0 := range pivots {
			for dr := -6; dr <= 6; dr++ {
				for dm := -6; dm <= 6; dm++ {
					checkAboveCbrt(t, ulps(m, dm), ulps(r0, dr))
				}
			}
		}
	}
	special := []float64{0, math.Copysign(0, -1), 1, -1, 8, -8, -27, 2, -2, 3, -3, 0.5, 1e-320, 5e-324, -5e-324,
		2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Cbrt(math.MaxFloat64), ulps(math.Cbrt(math.MaxFloat64), 1), 1e200, 1e-200}
	for _, m := range special {
		for _, r := range special {
			checkAboveCbrt(t, m, r)
		}
	}
}

func FuzzPassMultiplier(f *testing.F) {
	f.Add(10.0, 1000.0)
	f.Add(10.0, ulps(1000, 1))
	f.Add(ulps(10, -1), 1000.0)
	f.Add(-2.0, -8.0)
	f.Add(1e-105, 1e-315)
	f.Add(math.Inf(1), math.MaxFloat64)
	f.Add(math.NaN(), 64.0)
	f.Fuzz(func(t *testing.T, mem, r float64) {
		checkAboveCbrt(t, mem, r)
		// Pull the pair onto the boundary, where a random draw never lands.
		checkAboveCbrt(t, mem, mem*mem*mem)
		checkAboveCbrt(t, math.Cbrt(r), r)
	})
}

// kernelLaws are the memory laws the kernel is pinned under: a point, the
// paper's bimodal, shapes like the standard environment suite's, a
// 27-bucket law, and — per size pair — a law with buckets exactly on every
// threshold of the formulas.
func kernelLaws(t testing.TB) []dist.Dist {
	t.Helper()
	must := func(d dist.Dist, err error) dist.Dist {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	levels := []float64{64, 256, 1024, 4096}
	return []dist.Dist{
		dist.Point(1000),
		dist.Point(3),
		must(dist.Bimodal(700, 2000, 0.2)),
		must(dist.SpreadAround(1000, 900, 0.4)),
		must(dist.Zipf(levels, 1.2)),
		must(dist.Uniform(levels...)),
		dist.MustNew([]float64{2, 3, 17, 66, 258, 4098, 65538, 1e6}, []float64{3, 1, 4, 1, 5, 9, 2, 6}),
		must(dist.EquiWidth(64, 4096, 27, func(c float64) float64 { return 1 / c })),
	}
}

// thresholdLaw puts a bucket on, one ulp under and one ulp over every
// memory threshold of the formulas for this size pair.
func thresholdLaw(outer, inner float64) dist.Dist {
	var vals, ws []float64
	for _, r := range []float64{math.Min(outer, inner), math.Max(outer, inner)} {
		for _, v := range []float64{math.Sqrt(r), math.Cbrt(r), r + 2, r} {
			for d := -1; d <= 1; d++ {
				vals = append(vals, ulps(v, d))
				ws = append(ws, float64(len(vals)))
			}
		}
	}
	return dist.MustNew(vals, ws)
}

// checkCard holds every entry of a card for methods to the bits of the
// closure the card replaced — ==, not within a tolerance — and every entry
// for a method not asked for to 0.
func checkCard(t testing.TB, model Model, methods []JoinMethod, outer, inner float64, law *dist.Dist) {
	t.Helper()
	card := [BlockNL + 1]float64{1, 2, 3, 4} // stale entries the card must clear
	JoinCard(&card, model, methods, outer, inner, law)
	for _, method := range Methods {
		want := 0.0
		if slices.Contains(methods, method) {
			want = law.ExpectF(func(m float64) float64 { return JoinIOModel(model, method, outer, inner, m) })
		}
		if got := card[method]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("JoinCard(%v, %v, %v, %v)[%v] = %v [%016x], ExpectF = %v [%016x]",
				model, methods, outer, inner, method, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestExpectKernelsMatchExpectF: the kernels return the bits of the closure
// they replaced, for a card of all four methods, of the paper's three and
// of each method alone, at sizes down to 0, NaN and ±Inf and past 2⁵².
func TestExpectKernelsMatchExpectF(t *testing.T) {
	sizes := []float64{-5, 0, 1, 64, 4096, 65536, 1000.5, 27, 1e6, 1 << 52, 1<<53 + 2, 3e17, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN()}
	cards := [][]JoinMethod{Methods, PaperMethods, {BlockNL, SortMerge}}
	for _, m := range Methods {
		cards = append(cards, []JoinMethod{m})
	}
	for _, outer := range sizes {
		for _, inner := range sizes {
			laws := kernelLaws(t)
			if outer > 0 && inner > 0 && !math.IsInf(outer+inner, 0) {
				laws = append(laws, thresholdLaw(outer, inner))
			}
			for li := range laws {
				law := &laws[li]
				for _, model := range []Model{ModelPaper, ModelEngine} {
					for _, methods := range cards {
						checkCard(t, model, methods, outer, inner, law)
					}
				}
				want := law.ExpectF(func(m float64) float64 { return SortIO(outer, m) })
				if got := ExpectSortIO(outer, law); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("ExpectSortIO(%v, law %d) = %v, ExpectF = %v", outer, li, got, want)
				}
			}
		}
	}
}

// TestExpectPointLawIsTheFormula: under a point law the kernel is the
// formula itself (0 + 1·x), which is what lets the classical optimizer run
// on it.
func TestExpectPointLawIsTheFormula(t *testing.T) {
	for _, mem := range []float64{3, 10, 64, 100, 1000, 1e6, math.Inf(1)} {
		point := dist.Point(mem)
		for _, model := range []Model{ModelPaper, ModelEngine} {
			var card [BlockNL + 1]float64
			JoinCard(&card, model, Methods, 5000, 300, &point)
			for _, method := range Methods {
				if got, want := card[method], JoinIOModel(model, method, 5000, 300, mem); got != want {
					t.Fatalf("%v %v at %v: kernel %v, formula %v", model, method, mem, got, want)
				}
			}
		}
		if got, want := ExpectSortIO(5000, &point), SortIO(5000, mem); got != want {
			t.Fatalf("sort at %v: kernel %v, formula %v", mem, got, want)
		}
	}
}

var sinkIO float64

// BenchmarkExpectJoinIO times the innermost step of Algorithm C's dynamic
// program — one join's expected price — under a 6- and a 27-bucket law: a
// card of the paper's three methods (the optimizer's default search), and
// a card of each method alone.
func BenchmarkExpectJoinIO(b *testing.B) {
	for _, buckets := range []int{6, 27} {
		law, err := dist.EquiWidth(64, 4096, buckets, func(c float64) float64 { return 1 / c })
		if err != nil {
			b.Fatal(err)
		}
		cards := [][]JoinMethod{PaperMethods}
		for _, m := range Methods {
			cards = append(cards, []JoinMethod{m})
		}
		for _, methods := range cards {
			name := "card"
			if len(methods) == 1 {
				name = methods[0].String()
			}
			b.Run(fmt.Sprintf("b=%d/%s", buckets, name), func(b *testing.B) {
				var card [BlockNL + 1]float64
				for i := 0; i < b.N; i++ {
					JoinCard(&card, ModelPaper, methods, 5e6+float64(i&7), 3e5, &law)
					sinkIO += card[SortMerge] + card[GraceHash] + card[PageNL] + card[BlockNL]
				}
			})
		}
	}
}
