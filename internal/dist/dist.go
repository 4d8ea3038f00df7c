// Package dist is the probabilistic substrate of the LEC optimizer: finite
// discrete probability distributions over run-time parameter values
// (buffer memory, relation sizes, predicate selectivities) and Markov
// chains over memory levels.
//
// Sections 2–3 of Chu, Halpern and Seshadri (PODS 1999) model every
// uncertain run-time parameter as a "buckets" distribution — a finite set
// of representative values with probabilities. Dist is exactly that
// object: an immutable law with ascending, deduplicated support and
// normalized probabilities. Every optimizer layer consumes it: the
// Algorithm C/D dynamic programs take expectations over its buckets (At,
// ExpectF), the linear-time evaluators of Section 3.6 sweep its sorted
// support with running prefix sums, Section 3.6.3 result-size propagation
// rebuckets it with Rebucket, the parametric plan cache finds the nearest
// anticipated law with Wasserstein1, and the Section 3.5 dynamic-memory extension evolves it through a Chain.
//
// Dist values are immutable: every transformation (Map, Rebucket,
// Combine2, ...) returns a fresh law. The zero Dist is a valid "no law"
// sentinel, distinguishable with IsZero.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// Errors.
var (
	// ErrBadDist reports invalid constructor inputs (mismatched lengths,
	// non-finite values, negative weights, zero total mass).
	ErrBadDist = errors.New("dist: invalid distribution")
	// ErrBadTarget reports a non-positive bucket target (Rebucket and the
	// Section 3.6.3 result-size rebucketing).
	ErrBadTarget = errors.New("dist: bucket target must be positive")
)

// Dist is an immutable finite discrete distribution: Value(i) occurs with
// probability Prob(i). The support is ascending and duplicate-free; the
// probabilities are normalized to sum to 1. The zero Dist has no support
// (IsZero reports true) and stands for "no law installed".
type Dist struct {
	vals  []float64
	probs []float64
}

// New builds a distribution from values and unnormalized non-negative
// weights. The support is sorted ascending, duplicate values are merged
// (their weights add), zero-weight values are dropped, and weights are
// normalized to probabilities.
func New(vals, weights []float64) (Dist, error) {
	return newInto(vals, weights, make([]int, len(vals)), make([]float64, 2*len(vals)))
}

// newInto is New building the law in given storage — fresh for New, a
// Slab's for the slab methods: idx (at least len(vals) ints) is sort
// scratch, and out (at least 2·len(vals) floats) backs the law's values
// and probabilities.
func newInto(vals, weights []float64, idx []int, out []float64) (Dist, error) {
	n := len(vals)
	if n == 0 || n != len(weights) {
		return Dist{}, fmt.Errorf("%w: %d values, %d weights", ErrBadDist, n, len(weights))
	}
	total := 0.0
	for i, v := range vals {
		w := weights[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Dist{}, fmt.Errorf("%w: non-finite value %v", ErrBadDist, v)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return Dist{}, fmt.Errorf("%w: weight %v for value %v", ErrBadDist, w, v)
		}
		total += w
	}
	// A sum of individually finite weights can still overflow to +Inf,
	// which would normalize every probability to zero (found by review of
	// the FuzzNewDist invariants); reject it like any other bad mass.
	if total <= 0 || math.IsInf(total, 0) {
		return Dist{}, fmt.Errorf("%w: total weight %v", ErrBadDist, total)
	}
	idx = idx[:n]
	for i := range idx {
		idx[i] = i
	}
	// The order of equal values decides the order in which their
	// probabilities are summed below. slices.SortFunc runs the same
	// pattern-defeating quicksort as sort.Slice — both are generated from
	// one template — so the permutation, and every merged bit, is the one
	// sort.Slice gives (TestSortFuncPermutationIsSortSlice).
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case vals[a] < vals[b]:
			return -1
		case vals[b] < vals[a]:
			return 1
		}
		return 0
	})
	d := Dist{vals: out[0:0:n], probs: out[n : n : 2*n]}
	for _, i := range idx {
		if weights[i] == 0 {
			continue
		}
		p := weights[i] / total
		if k := len(d.vals); k > 0 && d.vals[k-1] == vals[i] {
			d.probs[k-1] += p
			continue
		}
		d.vals = append(d.vals, vals[i])
		d.probs = append(d.probs, p)
	}
	// Merging duplicate values sums already-rounded quotients, which can
	// carry a probability one ulp above 1 (found by FuzzNewDist); clamp so
	// Prob always reports a value in [0, 1].
	for i, p := range d.probs {
		if p > 1 {
			d.probs[i] = 1
		}
	}
	return d, nil
}

// MustNew is New, panicking on error. For laws built from literals.
func MustNew(vals, weights []float64) Dist {
	d, err := New(vals, weights)
	if err != nil {
		panic(err)
	}
	return d
}

// Point is the degenerate one-value law.
func Point(v float64) Dist {
	a := [2]float64{v, 1} // one allocation backs both one-element slices
	return Dist{vals: a[:1:1], probs: a[1:]}
}

// Points returns the point law of each value: a realized memory trajectory
// as the per-phase laws an expected-cost evaluator takes, where EC is the
// cost at the trajectory. One allocation backs the values and
// probabilities of every law.
func Points(vals []float64) []Dist {
	a := make([]float64, 2*len(vals))
	out := make([]Dist, len(vals))
	for i, v := range vals {
		a[2*i], a[2*i+1] = v, 1
		out[i] = Dist{vals: a[2*i : 2*i+1 : 2*i+1], probs: a[2*i+1 : 2*i+2 : 2*i+2]}
	}
	return out
}

// Bimodal returns the two-point law {lo: pLo, hi: 1-pLo} — the paper's
// Example 1.1 memory model (a contended and an uncontended state). With
// pLo 0 or 1 the law degenerates to a point.
func Bimodal(lo, hi, pLo float64) (Dist, error) {
	if math.IsNaN(pLo) || pLo < 0 || pLo > 1 {
		return Dist{}, fmt.Errorf("%w: Bimodal pLo %v", ErrBadDist, pLo)
	}
	switch pLo {
	case 0:
		return New([]float64{hi}, []float64{1})
	case 1:
		return New([]float64{lo}, []float64{1})
	}
	return New([]float64{lo, hi}, []float64{pLo, 1 - pLo})
}

// Uniform puts equal mass on each given value.
func Uniform(vals ...float64) (Dist, error) {
	weights := make([]float64, len(vals))
	for i := range weights {
		weights[i] = 1
	}
	return New(vals, weights)
}

// Zipf distributes mass over levels with weight 1/rank^s (rank 1 is the
// first level): a heavy-headed law for memory tiers that are usually
// under pressure.
func Zipf(levels []float64, s float64) (Dist, error) {
	if math.IsNaN(s) || s < 0 {
		return Dist{}, fmt.Errorf("%w: Zipf exponent %v", ErrBadDist, s)
	}
	weights := make([]float64, len(levels))
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
	}
	return New(levels, weights)
}

// SpreadAround returns the three-point law {center-width, center,
// center+width} with pCenter mass at the center and the remainder split
// evenly between the arms. width must keep the low arm positive (the
// parameters modelled — pages of memory, relation sizes — are positive).
// A zero width degenerates to a point law.
func SpreadAround(center, width, pCenter float64) (Dist, error) {
	if math.IsNaN(pCenter) || pCenter < 0 || pCenter > 1 {
		return Dist{}, fmt.Errorf("%w: SpreadAround pCenter %v", ErrBadDist, pCenter)
	}
	if math.IsNaN(width) || width < 0 {
		return Dist{}, fmt.Errorf("%w: SpreadAround width %v", ErrBadDist, width)
	}
	if width == 0 {
		return New([]float64{center}, []float64{1})
	}
	if center-width <= 0 {
		return Dist{}, fmt.Errorf("%w: SpreadAround low arm %v not positive", ErrBadDist, center-width)
	}
	side := (1 - pCenter) / 2
	return New(
		[]float64{center - width, center, center + width},
		[]float64{side, pCenter, side},
	)
}

// EquiWidth builds an n-bucket equal-width law over [lo, hi]: bucket i's
// value is its cell center and its weight is weight(center). This is the
// "fine-grained true law" generator of the Section 3.7 bucketing
// experiments.
func EquiWidth(lo, hi float64, n int, weight func(center float64) float64) (Dist, error) {
	if n < 1 {
		return Dist{}, fmt.Errorf("%w: EquiWidth buckets %d", ErrBadDist, n)
	}
	if !(hi > lo) {
		return Dist{}, fmt.Errorf("%w: EquiWidth range [%v, %v]", ErrBadDist, lo, hi)
	}
	w := (hi - lo) / float64(n)
	vals := make([]float64, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		c := lo + (float64(i)+0.5)*w
		vals[i] = c
		weights[i] = weight(c)
	}
	return New(vals, weights)
}

// --- accessors ----------------------------------------------------------

// IsZero reports whether the law is the zero value (no support).
func (d Dist) IsZero() bool { return len(d.vals) == 0 }

// Len returns the number of support points (buckets).
func (d Dist) Len() int { return len(d.vals) }

// Value returns the i-th support value (ascending order).
func (d Dist) Value(i int) float64 { return d.vals[i] }

// Prob returns the probability of the i-th support value.
func (d Dist) Prob(i int) float64 { return d.probs[i] }

// At returns the i-th support value and its probability. Unlike the other
// accessors it has a pointer receiver, for loops over a handful of buckets
// (cost.JoinCard, the expcost sweeps): a Dist is two slice headers, too
// large for the compiler to keep in registers, so Value(i) and Prob(i) copy
// all 48 bytes on every call — most of such a loop's time.
func (d *Dist) At(i int) (v, p float64) { return d.vals[i], d.probs[i] }

// Support returns a copy of the ascending support.
func (d Dist) Support() []float64 {
	return append([]float64(nil), d.vals...)
}

// TotalMass returns the probability total (1 up to float rounding).
func (d Dist) TotalMass() float64 {
	t := 0.0
	for _, p := range d.probs {
		t += p
	}
	return t
}

// Min returns the smallest support value (0 for the zero law).
func (d Dist) Min() float64 {
	if d.IsZero() {
		return 0
	}
	return d.vals[0]
}

// Max returns the largest support value (0 for the zero law).
func (d Dist) Max() float64 {
	if d.IsZero() {
		return 0
	}
	return d.vals[len(d.vals)-1]
}

// Mean returns E[X].
func (d Dist) Mean() float64 {
	m := 0.0
	for i, v := range d.vals {
		m += v * d.probs[i]
	}
	return m
}

// Std returns the standard deviation.
func (d Dist) Std() float64 {
	m := d.Mean()
	v := 0.0
	for i, x := range d.vals {
		dx := x - m
		v += dx * dx * d.probs[i]
	}
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Mode returns the most probable value; ties go to the smallest value, so
// on an evenly-split bimodal memory law the modal optimizer plans for the
// contended (low) state.
func (d Dist) Mode() float64 {
	if d.IsZero() {
		return 0
	}
	best := 0
	for i := 1; i < len(d.probs); i++ {
		if d.probs[i] > d.probs[best] {
			best = i
		}
	}
	return d.vals[best]
}

// PrAtMost returns Pr(X ≤ v).
func (d Dist) PrAtMost(v float64) float64 {
	p := 0.0
	for i, x := range d.vals {
		if x > v {
			break
		}
		p += d.probs[i]
	}
	return p
}

// ExpectF returns E[f(X)].
func (d Dist) ExpectF(f func(float64) float64) float64 {
	e := 0.0
	for i, v := range d.vals {
		e += d.probs[i] * f(v)
	}
	return e
}

// Sample draws one value.
func (d Dist) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	acc := 0.0
	for i, p := range d.probs {
		acc += p
		if u < acc {
			return d.vals[i]
		}
	}
	return d.vals[len(d.vals)-1]
}

// Map applies f to every support value and rebuilds the law (the image is
// re-sorted; values that collide merge). Used e.g. to clamp size laws to
// a minimum page count. An image that is not finite is an error.
func (d Dist) Map(f func(float64) float64) (Dist, error) {
	vals := make([]float64, len(d.vals))
	for i, v := range d.vals {
		vals[i] = f(v)
	}
	return New(vals, d.probs)
}

// Rebucket coarsens the law to at most b equal-probability buckets
// (quantile cells over the ascending support). Each output bucket's value
// is the conditional mean of the merged points, so total mass and the
// law's mean are preserved exactly — the Section 3.6.3 requirement that
// rebucketing the result-size law keeps expected sizes unbiased.
func (d Dist) Rebucket(b int) (Dist, error) {
	if b <= 0 {
		return Dist{}, ErrBadTarget
	}
	if d.Len() <= b {
		return d, nil
	}
	total := d.TotalMass()
	mass := make([]float64, b)
	moment := make([]float64, b)
	cumBefore := 0.0
	for i, v := range d.vals {
		cell := int(cumBefore / total * float64(b))
		if cell >= b {
			cell = b - 1
		}
		mass[cell] += d.probs[i]
		moment[cell] += v * d.probs[i]
		cumBefore += d.probs[i]
	}
	var vals, weights []float64
	for i := 0; i < b; i++ {
		if mass[i] <= 0 {
			continue
		}
		vals = append(vals, moment[i]/mass[i])
		weights = append(weights, mass[i])
	}
	return New(vals, weights)
}

// ApproxEqual reports whether both laws have the same support length and
// agree value-by-value and probability-by-probability within tol.
func (d Dist) ApproxEqual(o Dist, tol float64) bool {
	if d.Len() != o.Len() {
		return false
	}
	for i := range d.vals {
		if math.Abs(d.vals[i]-o.vals[i]) > tol || math.Abs(d.probs[i]-o.probs[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the law as "{v:p, v:p, ...}".
func (d Dist) String() string {
	if d.IsZero() {
		return "{}"
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, v := range d.vals {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%g:%g", v, d.probs[i])
	}
	sb.WriteByte('}')
	return sb.String()
}

// --- functional combinators ---------------------------------------------

// Expect2 returns E[f(X, Y)] for independent X ~ a, Y ~ b.
func Expect2(a, b Dist, f func(x, y float64) float64) float64 {
	e := 0.0
	for i, x := range a.vals {
		for j, y := range b.vals {
			e += a.probs[i] * b.probs[j] * f(x, y)
		}
	}
	return e
}

// Expect3 returns E[f(X, Y, Z)] for independent X ~ a, Y ~ b, Z ~ c.
func Expect3(a, b, c Dist, f func(x, y, z float64) float64) float64 {
	e := 0.0
	for i, x := range a.vals {
		for j, y := range b.vals {
			pij := a.probs[i] * b.probs[j]
			for k, z := range c.vals {
				e += pij * c.probs[k] * f(x, y, z)
			}
		}
	}
	return e
}

// Combine2 returns the law of f(X, Y) for independent X ~ a, Y ~ b (the
// product rule; colliding output values merge). An output value that is
// not finite — a product past float range — is an error.
func Combine2(a, b Dist, f func(x, y float64) float64) (Dist, error) {
	vals := make([]float64, 0, len(a.vals)*len(b.vals))
	weights := make([]float64, 0, len(a.vals)*len(b.vals))
	for i, x := range a.vals {
		for j, y := range b.vals {
			vals = append(vals, f(x, y))
			weights = append(weights, a.probs[i]*b.probs[j])
		}
	}
	return New(vals, weights)
}

// Combine3 returns the law of f(X, Y, Z) for independent inputs, or an
// error when an output value is not finite.
func Combine3(a, b, c Dist, f func(x, y, z float64) float64) (Dist, error) {
	vals := make([]float64, 0, len(a.vals)*len(b.vals)*len(c.vals))
	weights := make([]float64, 0, len(a.vals)*len(b.vals)*len(c.vals))
	for i, x := range a.vals {
		for j, y := range b.vals {
			pij := a.probs[i] * b.probs[j]
			for k, z := range c.vals {
				vals = append(vals, f(x, y, z))
				weights = append(weights, pij*c.probs[k])
			}
		}
	}
	return New(vals, weights)
}

// --- distances ----------------------------------------------------------

// Wasserstein1 returns the 1-Wasserstein (earth-mover) distance
// ∫ |F_a(x) - F_b(x)| dx: the minimal probability-mass transport cost
// between the laws. Unlike total variation it is support-aware — moving a
// bucket slightly costs little — which is why the parametric plan cache
// uses it to find the nearest anticipated law.
func Wasserstein1(a, b Dist) float64 {
	type edge struct{ v, da, db float64 }
	edges := make([]edge, 0, a.Len()+b.Len())
	for i, v := range a.vals {
		edges = append(edges, edge{v: v, da: a.probs[i]})
	}
	for j, v := range b.vals {
		edges = append(edges, edge{v: v, db: b.probs[j]})
	}
	sort.Slice(edges, func(x, y int) bool { return edges[x].v < edges[y].v })
	d := 0.0
	fa, fb := 0.0, 0.0
	for i, e := range edges {
		if i > 0 {
			d += math.Abs(fa-fb) * (e.v - edges[i-1].v)
		}
		fa += e.da
		fb += e.db
	}
	return d
}
