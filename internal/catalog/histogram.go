package catalog

import (
	"fmt"
	"math"
	"sort"

	"lecopt/internal/dist"
)

// Histogram is a bucketed summary of a numeric column: bounds has n+1
// ascending entries and counts[i] rows fall in (bounds[i], bounds[i+1]],
// with the first bucket also including its lower bound. Within a bucket,
// values are assumed uniformly spread (the standard "continuous values"
// assumption of [PIHS96]-style estimators).
type Histogram struct {
	bounds []float64
	counts []float64
	total  float64
}

// NewHistogram validates and builds a histogram.
func NewHistogram(bounds, counts []float64) (*Histogram, error) {
	if len(bounds) != len(counts)+1 || len(counts) == 0 {
		return nil, fmt.Errorf("%w: need len(bounds) = len(counts)+1 ≥ 2", ErrBadHist)
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("%w: bounds not increasing at %d", ErrBadHist, i)
		}
	}
	total := 0.0
	for i, c := range counts {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("%w: count %d invalid", ErrBadHist, i)
		}
		total += c
	}
	if total <= 0 {
		return nil, fmt.Errorf("%w: zero rows", ErrBadHist)
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: append([]float64(nil), counts...),
		total:  total,
	}, nil
}

// EquiWidthHistogram builds n equal-width buckets over [lo, hi] with the
// given per-bucket counts.
func EquiWidthHistogram(lo, hi float64, counts []float64) (*Histogram, error) {
	n := len(counts)
	if n == 0 || hi <= lo {
		return nil, ErrBadHist
	}
	bounds := make([]float64, n+1)
	w := (hi - lo) / float64(n)
	for i := 0; i <= n; i++ {
		bounds[i] = lo + float64(i)*w
	}
	bounds[n] = hi
	return NewHistogram(bounds, counts)
}

// EquiDepthFromSamples builds an n-bucket equi-depth histogram from sample
// values: each bucket holds ≈ the same number of samples, scaled to
// totalRows.
func EquiDepthFromSamples(samples []float64, n int, totalRows float64) (*Histogram, error) {
	if len(samples) == 0 || n <= 0 || totalRows <= 0 {
		return nil, ErrBadHist
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n > len(s) {
		n = len(s)
	}
	bounds := make([]float64, 0, n+1)
	counts := make([]float64, 0, n)
	per := float64(len(s)) / float64(n)
	bounds = append(bounds, s[0]-1e-9) // open lower edge below the minimum
	prevIdx := 0
	for b := 1; b <= n; b++ {
		idx := int(math.Round(per * float64(b)))
		if idx <= prevIdx {
			idx = prevIdx + 1
		}
		if idx > len(s) {
			idx = len(s)
		}
		hi := s[idx-1]
		if hi <= bounds[len(bounds)-1] {
			hi = math.Nextafter(bounds[len(bounds)-1], math.Inf(1))
		}
		bounds = append(bounds, hi)
		counts = append(counts, float64(idx-prevIdx)/float64(len(s))*totalRows)
		prevIdx = idx
		if prevIdx == len(s) {
			break
		}
	}
	return NewHistogram(bounds, counts)
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Rows returns the total row count.
func (h *Histogram) Rows() float64 { return h.total }

// Counts returns a copy of the bucket row counts.
func (h *Histogram) Counts() []float64 { return append([]float64(nil), h.counts...) }

// SelLE returns the selectivity of "col <= v" under the within-bucket
// uniformity assumption.
func (h *Histogram) SelLE(v float64) float64 {
	if v < h.bounds[0] {
		return 0
	}
	if v >= h.bounds[len(h.bounds)-1] {
		return 1
	}
	rows := 0.0
	for i, c := range h.counts {
		lo, hi := h.bounds[i], h.bounds[i+1]
		switch {
		case v >= hi:
			rows += c
		case v > lo:
			rows += c * (v - lo) / (hi - lo)
		}
		if v < hi {
			break
		}
	}
	return rows / h.total
}

// SelRange returns the selectivity of "lo < col <= hi".
func (h *Histogram) SelRange(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	s := h.SelLE(hi) - h.SelLE(lo)
	if s < 0 {
		return 0
	}
	return s
}

// SelEq returns the selectivity of "col = v": the containing bucket's
// fraction divided by an assumed uniform spread over distinctInBucket
// values. distinct is the column's total distinct count, apportioned to
// buckets by row mass.
func (h *Histogram) SelEq(v, distinct float64) float64 {
	if v < h.bounds[0] || v > h.bounds[len(h.bounds)-1] || distinct <= 0 {
		return 0
	}
	for i, c := range h.counts {
		lo, hi := h.bounds[i], h.bounds[i+1]
		inBucket := (i == 0 && v >= lo && v <= hi) || (v > lo && v <= hi)
		if inBucket {
			frac := c / h.total
			dInBucket := distinct * frac
			if dInBucket < 1 {
				dInBucket = 1
			}
			return frac / dInBucket
		}
	}
	return 0
}

// SelLELaw returns a distribution over the selectivity of "col <= v"
// capturing within-bucket uncertainty — the raw material the paper's
// Algorithm D needs for "notoriously uncertain" selectivities (§3.6). The
// point estimate assumes the containing bucket's rows are uniformly
// spread; in truth they could all sit below v (selectivity = everything
// through the bucket) or all above it (selectivity = everything before
// the bucket). The law is {sLo, sMid, sHi} with pCenter mass on the
// interpolated estimate and the remainder split between the extremes.
// Values outside the histogram's range return a point law (no
// uncertainty).
func (h *Histogram) SelLELaw(v float64, pCenter float64) (dist.Dist, error) {
	if pCenter < 0 || pCenter > 1 {
		return dist.Dist{}, fmt.Errorf("%w: pCenter %v", ErrBadHist, pCenter)
	}
	if v < h.bounds[0] {
		return dist.Point(0), nil
	}
	if v >= h.bounds[len(h.bounds)-1] {
		return dist.Point(1), nil
	}
	below := 0.0
	for i, c := range h.counts {
		lo, hi := h.bounds[i], h.bounds[i+1]
		if v >= hi {
			below += c
			continue
		}
		// v falls in bucket i.
		sLo := below / h.total
		sHi := (below + c) / h.total
		sMid := sLo
		if hi > lo {
			sMid += c * (v - lo) / (hi - lo) / h.total
		}
		side := (1 - pCenter) / 2
		return dist.New([]float64{sLo, sMid, sHi}, []float64{side, pCenter, side})
	}
	return dist.Point(1), nil
}

// ToDist converts the histogram into a discrete distribution over bucket
// centers weighted by row mass — the raw material for size/selectivity
// distributions in Algorithm D.
func (h *Histogram) ToDist() dist.Dist {
	vals := make([]float64, len(h.counts))
	probs := make([]float64, len(h.counts))
	for i, c := range h.counts {
		vals[i] = (h.bounds[i] + h.bounds[i+1]) / 2
		probs[i] = c
	}
	return dist.MustNew(vals, probs)
}
