package dist

// maxSlabChunks bounds what a Reset slab keeps: a pooled slab must not pin
// the peak footprint of one unusually wide optimization forever.
const maxSlabChunks = 64

// slabChunkSize is the float count of one slab chunk.
const slabChunkSize = 4096

// Slab builds short-lived laws in reusable storage, for callers that make
// thousands of them per operation and throw them away together — the
// optimizer's Algorithm D builds a size law per surviving join candidate.
// Each method is its heap counterpart: Point stores (v, 1) as Point does,
// and Rebucket, Combine2, Combine3 and Map compute the same values and
// weights in the same order and normalize them with New's own code, so the
// law is bit for bit the one the heap function returns. A law from a slab is valid until the slab's
// next Reset; after that its storage is reused. The zero Slab is ready.
type Slab struct {
	chunks  [][]float64
	ci, off int       // cursor: the next law starts at chunks[ci][off]
	raw     []float64 // unnormalized values and weights; rebucket cells
	idx     []int     // sort scratch
}

// Reset releases every law built since the last Reset, keeping (up to a
// cap) the storage for the next ones.
func (s *Slab) Reset() {
	s.ci, s.off = 0, 0
	if len(s.chunks) > maxSlabChunks {
		s.chunks = s.chunks[:maxSlabChunks]
	}
	if cap(s.raw) > slabChunkSize {
		s.raw, s.idx = nil, nil
	}
}

// alloc carves n floats that stay untouched until the next Reset. Chunks
// are never reallocated, so earlier laws stay where they are.
func (s *Slab) alloc(n int) []float64 {
	for s.ci < len(s.chunks) && s.off+n > len(s.chunks[s.ci]) {
		s.ci++
		s.off = 0
	}
	if s.ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]float64, max(slabChunkSize, n)))
	}
	out := s.chunks[s.ci][s.off : s.off+n : s.off+n]
	s.off += n
	return out
}

// scratch returns the unnormalized values and weights buffers, each of
// length n, in reused storage.
func (s *Slab) scratch(n int) (vals, weights []float64) {
	if cap(s.raw) < 2*n {
		s.raw = make([]float64, 2*n)
	}
	return s.raw[:n:n], s.raw[n : 2*n : 2*n]
}

// build is New in the slab.
func (s *Slab) build(vals, weights []float64) (Dist, error) {
	if cap(s.idx) < len(vals) {
		s.idx = make([]int, len(vals))
	}
	return newInto(vals, weights, s.idx, s.alloc(2*len(vals)))
}

// Point is the package-level Point in the slab.
func (s *Slab) Point(v float64) Dist {
	a := s.alloc(2)
	a[0], a[1] = v, 1
	return Dist{vals: a[:1:1], probs: a[1:2:2]}
}

// Rebucket is d.Rebucket(b) in the slab. Like it, a law with at most b
// points comes back as it is.
func (s *Slab) Rebucket(d Dist, b int) (Dist, error) {
	if b <= 0 {
		return Dist{}, ErrBadTarget
	}
	if d.Len() <= b {
		return d, nil
	}
	total := d.TotalMass()
	mass, moment := s.scratch(b)
	clear(mass)
	clear(moment)
	cumBefore := 0.0
	for i, v := range d.vals {
		cell := min(int(cumBefore/total*float64(b)), b-1)
		mass[cell] += d.probs[i]
		moment[cell] += v * d.probs[i]
		cumBefore += d.probs[i]
	}
	// Each kept cell's value and weight overwrite cells already read: the
	// write index never passes the read index.
	n := 0
	for i := 0; i < b; i++ {
		if mass[i] <= 0 {
			continue
		}
		mass[n], moment[n] = moment[i]/mass[i], mass[i]
		n++
	}
	return s.build(mass[:n], moment[:n])
}

// Combine2 is the package-level Combine2 in the slab.
func (s *Slab) Combine2(a, b Dist, f func(x, y float64) float64) (Dist, error) {
	vals, weights := s.scratch(len(a.vals) * len(b.vals))
	n := 0
	for i, x := range a.vals {
		for j, y := range b.vals {
			vals[n], weights[n] = f(x, y), a.probs[i]*b.probs[j]
			n++
		}
	}
	return s.build(vals, weights)
}

// Combine3 is the package-level Combine3 in the slab.
func (s *Slab) Combine3(a, b, c Dist, f func(x, y, z float64) float64) (Dist, error) {
	vals, weights := s.scratch(len(a.vals) * len(b.vals) * len(c.vals))
	n := 0
	for i, x := range a.vals {
		for j, y := range b.vals {
			pij := a.probs[i] * b.probs[j]
			for k, z := range c.vals {
				vals[n], weights[n] = f(x, y, z), pij*c.probs[k]
				n++
			}
		}
	}
	return s.build(vals, weights)
}

// Map is d.Map(f) in the slab.
func (s *Slab) Map(d Dist, f func(float64) float64) (Dist, error) {
	vals, weights := s.scratch(len(d.vals))
	for i, v := range d.vals {
		vals[i] = f(v)
	}
	copy(weights, d.probs)
	return s.build(vals, weights)
}
