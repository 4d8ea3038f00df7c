package optimizer

import (
	"sync"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/plan"
	"lecopt/internal/query"
)

// The subset DP's scratch memory — the table, Algorithm D's law slab, the
// candidate buffers and the trees of the plans the passes return — is
// reset, not freed, between optimizations: every pass borrows a dpScratch
// from a sync.Pool and releases it when nothing it needs points into it any
// longer, so a steady stream of cache misses stops churning the allocator.
// The table holds prices and back-pointers, not plans (entry): a pass
// builds only the plans it returns, into the scratch's trees (tree), and
// what leaves in a Result is cloned from there.

// maxPooledSlots bounds what a released scratch keeps warm in the pool; an
// occasional very wide query (the DP table is 2^n cells) must not pin its
// peak footprint forever.
const maxPooledSlots = 1 << 17

// policy is what the kernel keeps per (subset, order slot).
type policy uint8

const (
	keepBest policy = iota // the best entry: LSC, A, C, C-dynamic and D
	keepTopC               // the top-c entries (Proposition 3.1): Algorithm B
)

// dpScratch is the pooled state of one kernel pass. The table is flat:
// cell k = mask·2 + slot holds held[k] entries at ents[k·depth:], and bar[k]
// is the score an entry must not exceed to enter it (setBars until the cell
// is full: its last entry's score from then on). floor[mask] is the least a
// join pays to read mask's result (floorPages). For Algorithm D, laws[mask]
// is the size law of mask, built in slab before the pass (lawScorer). trees
// holds the plans a pass returns (tree).
type dpScratch struct {
	pol   policy
	depth int
	ents  []entry
	held  []int
	bar   []float64
	floor []float64
	laws  []dist.Dist
	slab  lawSlab
	root  []entry // the completed plans (complete)
	trees []plan.Node
	// methods and rights are the joins sigOrder.compare hands plan, per
	// side.
	methods [2][query.MaxTables]cost.JoinMethod
	rights  [2][query.MaxTables]*plan.Node
	cands   []int     // candidatesInto buffer
	pairs   []topPair // keepTopC: the frontier of one (left, right) list pair
	probes  int       // keepTopC: frontier pairs probed
}

var scratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

// getScratch borrows a scratch set up for an n-table query (setUp).
func getScratch(pol policy, depth, n int) *dpScratch {
	return scratchPool.Get().(*dpScratch).setUp(pol, depth, n)
}

// setUp sizes s for the table of an n-table query — two cells per subset
// under pol, each holding up to depth entries — and returns it. run sets
// the bars. An entry addresses its left input by table index (entry.left),
// so the table may not pass 2³² entries; it would take 64 GiB.
func (s *dpScratch) setUp(pol policy, depth, n int) *dpScratch {
	masks := int(fullMask(n)) + 1
	s.pol, s.depth = pol, depth
	s.ents = grow(s.ents, 2*masks*depth)
	s.held = grow(s.held, 2*masks)
	clear(s.held)
	s.bar = grow(s.bar, 2*masks)
	return s
}

// block returns size fresh nodes at the end of s.trees, in a new block of
// at least least nodes where the current one is full: the trees built so
// far stay where they are.
func (s *dpScratch) block(size, least int) []plan.Node {
	at := len(s.trees)
	if at+size <= cap(s.trees) {
		s.trees = s.trees[:at+size]
	} else {
		at, s.trees = 0, make([]plan.Node, size, max(2*cap(s.trees), least, size))
	}
	return s.trees[at : at+size : at+size]
}

// grow returns buf resliced to n, reallocated only when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// cell returns the table index of (mask, slot).
func cell(mask uint64, slot int) int { return int(mask)<<1 | slot }

// list returns the entries held at cell k.
func (s *dpScratch) list(k int) []entry {
	return s.ents[k*s.depth : k*s.depth+s.held[k]]
}

// admits reports whether an entry at score could enter cell k — the
// check that runs before a candidate is priced (and its law built).
func (s *dpScratch) admits(k int, score float64) bool {
	return !(score > s.bar[k])
}

// keep offers e, which cell k admits, to the cell: a single-entry cell
// takes it when it beats the incumbent — only a tie can still keep the
// incumbent — and a top-c cell as topList.add does. For one entry the two
// rules agree, duplicates included.
func (c *ctx) keep(s *dpScratch, k int, e entry) {
	by := sigOrder{c, s}
	if s.depth == 1 {
		if s.held[k] == 0 || by.better(&e, &s.ents[k]) {
			s.ents[k], s.held[k], s.bar[k] = e, 1, e.score
		}
		return
	}
	l := topList{s.ents[k*s.depth : k*s.depth+s.held[k] : (k+1)*s.depth]}
	l.add(e, s.depth, by)
	if s.held[k] = len(l.entries); s.held[k] == s.depth {
		s.bar[k] = l.entries[s.depth-1].score
	}
}

// release resets the scratch and returns it to the pool.
func (s *dpScratch) release() {
	s.reset()
	scratchPool.Put(s)
}

// reset drops the trees' links to the request and the table's links to
// laws, rewinds the slab, and trims outsized buffers.
func (s *dpScratch) reset() {
	clear(s.laws)
	clear(s.trees)
	clear(s.rights[0][:])
	clear(s.rights[1][:])
	s.root, s.trees = s.root[:0], s.trees[:0]
	if cap(s.ents) > maxPooledSlots {
		s.ents, s.held, s.bar, s.floor, s.laws = nil, nil, nil, nil, nil
	}
	if cap(s.trees) > maxPooledSlots {
		s.trees = nil
	}
	s.slab.reset()
	s.probes = 0
}

// lawSlab holds Algorithm D's size laws — the σ-law chains, Section
// 3.6.3's rebucketings and triple products, the clamp — in pooled storage
// instead of on the heap, one dist.Slab per lifetime. dist.Slab's methods
// are bit for bit their heap counterparts (FuzzLawKernel).
type lawSlab struct {
	keep dist.Slab // laws the size table holds: live until release
	sig  dist.Slab // one σ-law chain: rewound per mask
	tmp  dist.Slab // one result-size law's intermediates: rewound per law
}

func (s *lawSlab) reset() {
	s.keep.Reset()
	s.sig.Reset()
	s.tmp.Reset()
}
