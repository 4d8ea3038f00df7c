package optimizer

import (
	"sync"

	"lecopt/internal/cost"
	"lecopt/internal/plan"
)

// The join-subset DP's scratch memory — the table, the per-worker
// candidate buffers and the per-worker plan-node arenas — is reset, not
// freed, between optimizations: dpBest borrows a dpScratch from a
// sync.Pool and releases it before returning, so a steady stream of cache
// misses stops churning the allocator. Nothing allocated from a scratch
// may outlive the release: finishRoot deep-copies the winning plan, which
// is the only part of the DP state that escapes into a Result.

const (
	// arenaChunkSize is the node count of one arena chunk. Chunks are
	// never reallocated — growth appends a new chunk — so node pointers
	// handed out by alloc stay valid for the whole optimization.
	arenaChunkSize = 256
	// maxPooledChunks and maxPooledSlots bound what a released scratch
	// keeps warm in the pool; an occasional very wide query (the DP table
	// is 2^n slots) must not pin its peak footprint forever.
	maxPooledChunks = 64
	maxPooledSlots  = 1 << 16
)

// dpParallelMinMasks gates rank-parallel enumeration: a rank is split
// across workers only when it has enough masks to amortize goroutine
// handoff (the widest rank reaches it from n = 8 tables up). A var, not a
// const, so tests can force the parallel path on small corpora.
var dpParallelMinMasks = 64

// dpSlot is one DP-table cell: the best retained entry per order slot
// (see slotOf), held by value — entry pointers would pin the scratch's
// previous contents and cost an allocation per keep.
type dpSlot struct {
	e  [2]entry
	ok [2]bool
}

// dpWorker is one enumeration worker's private scratch: a node arena and
// a candidate buffer. Each parallel chunk owns exactly one worker, so
// arenas are never shared across goroutines.
type dpWorker struct {
	arena nodeArena
	cands []int
}

// dpScratch is the pooled scratch of one dpBest call.
type dpScratch struct {
	slots   []dpSlot
	masks   []uint64
	workers []dpWorker
}

var scratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

func getScratch() *dpScratch { return scratchPool.Get().(*dpScratch) }

// table returns a zeroed DP table of n slots, reusing the previous
// allocation when it is large enough.
func (s *dpScratch) table(n int) []dpSlot {
	if cap(s.slots) < n {
		s.slots = make([]dpSlot, n)
		return s.slots
	}
	s.slots = s.slots[:n]
	for i := range s.slots {
		s.slots[i] = dpSlot{}
	}
	return s.slots
}

// ensureWorkers grows the worker set to n before a parallel section —
// growing it mid-flight would move the backing array under live workers.
func (s *dpScratch) ensureWorkers(n int) {
	for len(s.workers) < n {
		s.workers = append(s.workers, dpWorker{})
	}
}

// release zeroes everything that could pin plan nodes, trims outsized
// buffers, and returns the scratch to the pool.
func (s *dpScratch) release() {
	for i := range s.slots {
		s.slots[i] = dpSlot{}
	}
	if cap(s.slots) > maxPooledSlots {
		s.slots = nil
	}
	for i := range s.workers {
		s.workers[i].arena.reset()
	}
	scratchPool.Put(s)
}

// nodeArena hands out plan.Node storage in fixed-size chunks. Reset
// zeroes only the used prefix, so the cost of recycling is proportional
// to what the last optimization actually touched.
type nodeArena struct {
	chunks [][]plan.Node
	ci, ni int // cursor: next node is chunks[ci][ni]
}

// alloc returns a zeroed node. Slots at or past the cursor are always
// zero (fresh chunks are zero; reset and undo re-zero recycled slots).
func (a *nodeArena) alloc() *plan.Node {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]plan.Node, arenaChunkSize))
	}
	n := &a.chunks[a.ci][a.ni]
	a.ni++
	if a.ni == arenaChunkSize {
		a.ci++
		a.ni = 0
	}
	return n
}

// undo gives back the most recently allocated node — a challenger that
// tied the incumbent's score and lost the signature tie-break.
func (a *nodeArena) undo() {
	if a.ni == 0 {
		a.ci--
		a.ni = arenaChunkSize
	}
	a.ni--
	a.chunks[a.ci][a.ni] = plan.Node{}
}

// newJoin is plan.NewJoin allocated from the arena.
func (a *nodeArena) newJoin(method cost.JoinMethod, left, right *plan.Node, outPages float64, order plan.Order) *plan.Node {
	n := a.alloc()
	n.Kind = plan.KindJoin
	n.Method = method
	n.Left = left
	n.Right = right
	n.OutPages = outPages
	n.OutOrder = order
	return n
}

// reset zeroes the used prefix (dropping the node links that would
// otherwise keep the last query's plans reachable from the pool) and
// rewinds the cursor.
func (a *nodeArena) reset() {
	for i := 0; i <= a.ci && i < len(a.chunks); i++ {
		n := arenaChunkSize
		if i == a.ci {
			n = a.ni
		}
		c := a.chunks[i]
		for j := 0; j < n; j++ {
			c[j] = plan.Node{}
		}
	}
	a.ci, a.ni = 0, 0
	if len(a.chunks) > maxPooledChunks {
		a.chunks = a.chunks[:maxPooledChunks]
	}
}

// owns reports whether p points into the arena — the test hook behind the
// guarantee that no arena pointer escapes into a Result.
func (a *nodeArena) owns(p *plan.Node) bool {
	for _, c := range a.chunks {
		for i := range c {
			if p == &c[i] {
				return true
			}
		}
	}
	return false
}
