package optimizer

import (
	"sync"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/plan"
)

// The subset DP's scratch memory — the table, Algorithm D's law slab, the
// candidate buffers and the plan-node arena — is reset, not freed,
// between optimizations: every pass borrows a dpScratch from a sync.Pool
// and releases it when its result no longer points into it, so a steady
// stream of cache misses stops churning the allocator. Nothing allocated
// from a scratch may outlive the release: a finished pass deep-copies the
// winning plan, which is the only part of the DP state that escapes into a
// Result.

const (
	// arenaChunkSize is the node count of one arena chunk. Chunks are
	// never reallocated — growth appends a new chunk — so pointers into
	// them stay valid for the whole optimization.
	arenaChunkSize = 256
	// maxPooledChunks and maxPooledSlots bound what a released scratch
	// keeps warm in the pool; an occasional very wide query (the DP table
	// is 2^n cells) must not pin its peak footprint forever.
	maxPooledChunks = 64
	maxPooledSlots  = 1 << 17
)

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
// is the size law of mask, built in slab before the pass (lawScorer). Join
// and sort nodes come from arena.
type dpScratch struct {
	pol    policy
	depth  int
	ents   []entry
	held   []int
	bar    []float64
	floor  []float64
	laws   []dist.Dist
	slab   lawSlab
	root   []entry // the completed plans (complete)
	arena  nodeArena
	cands  []int     // candidatesInto buffer
	pairs  []topPair // keepTopC: the frontier of one (left, right) list pair
	probes int       // keepTopC: frontier pairs probed
}

var scratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

// getScratch borrows a scratch set up for an n-table query (setUp).
func getScratch(pol policy, depth, n int) *dpScratch {
	return scratchPool.Get().(*dpScratch).setUp(pol, depth, n)
}

// setUp sizes s for the table of an n-table query — two cells per subset
// under pol, each holding up to depth entries — and returns it. run sets
// the bars.
func (s *dpScratch) setUp(pol policy, depth, n int) *dpScratch {
	masks := int(fullMask(n)) + 1
	s.pol, s.depth = pol, depth
	s.ents = grow(s.ents, 2*masks*depth)
	s.held = grow(s.held, 2*masks)
	clear(s.held)
	s.bar = grow(s.bar, 2*masks)
	return s
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
// check that runs before a candidate's node (and law) is built.
func (s *dpScratch) admits(k int, score float64) bool {
	return !(score > s.bar[k])
}

// keep offers e, which cell k admits, to the cell and reports whether it
// entered: a single-entry cell takes it when it beats the incumbent — only
// a tie can still keep the incumbent — and a top-c cell as topList.add
// does. For one entry the two rules agree, duplicates included.
func (s *dpScratch) keep(k int, e entry) bool {
	if s.depth == 1 {
		if s.held[k] != 0 && !better(e.score, e.node, s.ents[k].score, s.ents[k].node) {
			return false
		}
		s.ents[k], s.held[k], s.bar[k] = e, 1, e.score
		return true
	}
	l := topList{s.ents[k*s.depth : k*s.depth+s.held[k] : (k+1)*s.depth]}
	in := l.add(e, s.depth)
	if s.held[k] = len(l.entries); s.held[k] == s.depth {
		s.bar[k] = l.entries[s.depth-1].score
	}
	return in
}

// release resets the scratch and returns it to the pool.
func (s *dpScratch) release() {
	s.reset()
	scratchPool.Put(s)
}

// reset zeroes the table's links to plan nodes and laws, rewinds the arena
// and the slab, and trims outsized buffers.
func (s *dpScratch) reset() {
	clear(s.ents)
	clear(s.laws)
	clear(s.root)
	s.root = s.root[:0]
	if cap(s.ents) > maxPooledSlots {
		s.ents, s.held, s.bar, s.floor, s.laws = nil, nil, nil, nil, nil
	}
	s.slab.reset()
	s.arena.reset()
	s.probes = 0
}

// nodeArena hands out plan.Node storage in fixed-size chunks. newJoin and
// newSort store every field of the node they hand out, so recycling is a
// cursor rewind: nothing is zeroed. They store field by field — a
// composite literal would be built aside and block-copied in — and
// TestNodeArena dirties every field of plan.Node by reflection, so a field
// added there and missed here fails it. The links a rewound arena still
// holds keep at most its high-water mark of old nodes reachable, and only
// while the pool keeps the scratch (a sync.Pool drops idle entries across
// GCs).
type nodeArena struct {
	chunks [][]plan.Node
	ci, ni int // cursor: next node is chunks[ci][ni]
}

// alloc returns the next slot; it holds whatever it last held.
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
// lost to the incumbent.
func (a *nodeArena) undo() {
	if a.ni == 0 {
		a.ci--
		a.ni = arenaChunkSize
	}
	a.ni--
}

// newJoin is plan.NewJoin allocated from the arena.
func (a *nodeArena) newJoin(method cost.JoinMethod, left, right *plan.Node, outPages float64, order plan.Order) *plan.Node {
	n := a.alloc()
	n.Kind, n.Method, n.Left, n.Right, n.Child = plan.KindJoin, method, left, right, nil
	n.Table, n.Access, n.Index, n.Sel, n.Pred = "", 0, "", 0, nil
	n.OutPages, n.OutOrder, n.IO = outPages, order, 0
	return n
}

// newSort is plan.NewSort allocated from the arena.
func (a *nodeArena) newSort(child *plan.Node, order plan.Order) *plan.Node {
	n := a.alloc()
	n.Kind, n.Method, n.Left, n.Right, n.Child = plan.KindSort, 0, nil, nil, child
	n.Table, n.Access, n.Index, n.Sel, n.Pred = "", 0, "", 0, nil
	n.OutPages, n.OutOrder, n.IO = child.OutPages, order, 0
	return n
}

// reset rewinds the cursor and trims the chunks kept for the next pass.
func (a *nodeArena) reset() {
	a.ci, a.ni = 0, 0
	if len(a.chunks) > maxPooledChunks {
		a.chunks = a.chunks[:maxPooledChunks]
	}
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
