package optimizer

// Arena-escape fixture: minimal shadows of the pooled DP scratch types.
// finishGood, topGood and lawGood deep-copy the winner; finishBad,
// drainBad, topBad and lawBad leak raw scratch pointers into Results and
// are the seeded violations — the last two from a top-c list and from a
// pass that builds its size laws in the law slab. accessGood and accessBad
// return an access node of the pooled per-request context, copied and raw.
// finishHeap shares a node without Clone but never touches the pooled
// machinery, so it must stay silent — the heap-allocating passes own their
// nodes.

// Node stands in for plan.Node.
type Node struct {
	Left, Right *Node
}

// Clone deep-copies the node, as the real plan.Node.Clone does.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	out := *n
	out.Left = n.Left.Clone()
	out.Right = n.Right.Clone()
	return &out
}

// Result stands in for the real optimizer Result.
type Result struct {
	Plan *Node
	EC   float64
}

type entry struct {
	node  *Node
	score float64
}

// Dist stands in for dist.Dist: a law whose storage may be a slab's.
type Dist struct{ vals []float64 }

func (d Dist) Mean() float64 { return d.vals[0] }

type nodeArena struct {
	chunks [][]Node
}

func (a *nodeArena) alloc() *Node {
	if len(a.chunks) == 0 {
		a.chunks = append(a.chunks, make([]Node, 16))
	}
	return &a.chunks[0][0]
}

type lawSlab struct {
	keep []float64
}

func (s *lawSlab) point(v float64) Dist {
	s.keep = append(s.keep[:0], v)
	return Dist{s.keep[:1]}
}

type topList struct{ entries []entry }

type dpScratch struct {
	ents  []entry
	arena nodeArena
	slab  lawSlab
}

func getScratch() *dpScratch { return new(dpScratch) }

// finishGood returns the winner the only safe way.
func finishGood(sc *dpScratch) Result {
	best := sc.ents[0]
	return Result{Plan: best.node.Clone(), EC: best.score}
}

// finishBad leaks an arena node straight into the Result.
func finishBad(sc *dpScratch) Result {
	best := sc.ents[0]
	return Result{Plan: best.node, EC: best.score} // want `must never escape into a Result`
}

// drainBad builds a node from the scratch's arena and returns it raw.
func drainBad(a *nodeArena) Result {
	n := a.alloc()
	return Result{Plan: n} // want `must never escape into a Result`
}

// topGood copies the head of a top-c list held in the scratch.
func topGood(l topList) Result {
	return Result{Plan: l.entries[0].node.Clone(), EC: l.entries[0].score}
}

// topBad hands the head of a top-c list held in the scratch to a Result.
func topBad(l topList) Result {
	return Result{Plan: l.entries[0].node, EC: l.entries[0].score} // want `must never escape into a Result`
}

// lawGood prices an entry with a slab-built law and copies its plan.
func lawGood(sl *lawSlab, e entry) Result {
	return Result{Plan: e.node.Clone(), EC: e.score + sl.point(1).Mean()}
}

// lawBad prices an entry with a slab-built law and returns its plan raw.
func lawBad(sl *lawSlab, e entry) Result {
	return Result{Plan: e.node, EC: e.score + sl.point(1).Mean()} // want `must never escape into a Result`
}

// ctx stands in for the pooled per-request context whose scan nodes every
// plan's leaves point to.
type ctx struct {
	scans []Node
}

// accessGood copies a single-table plan out of the context.
func accessGood(c *ctx) Result {
	return Result{Plan: c.scans[0].Clone()}
}

// accessBad hands the context's own access node to a Result.
func accessBad(c *ctx) Result {
	return Result{Plan: &c.scans[0]} // want `must never escape into a Result`
}

// errResult returns an empty Result from a scratch-touching function;
// no Plan field is set, so nothing is reported.
func errResult() (Result, error) {
	sc := getScratch()
	_ = sc
	return Result{}, nil
}

// finishHeap shares a heap node without Clone but never touches the
// scratch, so the analyzer must not fire.
func finishHeap(e entry) Result {
	return Result{Plan: e.node, EC: e.score}
}
