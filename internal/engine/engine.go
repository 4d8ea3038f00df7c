// Package engine is a mini page-at-a-time execution engine: external merge
// sort, sort-merge join, Grace hash join, and nested-loop joins executing
// over the storage layer through an LRU buffer pool that counts physical
// page I/O.
//
// Its purpose in this reproduction is experiment E15: demonstrating that
// the paper's simplified three-case cost formulas (footnote 2, [Sha86])
// have the right *shape* — the same memory-threshold plateaus and
// crossovers — when compared against the measured I/O of real join
// algorithm implementations. Join results are materialized without I/O
// charge (pipelined-to-consumer convention, matching the formulas, which
// exclude result writes).
package engine

import (
	"errors"
	"fmt"
	"slices"

	"lecopt/internal/buffer"
	"lecopt/internal/cost"
	"lecopt/internal/feedback"
	"lecopt/internal/plan"
	"lecopt/internal/storage"
)

// Errors.
var (
	errBadMemory = errors.New("engine: memory budget too small")
	errBadSpec   = errors.New("engine: invalid spec")
)

// Engine executes operators against one store. Like its store, it serves
// one goroutine at a time: its operators share one buffer pool, reset to
// each operator's memory budget, and reuse the engine's scratch — the run
// being formed, the sorter, the hash tables, the merge cursors and the
// partition writers — from call to call.
type Engine struct {
	store  *storage.Store
	pool   *buffer.Pool    // built on first use; see resetPool
	exec   executor        // ExecutePlan's state
	batch  []storage.Tuple // a run being formed, a join's block or build side
	sorter runSorter
	keys   keyIndex          // the in-memory hash table of a join
	match  [][]storage.Tuple // nlJoinBlock's matches per block tuple
	merge  mergeHeap         // mergeInto's heap
	groups [2]groupCursor    // sortMergeJoin's outer and inner cursors
	// runs keeps the arrays of a sort's runs: [0] a SortRelation's or a
	// sort-merge join's outer's, [1] the join's inner's.
	runs [2][]*storage.Relation
	// parts is the stack of live grace partitions: each recursion level
	// pushes its outer's and inner's partitions and pops them when done.
	parts   []*storage.Relation
	writers []pageWriter    // the partition writers of one partition call
	pageBuf []storage.Tuple // their page buffers, and a merge's
	cols    []string        // a join result's columns, being built
	// qual interns the qualified column names of join results ("o."+c,
	// "i."+c), so a result's columns cost no concatenation.
	qual map[[2]string]string
	// setKeys memoizes the feedback key of each executed join node (see
	// setKey), so a cached plan run again builds none.
	setKeys map[*plan.Node]nodeKey
}

// New builds an engine over a store.
func New(store *storage.Store) *Engine {
	return &Engine{store: store, qual: make(map[[2]string]string), setKeys: make(map[*plan.Node]nodeKey)}
}

// JoinSpec names an equi-join to execute.
type JoinSpec struct {
	Method   cost.JoinMethod
	Outer    string // relation names
	Inner    string
	OuterCol string
	InnerCol string
}

// JoinDetail reports execution-shape facts about one join beyond its I/O
// totals: how deep a grace-hash recursion went, and whether it hit the
// level cap and degenerated to block nested loop (with the I/O those
// fallbacks charged). Zero for every non-grace method.
type JoinDetail struct {
	// GraceLevels is the deepest partitioning level a grace-hash
	// recursion performed (0: the first call joined in memory).
	GraceLevels int
	// GraceFallbacks counts level-cap block-nested-loop fallbacks — a
	// degenerate key distribution, not a costing error.
	GraceFallbacks int
	// GraceFallbackIO is the physical I/O charged inside those fallbacks.
	GraceFallbackIO int64
}

// resetPool returns the engine's buffer pool, emptied and sized to an
// operator's memory budget of mem pages: the state a new pool of mem pages
// has. Every operator entry point calls it before it reads a page.
func (e *Engine) resetPool(mem int) (*buffer.Pool, error) {
	if e.pool == nil {
		p, err := buffer.NewPool(e.store, mem)
		if err != nil {
			return nil, err
		}
		e.pool = p
		return p, nil
	}
	return e.pool, e.pool.Reset(mem)
}

// JoinDetailed executes the spec with the engine's pool reset to mem
// pages, returning the materialized result, the physical I/O incurred and
// the execution-shape detail (grace-hash recursion depth and level-cap
// fallbacks). The result relation has the outer's columns followed by the
// inner's. The call is its own unit of row storage (storage.Store.Settle):
// the result's rows go back to the store when it is dropped.
func (e *Engine) JoinDetailed(spec JoinSpec, mem int) (*storage.Relation, buffer.Stats, JoinDetail, error) {
	out, st, det, err := e.joinDetailed(spec, mem)
	e.store.Settle(out)
	return out, st, det, err
}

// joinDetailed is JoinDetailed inside a unit the caller settles.
func (e *Engine) joinDetailed(spec JoinSpec, mem int) (*storage.Relation, buffer.Stats, JoinDetail, error) {
	var det JoinDetail
	if mem < 3 {
		return nil, buffer.Stats{}, det, fmt.Errorf("%w: %d pages", errBadMemory, mem)
	}
	if !slices.Contains(cost.Methods, spec.Method) {
		return nil, buffer.Stats{}, det, fmt.Errorf("%w: method %v", errBadSpec, spec.Method)
	}
	outer, err := e.store.Get(spec.Outer)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	inner, err := e.store.Get(spec.Inner)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	oc, err := outer.ColIndex(spec.OuterCol)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	ic, err := inner.ColIndex(spec.InnerCol)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	pool, err := e.resetPool(mem)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	result, err := e.newResultRel(outer, inner)
	if err != nil {
		return nil, buffer.Stats{}, det, err
	}
	defer e.release()
	switch spec.Method {
	case cost.SortMerge:
		err = e.sortMergeJoin(pool, outer, inner, oc, ic, result)
	case cost.GraceHash:
		err = e.graceHashJoin(pool, outer, inner, oc, ic, result, 0, &det)
	case cost.PageNL:
		err = e.pageNLJoin(pool, outer, inner, oc, ic, result)
	case cost.BlockNL:
		err = e.blockNLJoin(pool, outer, inner, oc, ic, result)
	}
	if err != nil {
		e.store.Drop(result.Name)
		return nil, pool.Stats(), det, err
	}
	return result, pool.Stats(), det, nil
}

// newResultRel creates the output temp relation (outer cols ++ inner cols,
// disambiguated).
func (e *Engine) newResultRel(outer, inner *storage.Relation) (*storage.Relation, error) {
	e.cols = e.cols[:0]
	for _, c := range outer.Cols {
		e.cols = append(e.cols, e.qualified("o.", c))
	}
	for _, c := range inner.Cols {
		e.cols = append(e.cols, e.qualified("i.", c))
	}
	return e.store.NewTemp("join", e.cols, min(outer.TuplesPerPage, inner.TuplesPerPage))
}

// qualified returns side+col, interned.
func (e *Engine) qualified(side, col string) string {
	k := [2]string{side, col}
	q, ok := e.qual[k]
	if !ok {
		q = side + col
		e.qual[k] = q
	}
	return q
}

// maxSetKeys bounds the setKey memo: past it the memo starts over, so an
// engine that runs ever new plans holds at most this many keys and nodes.
const maxSetKeys = 1024

// nodeKey is a memoized feedback key and the leaf tables it was built from.
type nodeKey struct {
	tables []string
	key    string
}

// setKey returns feedback.SetKey(tables...) for the join node n, whose leaf
// tables are tables. Plans are immutable, shared trees — a cached plan is
// executed again as the same nodes — so the key is built once per node; the
// tables are compared on each use, so a node changed in place gets its key
// rebuilt rather than a stale one.
func (e *Engine) setKey(n *plan.Node, tables []string) string {
	if k, ok := e.setKeys[n]; ok && slices.Equal(k.tables, tables) {
		return k.key
	}
	if len(e.setKeys) >= maxSetKeys {
		clear(e.setKeys)
	}
	k := nodeKey{tables: slices.Clone(tables), key: feedback.SetKey(tables...)}
	e.setKeys[n] = k
	return k.key
}

// emit appends the output row o ++ i. Results bypass the pool: pipelined to
// the consumer, uncharged.
func emit(result *storage.Relation, o, i storage.Tuple) error {
	return result.AppendConcat(o, i)
}

// --- nested loops ---------------------------------------------------------

// pageNLJoin: for each outer page, scan the inner. The pool's LRU makes an
// inner that fits in memory resident after the first pass; a larger inner
// floods the cache and pays the rescan product.
//
// The formula's cheap case keys on S = min(|A|,|B|): it assumes the
// *smaller* side can be made resident. An outer smaller than the inner
// with M ∈ [outer+2, inner+2) therefore joins as one block — the outer is
// read once (it fits the pool), the inner streams once, |A|+|B| physical
// reads — the residency fix for the historical miscalibration where that
// window paid a rescan product the model never charged (observed up to
// 9.35x measured/model on the serving agreement corpus; size feedback
// cannot help because both inputs are base tables with exact sizes). When
// nothing fits, the plan's outer drives one page at a time, so the
// expensive case realizes the formula's |A| + |A|·|B| exactly.
func (e *Engine) pageNLJoin(pool *buffer.Pool, outer, inner *storage.Relation, oc, ic int, result *storage.Relation) error {
	blockPages := 1
	if outer.NumPages() < inner.NumPages() && outer.NumPages()+2 <= pool.Capacity() {
		blockPages = outer.NumPages()
	}
	return e.nlJoinBlocks(pool, outer, inner, oc, ic, result, blockPages)
}

// blockNLJoin reads blocks of M-2 outer pages, then scans the inner once
// per block: |A| + ⌈|A|/(M-2)⌉·|B| by construction.
func (e *Engine) blockNLJoin(pool *buffer.Pool, outer, inner *storage.Relation, oc, ic int, result *storage.Relation) error {
	return e.nlJoinBlocks(pool, outer, inner, oc, ic, result, max(1, pool.Capacity()-2))
}

// nlJoinBlocks is the one nested-loop join: the outer is cut into blocks of
// blockPages pages and the inner streams past each block once. Output rows
// are in the outer's order and keep (outer, inner) column orientation. The
// order matters for correctness, not just accounting: the optimizer's order
// propagation says nested loops preserve the outer's order (dp.go
// joinOutputOrder), and an index-ordered outer may be satisfying the
// query's ORDER BY with no sort enforcer above.
func (e *Engine) nlJoinBlocks(pool *buffer.Pool, outer, inner *storage.Relation, oc, ic int, result *storage.Relation, blockPages int) error {
	for start := 0; start < outer.NumPages(); start += blockPages {
		end := min(start+blockPages, outer.NumPages())
		if err := e.nlJoinBlock(pool, outer, start, end, inner, oc, ic, result); err != nil {
			return err
		}
	}
	return nil
}

// nlJoinBlock joins outer pages [start, end) with the whole inner: hash the
// block, stream the inner once, and emit with matches buffered per outer
// tuple — emitting per inner page would interleave the block's tuples and
// lose the outer's row order.
func (e *Engine) nlJoinBlock(pool *buffer.Pool, outer *storage.Relation, start, end int, inner *storage.Relation, oc, ic int, result *storage.Relation) error {
	var err error
	if e.batch, err = readTuples(pool, outer, start, end, e.batch[:0]); err != nil {
		return err
	}
	byKey := e.keys.build(e.batch, oc)
	matches := slices.Grow(e.match[:0], len(e.batch))[:len(e.batch)]
	for i := range matches {
		matches[i] = matches[i][:0]
	}
	e.match = matches
	for ip := 0; ip < inner.NumPages(); ip++ {
		ipage, err := pool.ReadRel(inner, ip)
		if err != nil {
			return err
		}
		for _, it := range ipage {
			for p := byKey.head(it[ic]); p != 0; p = byKey.next[p-1] {
				matches[p-1] = append(matches[p-1], it)
			}
		}
	}
	for pos, ot := range e.batch {
		for _, it := range matches[pos] {
			if err := emit(result, ot, it); err != nil {
				return err
			}
		}
	}
	return nil
}

// readTuples reads pages [start, end) of rel through the pool and appends
// their tuples, in storage order, to buf.
func readTuples(pool *buffer.Pool, rel *storage.Relation, start, end int, buf []storage.Tuple) ([]storage.Tuple, error) {
	buf = slices.Grow(buf, (end-start)*rel.TuplesPerPage)
	for p := start; p < end; p++ {
		page, err := pool.ReadRel(rel, p)
		if err != nil {
			return nil, err
		}
		buf = append(buf, page...)
	}
	return buf, nil
}

// keyIndex is an in-memory hash table over a slice of tuples: the positions
// holding one key are chained in ascending order. Positions are stored
// plus one, so a missing key reads as the end of a chain:
//
//	for p := ix.head(k); p != 0; p = ix.next[p-1] { t := tuples[p-1] … }
//
// The table is open-addressed with linear probing over a power-of-two slot
// array at least twice the tuple count, and build reuses its arrays, so a
// warmed index hashes without allocating.
type keyIndex struct {
	slots []keySlot
	next  []int32
	shift uint8 // 64 - log2(len(slots))
}

// keySlot is one key's chain head (0: the slot is empty).
type keySlot struct {
	key  int64
	head int32
}

// build indexes tuples on col, replacing what the index held.
func (ix *keyIndex) build(tuples []storage.Tuple, col int) *keyIndex {
	bits := 3
	for 1<<bits < 2*len(tuples) {
		bits++
	}
	n := 1 << bits
	ix.slots = slices.Grow(ix.slots[:0], n)[:n]
	clear(ix.slots)
	ix.shift = uint8(64 - bits)
	ix.next = slices.Grow(ix.next[:0], len(tuples))[:len(tuples)]
	for i := len(tuples) - 1; i >= 0; i-- {
		s := &ix.slots[ix.slot(tuples[i][col])]
		s.key = tuples[i][col]
		ix.next[i] = s.head
		s.head = int32(i + 1)
	}
	return ix
}

// slot returns the slot holding k, or the empty slot where k belongs.
func (ix *keyIndex) slot(k int64) uint64 {
	mask := uint64(len(ix.slots) - 1)
	for i := (uint64(k) * 0x9e3779b97f4a7c15) >> ix.shift; ; i = (i + 1) & mask {
		if s := &ix.slots[i]; s.head == 0 || s.key == k {
			return i
		}
	}
}

// head returns the first position holding k plus one, or 0 when none does.
func (ix *keyIndex) head(k int64) int32 { return ix.slots[ix.slot(k)].head }

// --- external sort --------------------------------------------------------

// makeRuns splits rel into sorted runs of up to mem pages, written through
// the pool (charged), and appends them to runs. Returns the run relations —
// on error too, for the caller's cleanup. The engine's batch buffer and
// sorter serve every run.
func (e *Engine) makeRuns(pool *buffer.Pool, rel *storage.Relation, col int, runs []*storage.Relation) ([]*storage.Relation, error) {
	defer e.release()
	capPages := pool.Capacity()
	for start := 0; start < rel.NumPages(); start += capPages {
		var err error
		if e.batch, err = readTuples(pool, rel, start, min(start+capPages, rel.NumPages()), e.batch[:0]); err != nil {
			return runs, err
		}
		run, err := e.store.NewTemp("run", rel.Cols, rel.TuplesPerPage)
		if err != nil {
			return runs, err
		}
		runs = append(runs, run)
		storage.Reserve(len(e.batch), run)
		if err := writePages(pool, run, e.sorter.sort(e.batch, col)); err != nil {
			return runs, err
		}
	}
	return runs, nil
}

// dropRuns discards spill relations (sorted runs, hash partitions) and
// their cached frames.
func (e *Engine) dropRuns(pool *buffer.Pool, runs []*storage.Relation) {
	for _, r := range runs {
		pool.Invalidate(r)
		e.store.Drop(r.Name)
	}
}

// keepRuns drops runs and returns their slice emptied, for the engine to
// keep for its next sort.
func (e *Engine) keepRuns(pool *buffer.Pool, runs []*storage.Relation) []*storage.Relation {
	e.dropRuns(pool, runs)
	clear(runs)
	return runs[:0]
}

// release clears the engine's buffers of tuple headers once a sort has
// written its pages or a join has read its blocks and build side, so an
// engine that outlives the operator does not keep its input's rows
// reachable. The sorter's key buffers hold no pointers and stay.
func (e *Engine) release() {
	clear(e.batch[:cap(e.batch)])
	clear(e.sorter.out[:cap(e.sorter.out)])
}

// runSorter orders batches of tuples on one column, reusing its buffers
// from batch to batch. It sorts (key, position) pairs and gathers, so no
// tuple header moves during the sort.
type runSorter struct {
	keys, tmp []sortKey
	out       []storage.Tuple
}

// sortKey is a tuple's sort key with its sign bit flipped — unsigned order
// on key is signed order on the column — and its position in the batch.
type sortKey struct {
	key uint64
	pos int32
}

// sort returns the tuples of batch in stable order on col. The result
// aliases the sorter's buffer and is valid until the next call or the
// engine's release.
//
// The pairs start in position order and an LSD radix pass scatters each
// byte bucket in input order, so the sort is stable on the key alone and
// equal keys keep their batch order by construction. Passes run only over
// the bytes in which some two keys differ: a batch whose keys span a few
// thousand values takes two, and one whose keys are all equal takes none.
func (s *runSorter) sort(batch []storage.Tuple, col int) []storage.Tuple {
	n := len(batch)
	keys := slices.Grow(s.keys[:0], n)[:n]
	tmp := slices.Grow(s.tmp[:0], n)[:n]
	var or, and uint64 = 0, ^uint64(0)
	for i, t := range batch {
		k := uint64(t[col]) ^ 1<<63
		keys[i] = sortKey{key: k, pos: int32(i)}
		or |= k
		and &= k
	}
	for shift, differ := 0, or&^and; shift < 64; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var start [256]int
		for _, k := range keys {
			start[byte(k.key>>shift)]++
		}
		sum := 0
		for b, c := range start {
			start[b] = sum
			sum += c
		}
		for _, k := range keys {
			b := byte(k.key >> shift)
			tmp[start[b]] = k
			start[b]++
		}
		keys, tmp = tmp, keys
	}
	s.keys, s.tmp = keys, tmp
	s.out = slices.Grow(s.out[:0], n)
	for _, k := range keys {
		s.out = append(s.out, batch[k.pos])
	}
	return s.out
}

// writePages flushes tuples into rel as full pages through the pool.
func writePages(pool *buffer.Pool, rel *storage.Relation, tuples []storage.Tuple) error {
	tpp := rel.TuplesPerPage
	for start := 0; start < len(tuples); start += tpp {
		if err := pool.AppendRel(rel, tuples[start:min(start+tpp, len(tuples))]); err != nil {
			return err
		}
	}
	return nil
}

// runCursor streams a sorted run page by page through the pool.
type runCursor struct {
	pool *buffer.Pool
	rel  *storage.Relation
	page int
	pos  int
	cur  []storage.Tuple
}

// peek returns the current tuple without advancing, or nil at EOF. It
// reads the run's next page when the current one is used up.
func (c *runCursor) peek() (storage.Tuple, error) {
	for c.cur == nil || c.pos >= len(c.cur) {
		if c.page >= c.rel.NumPages() {
			return nil, nil
		}
		page, err := c.pool.ReadRel(c.rel, c.page)
		if err != nil {
			return nil, err
		}
		c.cur = page
		c.pos = 0
		c.page++
	}
	return c.cur[c.pos], nil
}

// mergeHeap is the k-way merge over sorted runs: a min-heap of run cursors
// keyed by (head key, run index), so equal keys leave in run order. It
// reads exactly the pages a linear scan over the cursors reads, in the same
// order: open loads each run's first page in run order, and a cursor reads
// its next page only when the caller peeks it to re-key it.
type mergeHeap struct {
	col  int
	runs []runCursor
	heap []heapItem
}

type heapItem struct {
	key int64
	run int32
}

func (a heapItem) less(b heapItem) bool {
	return a.key < b.key || a.key == b.key && a.run < b.run
}

// reset points the heap at runs, reusing its arrays; open starts the
// merge.
func (h *mergeHeap) reset(pool *buffer.Pool, runs []*storage.Relation, col int) {
	h.col = col
	h.runs = slices.Grow(h.runs[:0], len(runs))[:len(runs)]
	for i, r := range runs {
		h.runs[i] = runCursor{pool: pool, rel: r}
	}
	h.heap = h.heap[:0]
}

// open peeks every run in run order and heapifies their heads.
func (h *mergeHeap) open() error {
	h.heap = h.heap[:0]
	for i := range h.runs {
		t, err := h.runs[i].peek()
		if err != nil {
			return err
		}
		if t != nil {
			h.heap = append(h.heap, heapItem{key: t[h.col], run: int32(i)})
		}
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return nil
}

// top returns the cursor holding the smallest head.
func (h *mergeHeap) top() *runCursor { return &h.runs[h.heap[0].run] }

// rekey gives the top cursor its new head t, or drops it at EOF (t nil).
// The caller peeks t after consuming the old head, so the cursor reads its
// next page exactly where a linear scan over the cursors read it.
func (h *mergeHeap) rekey(t storage.Tuple) {
	if t == nil {
		last := len(h.heap) - 1
		h.heap[0] = h.heap[last]
		h.heap = h.heap[:last]
		if last == 0 {
			return
		}
	} else {
		h.heap[0].key = t[h.col]
	}
	h.down(0)
}

func (h *mergeHeap) down(i int) {
	item, n := h.heap[i], len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.heap[r].less(h.heap[c]) {
			c = r
		}
		if !h.heap[c].less(item) {
			break
		}
		h.heap[i] = h.heap[c]
		i = c
	}
	h.heap[i] = item
}

// mergeRuns merges sorted runs until at most maxRuns remain, with merge
// fan-in M-1. Each step merges only as many runs as needed to close the
// gap (merging k runs reduces the count by k-1), so memory increases can
// never increase total merge I/O. Intermediate merged runs are written
// through the pool (charged). The shortest runs merge first, the classic
// polyphase-style policy that minimizes pages rewritten. The returned runs
// are every spill relation still alive, on error too, so the caller's
// cleanup covers them.
func (e *Engine) mergeRuns(pool *buffer.Pool, runs []*storage.Relation, col int, maxRuns int) ([]*storage.Relation, error) {
	fanIn := max(2, pool.Capacity()-1)
	maxRuns = max(1, maxRuns)
	for len(runs) > maxRuns {
		k := min(len(runs)-maxRuns+1, fanIn)
		sortRunsByPages(runs)
		group := runs[:k]
		merged, err := e.store.NewTemp("merge", group[0].Cols, group[0].TuplesPerPage)
		if err != nil {
			return runs, err
		}
		tuples := 0
		for _, r := range group {
			tuples += r.NumTuples()
		}
		storage.Reserve(tuples, merged)
		e.pageBuf = slices.Grow(e.pageBuf[:0], merged.TuplesPerPage)
		w := &pageWriter{pool: pool, rel: merged, buf: e.pageBuf}
		err = e.mergeInto(pool, group, col, w.add)
		if err == nil {
			err = w.flush()
		}
		if err != nil {
			return append(runs, merged), err
		}
		e.dropRuns(pool, group)
		runs = append(runs[:copy(runs, runs[k:])], merged)
	}
	return runs, nil
}

// sortRunsByPages orders runs ascending by size (insertion sort: run
// counts are small).
func sortRunsByPages(runs []*storage.Relation) {
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].NumPages() < runs[j-1].NumPages(); j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
}

// pageWriter batches tuples into full pages written through the pool
// (each flushed page is one charged write).
type pageWriter struct {
	pool *buffer.Pool
	rel  *storage.Relation
	buf  []storage.Tuple
}

func (w *pageWriter) add(t storage.Tuple) error {
	w.buf = append(w.buf, t)
	if len(w.buf) >= w.rel.TuplesPerPage {
		return w.flush()
	}
	return nil
}

func (w *pageWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.pool.AppendRel(w.rel, w.buf)
	w.buf = w.buf[:0]
	return err
}

// mergeInto k-way merges the runs on col, invoking out per tuple in order:
// each tuple is consumed and handed to out before its run reads on.
func (e *Engine) mergeInto(pool *buffer.Pool, runs []*storage.Relation, col int, out func(storage.Tuple) error) error {
	h := &e.merge
	h.reset(pool, runs, col)
	if err := h.open(); err != nil {
		return err
	}
	for len(h.heap) > 0 {
		c := h.top()
		t := c.cur[c.pos]
		c.pos++
		if err := out(t); err != nil {
			return err
		}
		next, err := c.peek()
		if err != nil {
			return err
		}
		h.rekey(next)
	}
	return nil
}

// SortRelation externally sorts a stored relation on col with a fresh pool
// of mem pages, returning the materialized sorted relation (final output
// uncharged — pipelined) and the I/O incurred. The sorted tuples are the
// input's own rows, so they stay valid while the input's do. The call is
// its own unit of row storage (storage.Store.Settle).
func (e *Engine) SortRelation(name, col string, mem int) (*storage.Relation, buffer.Stats, error) {
	out, st, err := e.sortRelation(name, col, mem)
	e.store.Settle(out)
	return out, st, err
}

// sortRelation is SortRelation inside a unit the caller settles.
func (e *Engine) sortRelation(name, col string, mem int) (*storage.Relation, buffer.Stats, error) {
	if mem < 3 {
		return nil, buffer.Stats{}, fmt.Errorf("%w: %d pages", errBadMemory, mem)
	}
	rel, err := e.store.Get(name)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	ci, err := rel.ColIndex(col)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	pool, err := e.resetPool(mem)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	out, err := e.store.NewTemp("sorted", rel.Cols, rel.TuplesPerPage)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	if err := e.sortInto(pool, rel, ci, out); err != nil {
		e.store.Drop(out.Name)
		return nil, pool.Stats(), err
	}
	return out, pool.Stats(), nil
}

// sortInto runs the external sort of rel on column ci into out, dropping
// every run it spilled whether or not it succeeds.
func (e *Engine) sortInto(pool *buffer.Pool, rel *storage.Relation, ci int, out *storage.Relation) error {
	runs := e.runs[0]
	defer func() { e.runs[0] = e.keepRuns(pool, runs) }()
	storage.Reserve(rel.NumTuples(), out)
	var err error
	if runs, err = e.makeRuns(pool, rel, ci, runs); err != nil {
		return err
	}
	if runs, err = e.mergeRuns(pool, runs, ci, max(2, pool.Capacity()-1)); err != nil {
		return err
	}
	// Final merge pipelines into the materialized output (uncharged).
	return e.mergeInto(pool, runs, ci, func(t storage.Tuple) error {
		return out.Append(t)
	})
}
