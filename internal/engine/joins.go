package engine

import (
	"slices"

	"lecopt/internal/buffer"
	"lecopt/internal/cost"
	"lecopt/internal/storage"
)

// sortMergeJoin is the classic two-phase implementation: build sorted runs
// of each input (read input, write runs — both charged), then merge-join
// all runs directly (each run page read once) when the combined fan-in
// fits; otherwise pre-merge the larger side first. Equal-key groups are
// buffered in memory to produce the full many-to-many cross product.
func (e *Engine) sortMergeJoin(pool *buffer.Pool, outer, inner *storage.Relation, oc, ic int, result *storage.Relation) error {
	oRuns, iRuns := e.runs[0], e.runs[1]
	defer func() {
		e.runs[0] = e.keepRuns(pool, oRuns)
		e.runs[1] = e.keepRuns(pool, iRuns)
	}()
	var err error
	if oRuns, err = e.makeRuns(pool, outer, oc, oRuns); err != nil {
		return err
	}
	if iRuns, err = e.makeRuns(pool, inner, ic, iRuns); err != nil {
		return err
	}
	// Pre-merge until both run sets fit the merge fan-in together.
	fanIn := max(2, pool.Capacity()-1)
	for len(oRuns)+len(iRuns) > fanIn {
		// Merge the side with more runs down to whatever share of the
		// fan-in the other side leaves free (at least one run), so each
		// pass strictly reduces the total until it fits.
		if len(oRuns) >= len(iRuns) {
			oRuns, err = e.mergeRuns(pool, oRuns, oc, max(1, fanIn-len(iRuns)))
		} else {
			iRuns, err = e.mergeRuns(pool, iRuns, ic, max(1, fanIn-len(oRuns)))
		}
		if err != nil {
			return err
		}
	}
	og, ig := &e.groups[0], &e.groups[1]
	og.reset(pool, oRuns, oc)
	ig.reset(pool, iRuns, ic)
	oKey, oGroup, err := og.nextGroup()
	if err != nil {
		return err
	}
	iKey, iGroup, err := ig.nextGroup()
	if err != nil {
		return err
	}
	for oGroup != nil && iGroup != nil {
		switch {
		case oKey < iKey:
			oKey, oGroup, err = og.nextGroup()
		case oKey > iKey:
			iKey, iGroup, err = ig.nextGroup()
		default:
			for _, ot := range oGroup {
				for _, it := range iGroup {
					if err := emit(result, ot, it); err != nil {
						return err
					}
				}
			}
			oKey, oGroup, err = og.nextGroup()
			if err != nil {
				return err
			}
			iKey, iGroup, err = ig.nextGroup()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// groupCursor yields runs of equal keys from a k-way merge over sorted
// runs. It opens on its first nextGroup, not when reset, so the outer's
// and the inner's first pages are read in the order the join asks for
// their first groups.
type groupCursor struct {
	merge  mergeHeap
	opened bool
	group  []storage.Tuple // reused from one nextGroup call to the next
}

// reset points the cursor at runs, reusing its arrays.
func (g *groupCursor) reset(pool *buffer.Pool, runs []*storage.Relation, col int) {
	g.merge.reset(pool, runs, col)
	g.opened = false
	g.group = g.group[:0]
}

// nextGroup returns the smallest remaining key and every tuple carrying
// it, run by run in run order, or (0, nil) at EOF. The group aliases the
// cursor's buffer and is valid until this cursor's next call.
func (g *groupCursor) nextGroup() (int64, []storage.Tuple, error) {
	h := &g.merge
	if !g.opened {
		g.opened = true
		if err := h.open(); err != nil {
			return 0, nil, err
		}
	}
	if len(h.heap) == 0 {
		return 0, nil, nil
	}
	key := h.heap[0].key
	g.group = g.group[:0]
	for len(h.heap) > 0 && h.heap[0].key == key {
		c := h.top()
		for {
			t, err := c.peek()
			if err != nil {
				return 0, nil, err
			}
			if t == nil || t[h.col] != key {
				h.rekey(t)
				break
			}
			c.pos++
			g.group = append(g.group, t)
		}
	}
	return key, g.group, nil
}

// graceHashJoin partitions both inputs by a level-salted hash of the join
// key (read input, write partitions — charged), then joins partition
// pairs: a pair whose smaller side fits in memory is joined by building an
// in-memory hash table (both sides read once); otherwise it recurses with
// another partitioning level, which is what produces the extra passes
// below the √S memory threshold. det (never nil) accumulates the
// recursion shape — deepest partitioning level and any level-cap
// fallbacks with their I/O — so callers can tell "model wrong" from
// "engine degenerated".
func (e *Engine) graceHashJoin(pool *buffer.Pool, outer, inner *storage.Relation, oc, ic int, result *storage.Relation, level int, det *JoinDetail) error {
	if level > 8 {
		// Degenerate key distribution: finish with block nested loop,
		// booking the occurrence and its I/O for the phase ledger.
		before := pool.Stats().IO()
		err := e.blockNLJoin(pool, outer, inner, oc, ic, result)
		det.GraceFallbacks++
		det.GraceFallbackIO += pool.Stats().IO() - before
		return err
	}
	small := inner
	if outer.NumPages() < inner.NumPages() {
		small = outer
	}
	// Build side fits: hash join in memory (pages for table ≈ pages of the
	// smaller input + 2 for streaming frames).
	if small.NumPages()+2 <= pool.Capacity() {
		return e.inMemHashJoin(pool, outer, inner, oc, ic, result)
	}
	// Partition count comes from the cost model's shared GraceFanOut —
	// the same function ModelEngine charges with, so the realized fan-out
	// and the charged fan-out cannot silently diverge.
	fanOut := int(cost.GraceFanOut(int64(small.NumPages()), int64(pool.Capacity())))
	if level+1 > det.GraceLevels {
		det.GraceLevels = level + 1
	}
	// This level's partitions sit on the engine's stack above mark, the
	// outer's then the inner's; the deeper levels pop theirs before
	// returning.
	mark := len(e.parts)
	defer func() {
		e.dropRuns(pool, e.parts[mark:])
		clear(e.parts[mark:])
		e.parts = e.parts[:mark]
	}()
	oParts, err := e.partition(pool, outer, oc, fanOut, level)
	if err != nil {
		return err
	}
	iParts, err := e.partition(pool, inner, ic, fanOut, level)
	if err != nil {
		return err
	}
	for i := range oParts {
		if oParts[i].NumPages() == 0 || iParts[i].NumPages() == 0 {
			continue
		}
		if err := e.graceHashJoin(pool, oParts[i], iParts[i], oc, ic, result, level+1, det); err != nil {
			return err
		}
	}
	return nil
}

// inMemHashJoin builds a hash table over the smaller input and probes with
// the larger: each side read exactly once.
func (e *Engine) inMemHashJoin(pool *buffer.Pool, outer, inner *storage.Relation, oc, ic int, result *storage.Relation) error {
	buildOuter := outer.NumPages() <= inner.NumPages()
	build, probe := outer, inner
	bc, pc := oc, ic
	if !buildOuter {
		build, probe = inner, outer
		bc, pc = ic, oc
	}
	var err error
	if e.batch, err = readTuples(pool, build, 0, build.NumPages(), e.batch[:0]); err != nil {
		return err
	}
	buildTuples := e.batch
	table := e.keys.build(buildTuples, bc)
	for p := 0; p < probe.NumPages(); p++ {
		page, err := pool.ReadRel(probe, p)
		if err != nil {
			return err
		}
		for _, pt := range page {
			for b := table.head(pt[pc]); b != 0; b = table.next[b-1] {
				bt := buildTuples[b-1]
				var err error
				if buildOuter {
					err = emit(result, bt, pt)
				} else {
					err = emit(result, pt, bt)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// partition hashes rel into fanOut temp partitions (salted by level so
// recursive levels re-split), writing partition pages through the pool.
// The partitions are pushed on the engine's partition stack, where the
// caller's cleanup finds them, on error too.
func (e *Engine) partition(pool *buffer.Pool, rel *storage.Relation, col, fanOut, level int) ([]*storage.Relation, error) {
	start := len(e.parts)
	tpp := rel.TuplesPerPage
	writers := slices.Grow(e.writers[:0], fanOut)[:fanOut]
	e.writers = writers
	bufs := slices.Grow(e.pageBuf[:0], fanOut*tpp)[:fanOut*tpp] // one page buffer per writer
	e.pageBuf = bufs
	for i := range writers {
		p, err := e.store.NewTemp("part", rel.Cols, tpp)
		if err != nil {
			return nil, err
		}
		e.parts = append(e.parts, p)
		writers[i] = pageWriter{pool: pool, rel: p, buf: bufs[i*tpp : i*tpp : (i+1)*tpp]}
	}
	parts := e.parts[start:len(e.parts):len(e.parts)]
	storage.Reserve(rel.NumTuples(), parts...)
	for pg := 0; pg < rel.NumPages(); pg++ {
		page, err := pool.ReadRel(rel, pg)
		if err != nil {
			return parts, err
		}
		for _, t := range page {
			idx := hashKey(t[col], level) % uint64(fanOut)
			if err := writers[idx].add(t); err != nil {
				return parts, err
			}
		}
	}
	for i := range writers {
		if err := writers[i].flush(); err != nil {
			return parts, err
		}
	}
	return parts, nil
}

// hashKey hashes a join key with a per-recursion-level salt. The FNV sum
// alone is NOT usable here: reduced mod a power-of-two fanout (capacity-1
// is 4, 8, or 16 at the common memory levels) its low bits respond to the
// salt byte as a constant rotation, so re-partitioning a bucket at the
// next level moved every key to the same new bucket — the bucket never
// split, recursion always hit the level cap, and the block-nested-loop
// fallback ran at 3-page memory. The murmur3 finalizer avalanches the
// salt through all 64 bits so each level's bucket assignment is
// independent of the previous level's.
//
// The FNV-1a sum is computed inline (salt byte, then the key's eight bytes
// low-first) rather than through hash/fnv, which would allocate a hasher
// per partitioned tuple.
func hashKey(k int64, level int) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	x := (uint64(fnvOffset) ^ uint64(byte(level))) * fnvPrime
	for v, i := uint64(k), 0; i < 8; i++ {
		x = (x ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
