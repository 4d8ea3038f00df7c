package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lecopt/internal/buffer"
	"lecopt/internal/storage"
)

// FuzzRunSorter checks the radix run sorter against slices.SortStableFunc
// on the sort column: the same tuples, in the same order, ties included.
// shape picks the key width in bytes (1, 2 or 8, sign-extended, so narrow
// keys are dense with ties and negatives), the tuple width (1–3 columns)
// and the sort column; reps repeats the keys to reach long, tie-heavy
// inputs from short ones. Every input is sorted twice with one sorter —
// whole, then its first half — so reused buffers are checked too.
func FuzzRunSorter(f *testing.F) {
	var extremes []byte
	for _, k := range []int64{math.MaxInt64, -1, math.MinInt64, 0, 1, math.MinInt64, math.MaxInt64} {
		extremes = binary.LittleEndian.AppendUint64(extremes, uint64(k))
	}
	f.Add(extremes, uint8(2), uint8(0))
	f.Add(extremes, uint8(2), uint8(9)) // 70 keys
	f.Add([]byte{7, 7, 7, 7}, uint8(0), uint8(15))
	f.Add([]byte{0x80, 0x7f, 0xff, 0, 1, 0xfe, 3}, uint8(15), uint8(0)) // sort column 1 of 3
	for _, n := range []int{1, 2, 33} {
		f.Add([]byte(fmt.Sprintf("%0*d", n, int64(31415926535))), uint8(0), uint8(0))
	}
	spread := make([]byte, 0, 2*64)
	for i := range 64 {
		spread = binary.LittleEndian.AppendUint16(spread, uint16(i*1_201%1_200))
	}
	f.Add(spread, uint8(1), uint8(7)) // the bench keys' 1 200-value range, 512 tuples
	f.Fuzz(func(t *testing.T, data []byte, shape, reps uint8) {
		keyBytes := []int{1, 2, 8}[shape%3]
		width := 1 + int(shape/3)%3
		col := int(shape/9) % width
		var keys []int64
		for i := 0; i+keyBytes <= len(data); i += keyBytes {
			var v uint64
			for j := keyBytes - 1; j >= 0; j-- {
				v = v<<8 | uint64(data[i+j])
			}
			shift := 64 - 8*keyBytes
			keys = append(keys, int64(v<<shift)>>shift)
		}
		batch := make([]storage.Tuple, len(keys)*(1+int(reps%16)))
		for i := range batch {
			tuple := make(storage.Tuple, width)
			for c := range tuple {
				tuple[c] = int64(i)
			}
			tuple[col] = keys[i%len(keys)]
			batch[i] = tuple
		}
		var s runSorter
		for _, in := range [][]storage.Tuple{batch, batch[:len(batch)/2]} {
			want := slices.Clone(in)
			slices.SortStableFunc(want, func(a, b storage.Tuple) int { return cmp.Compare(a[col], b[col]) })
			got := s.sort(in, col)
			if len(got) != len(want) {
				t.Fatalf("%d tuples sorted to %d", len(want), len(got))
			}
			for i := range want {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("n=%d col %d: position %d holds %v, stable order %v", len(in), col, i, got[i], want[i])
				}
			}
		}
	})
}

// newMergeHeap is a merge heap of its own over runs.
func newMergeHeap(pool *buffer.Pool, runs []*storage.Relation, col int) mergeHeap {
	var h mergeHeap
	h.reset(pool, runs, col)
	return h
}

// newGroupCursor is a group cursor of its own over runs.
func newGroupCursor(pool *buffer.Pool, runs []*storage.Relation, col int) *groupCursor {
	g := new(groupCursor)
	g.reset(pool, runs, col)
	return g
}

// linearMergeInto is the k-way merge the heap replaced, kept as its
// reference: per tuple, one scan over every cursor for the smallest head,
// the first run winning a tie; the tuple is consumed and handed to out, and
// the next scan reads on.
func linearMergeInto(pool *buffer.Pool, runs []*storage.Relation, col int, out func(storage.Tuple) error) error {
	cursors := newMergeHeap(pool, runs, col).runs
	for {
		best := -1
		var bt storage.Tuple
		for i := range cursors {
			t, err := cursors[i].peek()
			if err != nil {
				return err
			}
			if t != nil && (best < 0 || t[col] < bt[col]) {
				best, bt = i, t
			}
		}
		if best < 0 {
			return nil
		}
		cursors[best].pos++
		if err := out(bt); err != nil {
			return err
		}
	}
}

// linearGroups is the group cursor the heap replaced, kept as its
// reference: one scan over every cursor for the smallest head, then each
// run in run order gives up its tuples with that key.
type linearGroups struct {
	cursors []runCursor
	col     int
	group   []storage.Tuple
}

func (g *linearGroups) nextGroup() (int64, []storage.Tuple, error) {
	minSet := false
	var minKey int64
	for i := range g.cursors {
		t, err := g.cursors[i].peek()
		if err != nil {
			return 0, nil, err
		}
		if t != nil && (!minSet || t[g.col] < minKey) {
			minSet, minKey = true, t[g.col]
		}
	}
	if !minSet {
		return 0, nil, nil
	}
	g.group = g.group[:0]
	for i := range g.cursors {
		c := &g.cursors[i]
		for {
			t, err := c.peek()
			if err != nil {
				return 0, nil, err
			}
			if t == nil || t[g.col] != minKey {
				break
			}
			c.pos++
			g.group = append(g.group, t)
		}
	}
	return minKey, g.group, nil
}

// sortedBatches draws one sorted batch per size (in tuples; 0 is an empty
// run). Keys come from [0, keyRange), so equal keys span runs; column 1
// numbers the tuples.
func sortedBatches(rng *rand.Rand, sizes []int, keyRange int64) [][]storage.Tuple {
	batches := make([][]storage.Tuple, len(sizes))
	for b, n := range sizes {
		for i := range n {
			batches[b] = append(batches[b], storage.Tuple{rng.Int63n(keyRange), int64(b<<16 | i)})
		}
		slices.SortStableFunc(batches[b], func(x, y storage.Tuple) int { return cmp.Compare(x[0], y[0]) })
	}
	return batches
}

// spill writes each batch as a run of tpp-tuple pages through the pool, as
// makeRuns does, so the pool holds run pages when a merge starts.
func spill(t *testing.T, s *storage.Store, pool *buffer.Pool, batches [][]storage.Tuple, tpp int) []*storage.Relation {
	t.Helper()
	runs := make([]*storage.Relation, len(batches))
	for i, b := range batches {
		r, err := s.NewTemp("run", []string{"k", "id"}, tpp)
		if err != nil {
			t.Fatal(err)
		}
		if err := writePages(pool, r, b); err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	return runs
}

// TestMergeHeapMatchesLinearScan: at every memory from 3 pages to more than
// the runs hold, the heap merge and the heap group cursors emit the same
// tuples in the same order as the linear scans they replaced, and leave the
// pool with the same counters — so they read and write the same pages in
// the same LRU order. Runs are spilled through the pool first, as makeRuns
// spills them, so which run pages are still resident depends on that
// order. The merge writes its output through the pool, as mergeRuns does;
// the group cursors are driven in pairs over one pool, as sortMergeJoin
// drives them, which is what pins the lazy open.
func TestMergeHeapMatchesLinearScan(t *testing.T) {
	const tpp = 3
	rng := rand.New(rand.NewSource(31))
	s := storage.NewStore()
	e := New(s)
	outer := sortedBatches(rng, []int{17, 0, 40, 5, 23, 0, 31, 1}, 12)
	inner := sortedBatches(rng, []int{29, 0, 12, 44}, 12)
	pages := 0
	for _, b := range append(slices.Clone(outer), inner...) {
		pages += (len(b) + tpp - 1) / tpp
	}
	type merger func(*buffer.Pool, []*storage.Relation, int, func(storage.Tuple) error) error
	merge := func(mem int, m merger) ([]storage.Tuple, buffer.Stats) {
		pool, err := buffer.NewPool(s, mem)
		if err != nil {
			t.Fatal(err)
		}
		runs := spill(t, s, pool, outer, tpp)
		defer e.dropRuns(pool, runs)
		out, err := s.NewTemp("merged", runs[0].Cols, tpp)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drop(out.Name)
		w := &pageWriter{pool: pool, rel: out}
		if err := m(pool, runs, 0, w.add); err != nil {
			t.Fatal(err)
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		return out.AllTuples(), pool.Stats()
	}
	type grouper interface {
		nextGroup() (int64, []storage.Tuple, error)
	}
	// join logs every matched group pair the way sortMergeJoin walks them.
	join := func(mem int, cursor func(*buffer.Pool, []*storage.Relation) grouper) ([]storage.Tuple, buffer.Stats) {
		pool, err := buffer.NewPool(s, mem)
		if err != nil {
			t.Fatal(err)
		}
		oRuns, iRuns := spill(t, s, pool, outer, tpp), spill(t, s, pool, inner, tpp)
		defer e.dropRuns(pool, oRuns)
		defer e.dropRuns(pool, iRuns)
		og, ig := cursor(pool, oRuns), cursor(pool, iRuns)
		next := func(g grouper) (int64, []storage.Tuple) {
			k, group, err := g.nextGroup()
			if err != nil {
				t.Fatal(err)
			}
			return k, group
		}
		var log []storage.Tuple
		oKey, oGroup := next(og)
		iKey, iGroup := next(ig)
		for oGroup != nil && iGroup != nil {
			switch {
			case oKey < iKey:
				oKey, oGroup = next(og)
			case oKey > iKey:
				iKey, iGroup = next(ig)
			default:
				log = append(append(log, oGroup...), iGroup...)
				oKey, oGroup = next(og)
				iKey, iGroup = next(ig)
			}
		}
		return log, pool.Stats()
	}
	heapGroups := func(pool *buffer.Pool, runs []*storage.Relation) grouper { return newGroupCursor(pool, runs, 0) }
	linGroups := func(pool *buffer.Pool, runs []*storage.Relation) grouper {
		return &linearGroups{cursors: newMergeHeap(pool, runs, 0).runs}
	}
	same := func(what string, mem int, got, want []storage.Tuple, gotSt, wantSt buffer.Stats) {
		t.Helper()
		if gotSt != wantSt {
			t.Fatalf("%s at %d pages: heap stats %+v, linear scan %+v", what, mem, gotSt, wantSt)
		}
		if len(got) != len(want) {
			t.Fatalf("%s at %d pages: heap gives %d tuples, linear scan %d", what, mem, len(got), len(want))
		}
		for i := range want {
			if got[i][1] != want[i][1] {
				t.Fatalf("%s at %d pages: tuple %d is %v, linear scan %v", what, mem, i, got[i], want[i])
			}
		}
	}
	for mem := 3; mem <= pages+3; mem++ {
		got, gotSt := merge(mem, e.mergeInto)
		want, wantSt := merge(mem, linearMergeInto)
		if len(want) != 117 {
			t.Fatalf("reference merge lost tuples: %d", len(want))
		}
		same("merge", mem, got, want, gotSt, wantSt)
		got, gotSt = join(mem, heapGroups)
		want, wantSt = join(mem, linGroups)
		same("groups", mem, got, want, gotSt, wantSt)
	}
	if leaked := len(s.Names()); leaked != 0 {
		t.Fatalf("%d relations left in the store", leaked)
	}
}
