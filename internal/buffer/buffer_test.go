package buffer

import (
	"container/list"
	"errors"
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/storage"
)

func setup(t *testing.T, pages, tpp int) (*storage.Store, *storage.Relation) {
	t.Helper()
	s := storage.NewStore()
	r, err := storage.NewRelation("r", []string{"k"}, tpp)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < int64(pages*tpp); i++ {
		if err := r.Append(storage.Tuple{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add(r); err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestNewPoolValidation(t *testing.T) {
	s, _ := setup(t, 1, 1)
	if _, err := NewPool(s, 0); !errors.Is(err, errBadCapacity) {
		t.Fatal("zero capacity")
	}
}

func TestReadCountsAndCaches(t *testing.T) {
	s, _ := setup(t, 4, 2)
	p, err := NewPool(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Read("r", i); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Reads != 4 || st.Hits != 0 {
		t.Fatalf("cold reads: %+v", st)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Read("r", i); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Reads != 4 || st.Hits != 4 {
		t.Fatalf("warm reads: %+v", st)
	}
	if st := p.Stats(); st.IO() != 4 {
		t.Fatalf("IO = %d", st.IO())
	}
	if p.resident != 4 {
		t.Fatalf("resident = %d", p.resident)
	}
}

func TestLRUEviction(t *testing.T) {
	s, _ := setup(t, 5, 2)
	p, err := NewPool(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustRead := func(i int) {
		t.Helper()
		if _, err := p.Read("r", i); err != nil {
			t.Fatal(err)
		}
	}
	mustRead(0)
	mustRead(1)
	mustRead(2) // evicts page 0
	if p.Cached("r", 0) {
		t.Fatal("page 0 should be evicted")
	}
	if !p.Cached("r", 1) || !p.Cached("r", 2) {
		t.Fatal("pages 1,2 should be resident")
	}
	mustRead(1) // refresh 1
	mustRead(3) // evicts 2 (LRU), not 1
	if p.Cached("r", 2) || !p.Cached("r", 1) {
		t.Fatal("LRU order wrong")
	}
	if p.resident != 2 {
		t.Fatalf("resident = %d", p.resident)
	}
}

// Sequential flooding: scanning n > capacity pages repeatedly gets no hits —
// the behaviour that reproduces the nested-loop thrash regime.
func TestSequentialFlooding(t *testing.T) {
	s, _ := setup(t, 6, 2)
	p, err := NewPool(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 6; i++ {
			if _, err := p.Read("r", i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := p.Stats(); st.Hits != 0 || st.Reads != 18 {
		t.Fatalf("flooding should yield zero hits: %+v", st)
	}
}

func TestAppendPageCountsWrite(t *testing.T) {
	s, _ := setup(t, 1, 2)
	tmp, err := s.NewTemp("t", []string{"k"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AppendPage(tmp.Name, []storage.Tuple{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Writes != 1 {
		t.Fatalf("writes = %d", st.Writes)
	}
	// The appended page is cached: reading it back is a hit.
	if _, err := p.Read(tmp.Name, 0); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 || st.Reads != 0 {
		t.Fatalf("write-through caching: %+v", st)
	}
	if err := p.AppendPage("absent", nil); err == nil {
		t.Fatal("append to missing relation should fail")
	}
}

func TestInvalidate(t *testing.T) {
	s, r := setup(t, 3, 2)
	p, err := NewPool(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Read("r", i); err != nil {
			t.Fatal(err)
		}
	}
	p.Invalidate(r)
	if p.resident != 0 {
		t.Fatal("invalidate should drop all frames")
	}
	if _, err := p.Read("r", 0); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Reads != 4 {
		t.Fatalf("re-read after invalidate should miss: %+v", st)
	}
}

func TestReadErrors(t *testing.T) {
	s, _ := setup(t, 2, 2)
	p, _ := NewPool(s, 2)
	if _, err := p.Read("absent", 0); err == nil {
		t.Fatal("missing relation")
	}
	if _, err := p.Read("r", 99); err == nil {
		t.Fatal("bad page index")
	}
}

func TestResetStats(t *testing.T) {
	s, _ := setup(t, 2, 2)
	p, _ := NewPool(s, 2)
	if _, err := p.Read("r", 0); err != nil {
		t.Fatal(err)
	}
	p.stats = Stats{}
	if st := p.Stats(); st.Reads != 0 || st.Hits != 0 || st.Writes != 0 {
		t.Fatalf("reset failed: %+v", st)
	}
	// Cache content survives reset: next read is a hit.
	if _, err := p.Read("r", 0); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("cache should survive reset: %+v", st)
	}
}

// refPool is the reference the pool is checked against: the textbook
// container/list LRU keyed by (relation name, page).
type refPool struct {
	store    *storage.Store
	capacity int
	frames   map[refKey]*list.Element
	lru      *list.List // front = most recent
	stats    Stats
}

type refKey struct {
	rel string
	idx int
}

func (p *refPool) read(rel string, idx int) error {
	if el, ok := p.frames[refKey{rel, idx}]; ok {
		p.lru.MoveToFront(el)
		p.stats.Hits++
		return nil
	}
	r, err := p.store.Get(rel)
	if err != nil {
		return err
	}
	if _, err := r.Page(idx); err != nil {
		return err
	}
	p.stats.Reads++
	p.insert(refKey{rel, idx})
	return nil
}

// appended books a page the pool under test has just written.
func (p *refPool) appended(rel string, idx int) {
	p.stats.Writes++
	p.insert(refKey{rel, idx})
}

func (p *refPool) insert(k refKey) {
	if el, ok := p.frames[k]; ok {
		p.lru.MoveToFront(el)
		return
	}
	if p.lru.Len() >= p.capacity {
		delete(p.frames, p.lru.Remove(p.lru.Back()).(refKey))
	}
	p.frames[k] = p.lru.PushFront(k)
}

func (p *refPool) invalidate(rel string) {
	for el := p.lru.Front(); el != nil; {
		next := el.Next()
		if k := el.Value.(refKey); k.rel == rel {
			delete(p.frames, p.lru.Remove(el).(refKey))
		}
		el = next
	}
}

// TestPoolMatchesListLRU drives the pool and the reference through the same
// random Read/AppendPage/Invalidate sequence — several relations, some
// growing, capacities from 1 up — and requires equal counters, equal
// residency and equal page contents after every operation.
func TestPoolMatchesListLRU(t *testing.T) {
	for capacity := 1; capacity <= 9; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity)))
		s := storage.NewStore()
		names := []string{"a", "b", "c", "d"}
		for i, name := range names {
			r, err := storage.NewRelation(name, []string{"k"}, 2)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < 2*(i+1)*3; v++ { // 3, 6, 9, 12 pages
				if err := r.Append(storage.Tuple{int64(100*i + v)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		p, err := NewPool(s, capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refPool{store: s, capacity: capacity, frames: map[refKey]*list.Element{}, lru: list.New()}
		for op := 0; op < 1500; op++ {
			name := names[rng.Intn(len(names))]
			rel, _ := s.Get(name)
			switch x := rng.Intn(20); {
			case x < 14: // read, occasionally out of range
				idx := rng.Intn(rel.NumPages() + 1)
				page, err := p.Read(name, idx)
				if rerr := ref.read(name, idx); (err == nil) != (rerr == nil) {
					t.Fatalf("cap %d op %d: Read(%s,%d) err %v, reference %v", capacity, op, name, idx, err, rerr)
				}
				if err == nil {
					if want, _ := rel.Page(idx); len(page) != len(want) || &page[0] != &want[0] {
						t.Fatalf("cap %d op %d: Read(%s,%d) is not the stored page", capacity, op, name, idx)
					}
				}
			case x < 18:
				if err := p.AppendPage(name, []storage.Tuple{{int64(op)}}); err != nil {
					t.Fatal(err)
				}
				ref.appended(name, rel.NumPages()-1)
			case x < 19:
				p.Invalidate(rel)
				ref.invalidate(name)
			default:
				if err := p.AppendPage("absent", nil); err == nil {
					t.Fatal("append to a missing relation succeeded")
				}
			}
			if p.Stats() != ref.stats || p.resident != ref.lru.Len() {
				t.Fatalf("cap %d op %d: stats %+v resident %d, reference %+v resident %d",
					capacity, op, p.Stats(), p.resident, ref.stats, ref.lru.Len())
			}
			for _, n := range names {
				r, _ := s.Get(n)
				for idx := 0; idx < r.NumPages(); idx++ {
					if _, want := ref.frames[refKey{n, idx}]; p.Cached(n, idx) != want {
						t.Fatalf("cap %d op %d: Cached(%s,%d) = %v, reference %v", capacity, op, n, idx, !want, want)
					}
				}
			}
		}
	}
}

// TestAppendDoesNotAliasCallerBuffer: the PR 7 corruption. A writer appends
// from a buffer it then reuses; the cached frame must keep the page as
// written, not follow the buffer.
func TestAppendDoesNotAliasCallerBuffer(t *testing.T) {
	s, _ := setup(t, 1, 2)
	tmp, err := s.NewTemp("t", []string{"k"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := []storage.Tuple{{1}, {2}}
	if err := p.AppendRel(tmp, buf); err != nil {
		t.Fatal(err)
	}
	buf[0], buf[1] = storage.Tuple{7}, storage.Tuple{8}
	if err := p.AppendRel(tmp, buf[:1]); err != nil {
		t.Fatal(err)
	}
	page, err := p.ReadRel(tmp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 || st.Reads != 0 {
		t.Fatalf("page 0 should still be cached: %+v", st)
	}
	if len(page) != 2 || page[0][0] != 1 || page[1][0] != 2 {
		t.Fatalf("cached page followed the caller's buffer: %v", page)
	}
}

// TestReadHitAllocatesNothing: a warm hit through the pointer path is pure
// bookkeeping.
func TestReadHitAllocatesNothing(t *testing.T) {
	s, r := setup(t, 4, 2)
	p, err := NewPool(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.ReadRel(r, i); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		if _, err := p.ReadRel(r, i%4); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("ReadRel hit allocates %v times", n)
	}
}

// TestUnboundedCapacityCostsNothingUpFront: MaxInt32 is a legitimate
// capacity (an infinite memory budget); frames must appear only as pages
// arrive.
func TestUnboundedCapacityCostsNothingUpFront(t *testing.T) {
	s, r := setup(t, 3, 2)
	p, err := NewPool(s, math.MaxInt32)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 3; i++ {
			if _, err := p.ReadRel(r, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := p.Stats(); st.Reads != 3 || st.Hits != 3 || p.resident != 3 {
		t.Fatalf("stats %+v resident %d", st, p.resident)
	}
}

// Cached reports whether a page is currently resident.
func (p *Pool) Cached(rel string, idx int) bool {
	r, err := p.store.Get(rel)
	if err != nil {
		return false
	}
	t := p.tables[r]
	return t != nil && t.lookup(idx) != none
}
