// Package buffer implements a page buffer pool with LRU replacement over
// the storage layer. Every page the execution engine touches flows through
// a Pool, which counts physical reads and writes — the "measured I/O" that
// experiment E15 compares against the paper's analytic cost formulas.
package buffer

import (
	"errors"
	"fmt"
	"slices"

	"lecopt/internal/storage"
)

// Errors.
var (
	errBadCapacity = errors.New("buffer: capacity must be positive")
)

// Stats aggregates physical I/O counters.
type Stats struct {
	Reads  int64 // pages fetched from storage (cache misses)
	Writes int64 // pages written to storage
	Hits   int64 // cache hits
}

// IO returns total physical page transfers (the paper's cost unit).
func (s Stats) IO() int64 { return s.Reads + s.Writes }

// Pool is an LRU page cache. The capacity is the operator's memory budget
// M in pages: an inner relation that fits stays cached across rescans,
// reproducing the nested-loop formula's S+2 discontinuity; sequential
// floods larger than the capacity evict themselves, reproducing the
// multi-pass behaviour of external sort and hash partitioning.
//
// Frames live in one slice linked by index (head = most recent) and are
// found through a per-relation page table — a slice of frame indices — so
// a read is a slice lookup and caching or evicting a page is a slice store;
// the only map is keyed by the relation's pointer and is consulted when the
// relation changes from one call to the next. Everything grows on demand —
// an "unbounded" budget is a capacity of MaxInt32 that must cost nothing
// until pages arrive.
//
// Pointer identity is unique among live relations, but a store recycles a
// dropped temp's Relation for a later temp, so a pointer names one relation
// only between its NewTemp and its Drop. A page is never mistaken for
// another's because no table outlives its relation: a temp's frames are
// invalidated before it is dropped, and Reset, which every operator calls
// before it reads a page, forgets every table. A pool that is reused
// without Reset must invalidate each temp it touched before dropping it.
//
// Reset makes one pool serve operator after operator: it keeps the frame
// slice and the page tables' frame slices, so a warmed pool caches and
// evicts without allocating.
type Pool struct {
	store    *storage.Store
	capacity int
	tables   map[*storage.Relation]*pageTable
	live     []*pageTable // the tables of p.tables, in creation order
	spare    []*pageTable // forgotten tables, frame slices kept for reuse
	last     *pageTable   // table of the relation touched last
	frames   []frame
	head     int32 // most recently used, none when the pool is empty
	tail     int32 // least recently used
	free     int32 // invalidated frames, chained through next
	resident int
	stats    Stats
}

// pageTable maps one relation's page numbers to their frames.
type pageTable struct {
	rel   *storage.Relation
	frame []int32 // frame per page, none when not resident
}

type frame struct {
	tab        *pageTable
	idx        int
	page       []storage.Tuple
	prev, next int32
}

const none int32 = -1

// NewPool builds a pool with the given page capacity.
func NewPool(store *storage.Store, capacity int) (*Pool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: %d", errBadCapacity, capacity)
	}
	return &Pool{
		store: store, capacity: capacity,
		tables: make(map[*storage.Relation]*pageTable),
		head:   none, tail: none, free: none,
	}, nil
}

// Reset empties the pool and gives it a new capacity, leaving exactly the
// state NewPool(store, capacity) leaves — no resident frame, no page table,
// zeroed Stats — and the same error for a capacity that is not positive
// (the pool is then unchanged). It keeps the memory of the frames and page
// tables for the pages to come.
func (p *Pool) Reset(capacity int) error {
	if capacity <= 0 {
		return fmt.Errorf("%w: %d", errBadCapacity, capacity)
	}
	for _, t := range p.live {
		p.recycle(t)
	}
	p.live = p.live[:0]
	clear(p.tables)
	clear(p.frames)
	p.frames = p.frames[:0]
	p.capacity, p.last = capacity, nil
	p.head, p.tail, p.free = none, none, none
	p.resident, p.stats = 0, Stats{}
	return nil
}

// recycle forgets a page table's relation and keeps its frame slice for the
// next relation the pool touches.
func (p *Pool) recycle(t *pageTable) {
	t.rel, t.frame = nil, t.frame[:0]
	p.spare = append(p.spare, t)
}

// Capacity returns the pool's page capacity.
func (p *Pool) Capacity() int { return p.capacity }

// Stats returns a copy of the I/O counters.
func (p *Pool) Stats() Stats { return p.stats }

// Read fetches a page by relation name, counting a physical read on a
// miss.
func (p *Pool) Read(rel string, idx int) ([]storage.Tuple, error) {
	r, err := p.store.Get(rel)
	if err != nil {
		return nil, err
	}
	return p.ReadRel(r, idx)
}

// ReadRel is Read for a caller that already holds the relation — the
// engine's loops, which would otherwise resolve the same name per page.
func (p *Pool) ReadRel(r *storage.Relation, idx int) ([]storage.Tuple, error) {
	t := p.table(r)
	if f := t.lookup(idx); f != none {
		p.touch(f)
		p.stats.Hits++
		return p.frames[f].page, nil
	}
	page, err := r.Page(idx)
	if err != nil {
		return nil, err
	}
	p.stats.Reads++
	p.insert(t, idx, page)
	return page, nil
}

// AppendPage writes a page to the tail of the named relation
// (write-through: one physical write), and caches it.
func (p *Pool) AppendPage(rel string, page []storage.Tuple) error {
	r, err := p.store.Get(rel)
	if err != nil {
		return err
	}
	return p.AppendRel(r, page)
}

// AppendRel is AppendPage for a caller that already holds the relation.
// The cached frame is the relation's own stored copy of the page, never
// the caller's slice: callers (pageWriter in particular) reuse the slice
// they pass in, and a frame aliasing a reused buffer mutates in place — a
// corruption that only surfaces when the frame survives in the LRU until
// the page is re-read, which is exactly what happens at low partition
// fan-outs. Stored pages are append-only, and Read aliases them already.
func (p *Pool) AppendRel(r *storage.Relation, page []storage.Tuple) error {
	if err := r.AppendPage(page); err != nil {
		return err
	}
	p.stats.Writes++
	idx := r.NumPages() - 1
	stored, err := r.Page(idx)
	if err != nil {
		return err
	}
	p.insert(p.table(r), idx, stored)
	return nil
}

// Invalidate drops any cached pages of a relation (call before dropping a
// temporary, so its frames stop counting against the capacity and stop
// holding its pages).
func (p *Pool) Invalidate(r *storage.Relation) {
	t := p.tables[r]
	if t == nil {
		return
	}
	for _, f := range t.frame {
		if f != none {
			p.unlink(f)
			p.frames[f] = frame{next: p.free}
			p.free = f
			p.resident--
		}
	}
	delete(p.tables, t.rel)
	if i := slices.Index(p.live, t); i >= 0 {
		p.live = slices.Delete(p.live, i, i+1)
	}
	p.recycle(t)
	if p.last == t {
		p.last = nil
	}
}

// table returns the relation's page table, creating it on first touch.
func (p *Pool) table(r *storage.Relation) *pageTable {
	if p.last != nil && p.last.rel == r {
		return p.last
	}
	t := p.tables[r]
	if t == nil {
		if n := len(p.spare); n > 0 {
			t, p.spare = p.spare[n-1], p.spare[:n-1]
			t.rel = r
		} else {
			t = &pageTable{rel: r}
		}
		p.tables[r] = t
		p.live = append(p.live, t)
	}
	p.last = t
	return t
}

func (t *pageTable) lookup(idx int) int32 {
	if uint(idx) < uint(len(t.frame)) {
		return t.frame[idx]
	}
	return none
}

// insert caches a page as the most recent frame, evicting the least recent
// one when the pool is full.
func (p *Pool) insert(t *pageTable, idx int, page []storage.Tuple) {
	if f := t.lookup(idx); f != none {
		p.frames[f].page = page
		p.touch(f)
		return
	}
	var f int32
	switch {
	case p.resident >= p.capacity:
		f = p.tail
		p.unlink(f)
		p.frames[f].tab.frame[p.frames[f].idx] = none
	case p.free != none:
		f = p.free
		p.free = p.frames[f].next
		p.resident++
	default:
		f = int32(len(p.frames))
		p.frames = append(p.frames, frame{})
		p.resident++
	}
	p.frames[f] = frame{tab: t, idx: idx, page: page}
	p.pushFront(f)
	for len(t.frame) <= idx {
		t.frame = append(t.frame, none)
	}
	t.frame[idx] = f
}

// touch moves a resident frame to the front of the LRU order.
func (p *Pool) touch(f int32) {
	if p.head != f {
		p.unlink(f)
		p.pushFront(f)
	}
}

func (p *Pool) unlink(f int32) {
	fr := &p.frames[f]
	if fr.prev != none {
		p.frames[fr.prev].next = fr.next
	} else {
		p.head = fr.next
	}
	if fr.next != none {
		p.frames[fr.next].prev = fr.prev
	} else {
		p.tail = fr.prev
	}
}

func (p *Pool) pushFront(f int32) {
	fr := &p.frames[f]
	fr.prev, fr.next = none, p.head
	if p.head != none {
		p.frames[p.head].prev = f
	} else {
		p.tail = f
	}
	p.head = f
}
