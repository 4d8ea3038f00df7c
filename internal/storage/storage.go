// Package storage implements the synthetic paged storage layer beneath the
// mini execution engine: relations as arrays of fixed-capacity pages of
// integer tuples, plus deterministic data generators with controllable
// join selectivity. The engine layers a buffer pool (internal/buffer) on
// top and counts page I/Os against it; storage itself is the "disk".
//
// A Store recycles the temporaries it makes (NewTemp): dropping one hands
// its Relation and its page headers back for later temps, so a dropped
// temp must not be read again. The rows a temp builds (AppendConcat) are
// recycled by unit: the rows of the temps dropped during one execution go
// back with the execution's output (Settle), so a tuple read from a temp
// stays valid until the output of its execution is dropped.
package storage

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Errors.
var (
	errDupRelation = errors.New("storage: duplicate relation")
	ErrNoRelation  = errors.New("storage: no such relation")
	errNoColumn    = errors.New("storage: no such column")
	errBadPage     = errors.New("storage: page index out of range")
	ErrBadSchema   = errors.New("storage: invalid schema")
)

// Tuple is a fixed-width row of integer attributes.
type Tuple []int64

// Relation is a paged table: pages of at most tuplesPerPage tuples.
type Relation struct {
	Name          string
	Cols          []string
	TuplesPerPage int
	pages         [][]Tuple
	// owner is the store that made the relation with NewTemp (nil for any
	// other relation): its page headers are cut from that store's slabs and
	// go back to it when the temp is dropped.
	owner *Store
	// hdr is the slab pages are being cut from; slabs is every slab the
	// relation holds pages in, released when it is dropped. grow is the
	// size of the next slab an unreserved temp draws.
	hdr   *slab
	slabs []*slab
	grow  int
	// rows backs the rows AppendConcat builds. It is only ever extended or
	// replaced — by a slab twice the size, up to maxRowSlabPages pages of
	// rows — and never rewritten while the relation or its unit's output
	// is live, so rows already handed out stay valid until then. A temp
	// draws its row slabs from its store and lists them in rowSlabs; a
	// settled output (see Store.Settle) also lists there the slabs of the
	// temps its execution dropped, and they all go back with it.
	rows     []int64
	rowSlabs [][]int64
	settled  bool
}

// maxRowSlabPages bounds the geometric growth of a relation's row slabs
// and of an unreserved temp's header slabs.
const maxRowSlabPages = 64

// NewRelation builds an empty relation.
func NewRelation(name string, cols []string, tuplesPerPage int) (*Relation, error) {
	if name == "" {
		return nil, ErrBadSchema
	}
	if err := checkSchema(cols, tuplesPerPage); err != nil {
		return nil, err
	}
	return &Relation{Name: name, Cols: append([]string(nil), cols...), TuplesPerPage: tuplesPerPage}, nil
}

func checkSchema(cols []string, tuplesPerPage int) error {
	if len(cols) == 0 || tuplesPerPage <= 0 {
		return ErrBadSchema
	}
	for i, c := range cols {
		if c == "" || slices.Contains(cols[:i], c) {
			return fmt.Errorf("%w: bad column %q", ErrBadSchema, c)
		}
	}
	return nil
}

// ColIndex returns the position of a column.
func (r *Relation) ColIndex(name string) (int, error) {
	for i, c := range r.Cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %s.%s", errNoColumn, r.Name, name)
}

// NumPages returns the page count.
func (r *Relation) NumPages() int { return len(r.pages) }

// NumTuples returns the total tuple count.
func (r *Relation) NumTuples() int {
	n := 0
	for _, p := range r.pages {
		n += len(p)
	}
	return n
}

// Page returns the raw page (no I/O accounting; the buffer pool is the
// accounted path).
func (r *Relation) Page(i int) ([]Tuple, error) {
	if i < 0 || i >= len(r.pages) {
		return nil, fmt.Errorf("%w: %s[%d] of %d", errBadPage, r.Name, i, len(r.pages))
	}
	return r.pages[i], nil
}

// Append adds tuples, filling the last page before opening new ones.
func (r *Relation) Append(tuples ...Tuple) error {
	for _, t := range tuples {
		if len(t) != len(r.Cols) {
			return fmt.Errorf("%w: tuple width %d vs %d columns", ErrBadSchema, len(t), len(r.Cols))
		}
		r.appendRow(t)
	}
	return nil
}

// AppendConcat appends the row o ++ i — a join's output row — building it
// in the relation's row slab instead of a fresh allocation per row. Each
// row is a full-slice expression of the slab, so appending to one can never
// write into its neighbour.
func (r *Relation) AppendConcat(o, i Tuple) error {
	w := len(o) + len(i)
	if w != len(r.Cols) {
		return fmt.Errorf("%w: tuple width %d vs %d columns", ErrBadSchema, w, len(r.Cols))
	}
	if len(r.rows)+w > cap(r.rows) {
		page := w * r.TuplesPerPage
		n := min(max(page, 2*cap(r.rows)), maxRowSlabPages*page)
		if r.owner == nil {
			r.rows = make([]int64, 0, n)
		} else {
			r.rows = r.owner.drawRows(n)
			r.rowSlabs = append(r.rowSlabs, r.rows)
		}
	}
	n := len(r.rows)
	r.rows = append(append(r.rows, o...), i...)
	r.appendRow(r.rows[n : n+w : n+w])
	return nil
}

// appendRow adds one width-checked row, opening a new page when the last is
// full.
func (r *Relation) appendRow(t Tuple) {
	if n := len(r.pages); n == 0 || len(r.pages[n-1]) >= r.TuplesPerPage {
		r.pages = append(r.pages, r.take(r.TuplesPerPage))
	}
	last := len(r.pages) - 1
	r.pages[last] = append(r.pages[last], t)
}

// slab is page-header storage — the Tuple slots pages are cut from — that
// one or more relations share.
type slab struct {
	buf  []Tuple // the whole storage
	free []Tuple // the part not yet cut
	// refs counts the relations that cut pages from the slab; a temp's
	// slab goes back to its store when the last of them is dropped.
	refs int
	// reserved marks a Reserve slab, whose last slots make a short tail
	// page; an unreserved temp moves on to a fresh slab instead.
	reserved bool
}

// Reserve gives rels one shared page storage of exactly tuples slots and
// sizes each relation's page list for an even share. It is for writers
// that know how many tuples they will write in all: a sorted run (its
// batch), a merged run (the sum of its inputs), the hash partitions of one
// input (that input). Pages are cut from the storage as they are appended,
// each a full-slice expression, so appending to a page can never write
// into another, and the storage is only ever cut, never rewritten while a
// relation holds pages in it. Temps of one store (NewTemp) draw the storage
// from that store's recycled slabs, and it goes back, cleared, when the
// last of rels is dropped — none of them may be read after its drop; any
// other relation gets a new allocation that is never recycled. A relation
// that outgrows its reservation goes on as an unreserved one (see take).
func Reserve(tuples int, rels ...*Relation) {
	var h *slab
	if s := rels[0].owner; s != nil {
		h = s.draw(tuples)
	} else {
		h = &slab{buf: make([]Tuple, tuples)}
	}
	h.free, h.refs, h.reserved = h.buf[:tuples], len(rels), true
	for _, r := range rels {
		r.hdr = h
		r.slabs = append(r.slabs, h)
		r.pages = slices.Grow(r.pages, (tuples/len(rels)+r.TuplesPerPage-1)/r.TuplesPerPage)
	}
}

// take returns an empty page of capacity n, cut from the relation's slab
// while it lasts. From a reserved slab, fewer than n slots left make the
// tail page: it gets them all, and an append past them reallocates. An
// unreserved temp then draws a fresh slab from its store, each twice the
// last up to maxRowSlabPages pages; any other relation allocates page by
// page.
func (r *Relation) take(n int) []Tuple {
	h := r.hdr
	if h == nil || len(h.free) == 0 || len(h.free) < n && !h.reserved {
		if r.owner == nil {
			return make([]Tuple, 0, n)
		}
		h = r.owner.draw(max(n, r.grow))
		h.free, h.refs = h.buf, 1
		r.grow = min(2*len(h.buf), maxRowSlabPages*r.TuplesPerPage)
		r.hdr = h
		r.slabs = append(r.slabs, h)
	}
	n = min(n, len(h.free))
	page := h.free[:0:n]
	h.free = h.free[n:]
	return page
}

// AppendPage adds a copy of a pre-built page (used when spilling runs), in
// the relation's own page storage: the caller may reuse its slice.
func (r *Relation) AppendPage(page []Tuple) error {
	if len(page) > r.TuplesPerPage {
		return fmt.Errorf("%w: page of %d tuples exceeds capacity %d", ErrBadSchema, len(page), r.TuplesPerPage)
	}
	for _, t := range page {
		if len(t) != len(r.Cols) {
			return fmt.Errorf("%w: tuple width %d vs %d columns", ErrBadSchema, len(t), len(r.Cols))
		}
	}
	r.pages = append(r.pages, append(r.take(len(page)), page...))
	return nil
}

// AllTuples flattens the relation (testing helper; no I/O accounting).
func (r *Relation) AllTuples() []Tuple {
	out := make([]Tuple, 0, r.NumTuples())
	for _, p := range r.pages {
		out = append(out, p...)
	}
	return out
}

// Store is a named collection of relations — the "disk" — plus the
// registry of indexes built over them (see index.go).
//
// A store recycles its temps: Drop hands a temp's Relation and its page
// header slabs back to the store, and later NewTemp, Reserve and page
// appends draw from them. A dropped temp must not be read again: its pages
// read as cleared, and its Relation may already be another temp's. Rows
// go back by unit, not by temp: a sorted output's tuples point into the
// rows of the join temp under it, which its execution drops first. So the
// row slabs of a dropped temp wait until the unit is settled (Settle) and
// go back with that unit's output, and a tuple read from a temp stays
// valid until the output of its execution is dropped.
type Store struct {
	rels    map[string]*Relation
	indexes map[string]*Index
	tempSeq int
	// spare holds dropped temps' Relations by name prefix, each keeping
	// its name: a recycled temp needs no new name.
	spare map[string][]*Relation
	// free holds released header slabs by size class: class c holds slabs
	// of 1<<c slots. A slab is allocated only when its class has none
	// free, so a store never keeps more slabs of a class than its live
	// temps once held at the same time: the free list is bounded by the
	// largest working set of temps, not by how many temps were made.
	free [][]*slab
	// rowFree holds released row slabs the same way: class c holds slabs
	// of 1<<c values. dropped holds the row slabs of the temps dropped
	// since the last Settle, which that Settle hands on.
	rowFree [][][]int64
	dropped [][]int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{rels: make(map[string]*Relation), indexes: make(map[string]*Index), spare: make(map[string][]*Relation)}
}

// Add registers a relation.
func (s *Store) Add(r *Relation) error {
	if _, ok := s.rels[r.Name]; ok {
		return fmt.Errorf("%w: %s", errDupRelation, r.Name)
	}
	s.rels[r.Name] = r
	return nil
}

// Get returns a relation.
func (s *Store) Get(name string) (*Relation, error) {
	r, ok := s.rels[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRelation, name)
	}
	return r, nil
}

// Drop removes a relation (no-op if absent). Dropping a temp of this store
// recycles it: its page headers are cleared and go back to the store, and
// its Relation, name included, may be handed out by a later NewTemp. Its
// rows go back too if it is a settled output; any other temp's wait for
// the next Settle. The caller must hold nothing of a dropped temp but rows
// read from it, and those only until its unit's output is dropped.
func (s *Store) Drop(name string) {
	r, ok := s.rels[name]
	if !ok {
		return
	}
	delete(s.rels, name)
	if r.owner != s {
		return
	}
	for _, h := range r.slabs {
		if h.refs--; h.refs == 0 {
			s.release(h)
		}
	}
	if r.settled {
		s.releaseRows(r.rowSlabs)
	} else {
		s.dropped = append(s.dropped, r.rowSlabs...)
	}
	clear(r.slabs)
	clear(r.pages)
	clear(r.rowSlabs)
	r.slabs, r.pages, r.hdr, r.grow = r.slabs[:0], r.pages[:0], nil, 0
	r.rows, r.rowSlabs, r.settled = nil, r.rowSlabs[:0], false
	prefix := r.Name[:strings.LastIndexByte(r.Name, '#')]
	s.spare[prefix] = append(s.spare[prefix], r)
}

// NewTemp creates a uniquely named temporary relation (spill runs, hash
// partitions, intermediate results), recycling a dropped temp of the same
// prefix when there is one. Its name is unique among the store's live
// relations; like the Relation itself, it may name a later temp once this
// one is dropped, so a dropped temp must not be read again, by pointer or
// by name.
func (s *Store) NewTemp(prefix string, cols []string, tuplesPerPage int) (*Relation, error) {
	var r *Relation
	if spare := s.spare[prefix]; len(spare) > 0 {
		if err := checkSchema(cols, tuplesPerPage); err != nil {
			return nil, err
		}
		r = spare[len(spare)-1]
		spare[len(spare)-1] = nil
		s.spare[prefix] = spare[:len(spare)-1]
		r.Cols, r.TuplesPerPage = append(r.Cols[:0], cols...), tuplesPerPage
	} else {
		s.tempSeq++
		var err error
		if r, err = NewRelation(prefix+"#"+strconv.Itoa(s.tempSeq), cols, tuplesPerPage); err != nil {
			return nil, err
		}
		r.owner = s
	}
	if err := s.Add(r); err != nil {
		return nil, err
	}
	return r, nil
}

// draw returns a cleared header slab of at least n slots: a released one of
// n's size class, or a new one.
func (s *Store) draw(n int) *slab {
	c := bits.Len(uint(max(n, 1) - 1))
	if c < len(s.free) && len(s.free[c]) > 0 {
		list := s.free[c]
		s.free[c] = list[:len(list)-1]
		return list[len(list)-1]
	}
	return &slab{buf: make([]Tuple, 1<<c)}
}

// release clears a slab no relation holds pages in and keeps it for reuse.
func (s *Store) release(h *slab) {
	clear(h.buf)
	h.free, h.reserved = nil, false
	c := bits.Len(uint(len(h.buf) - 1))
	for len(s.free) <= c {
		s.free = append(s.free, nil)
	}
	s.free[c] = append(s.free[c], h)
}

// Settle closes a unit of row storage — one execution, or one direct
// operator call — whose output is out: the row slabs of the temps dropped
// since the last Settle, which out's tuples may point into, go back to the
// store with out's own when out is dropped. If out is nil (the execution
// failed and dropped its temps) or not a live temp of s, they go back now.
func (s *Store) Settle(out *Relation) {
	if out != nil && out.owner == s && s.rels[out.Name] == out {
		out.rowSlabs = append(out.rowSlabs, s.dropped...)
		out.settled = true
	} else {
		s.releaseRows(s.dropped)
	}
	clear(s.dropped)
	s.dropped = s.dropped[:0]
}

// drawRows returns an empty row slab of capacity at least n: a released
// one of n's size class, or a new one.
func (s *Store) drawRows(n int) []int64 {
	c := bits.Len(uint(max(n, 1) - 1))
	if c < len(s.rowFree) && len(s.rowFree[c]) > 0 {
		list := s.rowFree[c]
		s.rowFree[c] = list[:len(list)-1]
		return list[len(list)-1]
	}
	return make([]int64, 0, 1<<c)
}

// releaseRows keeps row slabs no live relation reads for reuse.
func (s *Store) releaseRows(slabs [][]int64) {
	for _, rows := range slabs {
		c := bits.Len(uint(cap(rows) - 1))
		for len(s.rowFree) <= c {
			s.rowFree = append(s.rowFree, nil)
		}
		s.rowFree[c] = append(s.rowFree[c], rows[:0])
	}
}

// Names returns all relation names, sorted (diagnostics).
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- generators ----------------------------------------------------------

// GenSpec controls synthetic relation generation.
type GenSpec struct {
	Name          string
	Pages         int
	TuplesPerPage int
	// KeyRange draws the "k" column uniformly from [0, KeyRange); a join
	// between two relations with the same KeyRange has row selectivity
	// ≈ 1/KeyRange.
	KeyRange int64
	// Payload columns beyond "k" are filled with rng noise.
	PayloadCols int
}

// Generate builds a relation per spec with deterministic rng data. Columns
// are "k", then "p0", "p1", ...
func Generate(spec GenSpec, rng *rand.Rand) (*Relation, error) {
	if spec.Pages <= 0 || spec.TuplesPerPage <= 0 || spec.KeyRange <= 0 {
		return nil, fmt.Errorf("%w: non-positive generation spec", ErrBadSchema)
	}
	cols := []string{"k"}
	for i := 0; i < spec.PayloadCols; i++ {
		cols = append(cols, fmt.Sprintf("p%d", i))
	}
	rel, err := NewRelation(spec.Name, cols, spec.TuplesPerPage)
	if err != nil {
		return nil, err
	}
	n := spec.Pages * spec.TuplesPerPage
	for i := 0; i < n; i++ {
		t := make(Tuple, len(cols))
		t[0] = rng.Int63n(spec.KeyRange)
		for j := 1; j < len(cols); j++ {
			t[j] = rng.Int63()
		}
		if err := rel.Append(t); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// GenerateSorted is Generate with the relation pre-sorted on "k" —
// convenient for building clustered-index-like inputs.
func GenerateSorted(spec GenSpec, rng *rand.Rand) (*Relation, error) {
	rel, err := Generate(spec, rng)
	if err != nil {
		return nil, err
	}
	all := rel.AllTuples()
	sort.Slice(all, func(i, j int) bool { return all[i][0] < all[j][0] })
	out, err := NewRelation(spec.Name, rel.Cols, spec.TuplesPerPage)
	if err != nil {
		return nil, err
	}
	for _, t := range all {
		if err := out.Append(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}
