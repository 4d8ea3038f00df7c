// Package storage implements the synthetic paged storage layer beneath the
// mini execution engine: relations as arrays of fixed-capacity pages of
// integer tuples, plus deterministic data generators with controllable
// join selectivity. The engine layers a buffer pool (internal/buffer) on
// top and counts page I/Os against it; storage itself is the "disk".
package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
)

// Errors.
var (
	ErrDupRelation = errors.New("storage: duplicate relation")
	ErrNoRelation  = errors.New("storage: no such relation")
	ErrNoColumn    = errors.New("storage: no such column")
	ErrBadPage     = errors.New("storage: page index out of range")
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
	// store, when Reserve set one, backs the pages (see Reserve).
	store *pageStore
	// slab backs the rows AppendConcat builds: one allocation per page of
	// rows. It is only ever extended or replaced, never rewritten, so rows
	// already handed out stay valid for as long as anything references
	// them.
	slab []int64
}

// NewRelation builds an empty relation.
func NewRelation(name string, cols []string, tuplesPerPage int) (*Relation, error) {
	if name == "" || len(cols) == 0 || tuplesPerPage <= 0 {
		return nil, ErrBadSchema
	}
	for i, c := range cols {
		if c == "" || slices.Contains(cols[:i], c) {
			return nil, fmt.Errorf("%w: bad column %q", ErrBadSchema, c)
		}
	}
	return &Relation{Name: name, Cols: append([]string(nil), cols...), TuplesPerPage: tuplesPerPage}, nil
}

// ColIndex returns the position of a column.
func (r *Relation) ColIndex(name string) (int, error) {
	for i, c := range r.Cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %s.%s", ErrNoColumn, r.Name, name)
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
		return nil, fmt.Errorf("%w: %s[%d] of %d", ErrBadPage, r.Name, i, len(r.pages))
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
// in the relation's slab instead of a fresh allocation per row. Each row is
// a full-slice expression of the slab, so appending to one can never write
// into its neighbour.
func (r *Relation) AppendConcat(o, i Tuple) error {
	w := len(o) + len(i)
	if w != len(r.Cols) {
		return fmt.Errorf("%w: tuple width %d vs %d columns", ErrBadSchema, w, len(r.Cols))
	}
	if len(r.slab)+w > cap(r.slab) {
		r.slab = make([]int64, 0, w*r.TuplesPerPage)
	}
	n := len(r.slab)
	r.slab = append(append(r.slab, o...), i...)
	r.appendRow(r.slab[n : n+w : n+w])
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

// pageStore is page storage one or more relations cut their pages from.
type pageStore struct{ free []Tuple }

// Reserve gives rels one shared page storage of exactly tuples slots, in
// one allocation, and sizes each relation's page list for an even share.
// It is for writers that know how many tuples they will write in all: a
// sorted run (its batch), a merged run (the sum of its inputs), the hash
// partitions of one input (that input). Pages are cut from the storage as
// they are appended, each a full-slice expression, so appending to a page
// can never write into another, and the storage is only ever cut, never
// rewritten. A relation that outgrows its reservation, or never had one,
// allocates page by page.
func Reserve(tuples int, rels ...*Relation) {
	store := &pageStore{free: make([]Tuple, tuples)}
	for _, r := range rels {
		r.store = store
		r.pages = slices.Grow(r.pages, (tuples/len(rels)+r.TuplesPerPage-1)/r.TuplesPerPage)
	}
}

// take returns an empty page of capacity n, cut from the reserved storage
// while it lasts. Fewer than n slots left make the tail page: it gets them
// all, and an append past them reallocates.
func (r *Relation) take(n int) []Tuple {
	if r.store == nil || len(r.store.free) == 0 {
		return make([]Tuple, 0, n)
	}
	n = min(n, len(r.store.free))
	page := r.store.free[:0:n]
	r.store.free = r.store.free[n:]
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
type Store struct {
	rels    map[string]*Relation
	indexes map[string]*Index
	tempSeq int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{rels: make(map[string]*Relation), indexes: make(map[string]*Index)}
}

// Add registers a relation.
func (s *Store) Add(r *Relation) error {
	if _, ok := s.rels[r.Name]; ok {
		return fmt.Errorf("%w: %s", ErrDupRelation, r.Name)
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

// Drop removes a relation (no-op if absent).
func (s *Store) Drop(name string) {
	delete(s.rels, name)
}

// NewTemp creates a uniquely named temporary relation (spill runs, hash
// partitions, intermediate results).
func (s *Store) NewTemp(prefix string, cols []string, tuplesPerPage int) (*Relation, error) {
	s.tempSeq++
	name := prefix + "#" + strconv.Itoa(s.tempSeq)
	r, err := NewRelation(name, cols, tuplesPerPage)
	if err != nil {
		return nil, err
	}
	if err := s.Add(r); err != nil {
		return nil, err
	}
	return r, nil
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
