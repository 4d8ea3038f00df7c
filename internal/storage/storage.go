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
	"sort"
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

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	return append(Tuple(nil), t...)
}

// Relation is a paged table: pages of at most tuplesPerPage tuples.
type Relation struct {
	Name          string
	Cols          []string
	TuplesPerPage int
	pages         [][]Tuple
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
	seen := map[string]bool{}
	for _, c := range cols {
		if c == "" || seen[c] {
			return nil, fmt.Errorf("%w: bad column %q", ErrBadSchema, c)
		}
		seen[c] = true
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
		r.pages = append(r.pages, make([]Tuple, 0, r.TuplesPerPage))
	}
	last := len(r.pages) - 1
	r.pages[last] = append(r.pages[last], t)
}

// AppendPage adds a pre-built page verbatim (used when spilling runs).
func (r *Relation) AppendPage(page []Tuple) error {
	if len(page) > r.TuplesPerPage {
		return fmt.Errorf("%w: page of %d tuples exceeds capacity %d", ErrBadSchema, len(page), r.TuplesPerPage)
	}
	for _, t := range page {
		if len(t) != len(r.Cols) {
			return fmt.Errorf("%w: tuple width %d vs %d columns", ErrBadSchema, len(t), len(r.Cols))
		}
	}
	r.pages = append(r.pages, append([]Tuple(nil), page...))
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
	name := fmt.Sprintf("%s#%d", prefix, s.tempSeq)
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
