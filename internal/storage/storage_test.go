package storage

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation("", []string{"a"}, 4); !errors.Is(err, ErrBadSchema) {
		t.Fatal("empty name")
	}
	if _, err := NewRelation("r", nil, 4); !errors.Is(err, ErrBadSchema) {
		t.Fatal("no columns")
	}
	if _, err := NewRelation("r", []string{"a"}, 0); !errors.Is(err, ErrBadSchema) {
		t.Fatal("zero tpp")
	}
	if _, err := NewRelation("r", []string{"a", "a"}, 4); !errors.Is(err, ErrBadSchema) {
		t.Fatal("dup column")
	}
	if _, err := NewRelation("r", []string{""}, 4); !errors.Is(err, ErrBadSchema) {
		t.Fatal("empty column")
	}
}

func TestAppendAndPaging(t *testing.T) {
	r, err := NewRelation("r", []string{"k", "v"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := r.Append(Tuple{i, i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	if r.NumPages() != 4 || r.NumTuples() != 10 {
		t.Fatalf("pages=%d tuples=%d", r.NumPages(), r.NumTuples())
	}
	p, err := r.Page(3)
	if err != nil || len(p) != 1 {
		t.Fatalf("last page: %v %v", p, err)
	}
	if _, err := r.Page(4); !errors.Is(err, errBadPage) {
		t.Fatal("out of range")
	}
	if _, err := r.Page(-1); !errors.Is(err, errBadPage) {
		t.Fatal("negative index")
	}
	if err := r.Append(Tuple{1}); !errors.Is(err, ErrBadSchema) {
		t.Fatal("wrong width tuple")
	}
	ci, err := r.ColIndex("v")
	if err != nil || ci != 1 {
		t.Fatalf("ColIndex: %d %v", ci, err)
	}
	if _, err := r.ColIndex("zz"); !errors.Is(err, errNoColumn) {
		t.Fatal("missing column")
	}
}

func TestAppendPage(t *testing.T) {
	r, _ := NewRelation("r", []string{"k"}, 2)
	if err := r.AppendPage([]Tuple{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if err := r.AppendPage([]Tuple{{1}, {2}, {3}}); !errors.Is(err, ErrBadSchema) {
		t.Fatal("oversized page")
	}
	if err := r.AppendPage([]Tuple{{1, 2}}); !errors.Is(err, ErrBadSchema) {
		t.Fatal("wrong width in page")
	}
	if r.NumPages() != 1 {
		t.Fatal("page count")
	}
}

// TestReserve: relations sharing one reservation cut their pages from it
// until it is used up — copies of the caller's pages, each capped at its
// own length, so neither the caller's buffer nor a neighbour's append can
// reach them; a row-by-row writer's tail page takes the slots that are
// left — and then allocate page by page.
func TestReserve(t *testing.T) {
	a, _ := NewRelation("a", []string{"k"}, 2)
	b, _ := NewRelation("b", []string{"k"}, 2)
	Reserve(6, a, b)
	buf := []Tuple{{1}, {2}}
	if err := a.AppendPage(buf); err != nil {
		t.Fatal(err)
	}
	buf[0], buf[1] = Tuple{3}, Tuple{4}
	if err := b.AppendPage(buf); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendPage(buf[:1]); err != nil {
		t.Fatal(err)
	}
	a0, _ := a.Page(0)
	b0, _ := b.Page(0)
	a1, _ := a.Page(1)
	if a0[0][0] != 1 || a0[1][0] != 2 || b0[0][0] != 3 || a1[0][0] != 3 {
		t.Fatalf("pages %v %v %v do not hold what was appended", a0, b0, a1)
	}
	if a.hdr != b.hdr || len(a.hdr.free) != 1 || cap(a0) != 2 || cap(b0) != 2 || cap(a1) != 1 {
		t.Fatal("reserved pages are not cut back to back from one storage")
	}
	if grown := append(a0, Tuple{9}); &grown[0] == &a0[0] || b0[0][0] != 3 {
		t.Fatal("appending to a page wrote into its neighbour")
	}
	if err := b.Append(Tuple{5}); err != nil { // 1 slot left: the tail page
		t.Fatal(err)
	}
	if b1, _ := b.Page(1); len(b1) != 1 || cap(b1) != 1 || len(a.hdr.free) != 0 {
		t.Fatalf("tail page %v (cap %d) not cut from the last slot", b1, cap(b1))
	}
	if err := b.Append(Tuple{6}, Tuple{7}); err != nil { // past the reservation
		t.Fatal(err)
	}
	b1, _ := b.Page(1)
	b2, _ := b.Page(2)
	if len(b1) != 2 || b1[0][0] != 5 || b1[1][0] != 6 || len(b2) != 1 || cap(b2) != 2 || b2[0][0] != 7 {
		t.Fatalf("pages %v %v past the reservation", b1, b2)
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	r, _ := NewRelation("r", []string{"k"}, 2)
	if err := s.Add(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(r); !errors.Is(err, errDupRelation) {
		t.Fatal("dup add")
	}
	got, err := s.Get("r")
	if err != nil || got != r {
		t.Fatal("get")
	}
	if _, err := s.Get("zz"); !errors.Is(err, ErrNoRelation) {
		t.Fatal("missing")
	}
	t1, err := s.NewTemp("tmp", []string{"k"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.NewTemp("tmp", []string{"k"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Name == t2.Name {
		t.Fatal("temp names must be unique")
	}
	names := s.Names()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	s.Drop(t1.Name)
	if _, err := s.Get(t1.Name); err == nil {
		t.Fatal("dropped relation still present")
	}
	s.Drop("absent") // no-op
}

func TestGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel, err := Generate(GenSpec{Name: "g", Pages: 10, TuplesPerPage: 8, KeyRange: 100, PayloadCols: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumPages() != 10 || rel.NumTuples() != 80 {
		t.Fatalf("pages=%d tuples=%d", rel.NumPages(), rel.NumTuples())
	}
	if len(rel.Cols) != 3 || rel.Cols[0] != "k" || rel.Cols[1] != "p0" {
		t.Fatalf("cols = %v", rel.Cols)
	}
	for _, tp := range rel.AllTuples() {
		if tp[0] < 0 || tp[0] >= 100 {
			t.Fatalf("key out of range: %d", tp[0])
		}
	}
	if _, err := Generate(GenSpec{Name: "g2", Pages: 0, TuplesPerPage: 8, KeyRange: 10}, rng); !errors.Is(err, ErrBadSchema) {
		t.Fatal("zero pages should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Name: "g", Pages: 5, TuplesPerPage: 4, KeyRange: 50}
	a, err := Generate(spec, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	at, bt := a.AllTuples(), b.AllTuples()
	for i := range at {
		if at[i][0] != bt[i][0] {
			t.Fatal("same seed must generate same data")
		}
	}
}

func TestGenerateSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel, err := GenerateSorted(GenSpec{Name: "s", Pages: 6, TuplesPerPage: 5, KeyRange: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	all := rel.AllTuples()
	for i := 1; i < len(all); i++ {
		if all[i][0] < all[i-1][0] {
			t.Fatal("not sorted")
		}
	}
	if rel.NumTuples() != 30 {
		t.Fatal("tuple count changed")
	}
}

// TestAppendConcat: slab-built rows page exactly as Append's do, reject a
// wrong width, and cannot grow into their neighbour.
func TestAppendConcat(t *testing.T) {
	slab, _ := NewRelation("slab", []string{"a", "b", "c"}, 2)
	plain, _ := NewRelation("plain", []string{"a", "b", "c"}, 2)
	for i := int64(0); i < 5; i++ {
		o, in := Tuple{i, 10 + i}, Tuple{20 + i}
		if err := slab.AppendConcat(o, in); err != nil {
			t.Fatal(err)
		}
		if err := plain.Append(Tuple{i, 10 + i, 20 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := slab.AppendConcat(Tuple{1}, Tuple{2}); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("width 2 into 3 columns: err = %v", err)
	}
	if slab.NumPages() != plain.NumPages() {
		t.Fatalf("pages %d vs %d", slab.NumPages(), plain.NumPages())
	}
	got, want := slab.AllTuples(), plain.AllTuples()
	_ = append(got[0], 99) // must reallocate, not write into row 1
	for i := range want {
		if len(got[i]) != 3 || got[i][0] != want[i][0] || got[i][1] != want[i][1] || got[i][2] != want[i][2] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// fill appends n one-column tuples to r.
func fill(t *testing.T, r *Relation, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.Append(Tuple{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDroppedTempSlabBacksNextReserve: a dropped temp's header slab goes
// back to its store, and the store's next Reserve cuts its pages from it;
// the recycled Relation keeps its name and takes the new columns.
func TestDroppedTempSlabBacksNextReserve(t *testing.T) {
	s := NewStore()
	a, err := s.NewTemp("run", []string{"k"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	Reserve(10, a)
	fill(t, a, 10)
	h, name := a.hdr, a.Name
	s.Drop(a.Name)
	b, err := s.NewTemp("run", []string{"x"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b != a || b.Name != name || b.Cols[0] != "x" || b.NumPages() != 0 {
		t.Fatalf("NewTemp made %q %v with %d pages, not the dropped %q", b.Name, b.Cols, b.NumPages(), name)
	}
	Reserve(9, b)
	if b.hdr != h {
		t.Fatal("Reserve drew a new slab while a dropped temp's was free")
	}
	fill(t, b, 9)
	p0, _ := b.Page(0)
	if &p0[:1][0] != &h.buf[0] || p0[0][0] != 0 || len(h.free) != 0 {
		t.Fatal("the next temp's pages are not cut from the recycled slab")
	}
}

// TestSharedSlabReturnsAfterLastDrop: the hash partitions of one input
// share one Reserve; their slab goes back only when the last is dropped.
func TestSharedSlabReturnsAfterLastDrop(t *testing.T) {
	s := NewStore()
	var parts []*Relation
	for range 3 {
		p, err := s.NewTemp("part", []string{"k"}, 2)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	Reserve(12, parts...)
	for _, p := range parts {
		fill(t, p, 4)
	}
	h := parts[0].hdr
	free := func() int {
		n := 0
		for _, class := range s.free {
			n += len(class)
		}
		return n
	}
	for i, p := range parts {
		if free() != 0 {
			t.Fatalf("slab back after %d of 3 drops", i)
		}
		if last, _ := parts[2].Page(1); last[1][0] != 3 {
			t.Fatalf("a live partition's page was cleared after %d drops", i)
		}
		s.Drop(p.Name)
	}
	if free() != 1 || h.refs != 0 {
		t.Fatalf("%d slabs free after the last drop, refs %d", free(), h.refs)
	}
}

// TestBaseDropRecyclesNothing: relations a store did not make as temps —
// added, generated, index pages — keep their storage when dropped.
func TestBaseDropRecyclesNothing(t *testing.T) {
	s := NewStore()
	r, _ := NewRelation("r", []string{"k"}, 2)
	Reserve(4, r)
	fill(t, r, 4)
	if err := s.Add(r); err != nil {
		t.Fatal(err)
	}
	s.Drop(r.Name)
	p1, _ := r.Page(1)
	if len(s.free) != 0 || len(s.spare) != 0 || r.NumPages() != 2 || p1[1][0] != 3 {
		t.Fatal("dropping a base relation recycled its storage")
	}
	tmp, err := s.NewTemp("r", []string{"k"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tmp == r {
		t.Fatal("NewTemp handed out a dropped base relation")
	}
}

// TestDroppedTempReadsCleared: a dropped temp holds no pages, and a page
// slice kept from before the drop reads as cleared, not as stale tuples a
// later temp could be mistaken for; the rows themselves stay valid.
func TestDroppedTempReadsCleared(t *testing.T) {
	s := NewStore()
	a, err := s.NewTemp("join", []string{"o.k", "i.k"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if err := a.AppendConcat(Tuple{i}, Tuple{-i}); err != nil {
			t.Fatal(err)
		}
	}
	page, _ := a.Page(1)
	row := page[0]
	s.Drop(a.Name)
	if a.NumPages() != 0 || page[0] != nil || page[1] != nil {
		t.Fatalf("dropped temp reads %d pages, kept page %v", a.NumPages(), page)
	}
	if row[0] != 2 || row[1] != -2 {
		t.Fatalf("a row read before the drop changed: %v", row)
	}
}

// joinTemp makes a temp of two columns holding rows (i, -i) for i < n,
// built by AppendConcat in row slabs drawn from s.
func joinTemp(t *testing.T, s *Store, n int) *Relation {
	t.Helper()
	r, err := s.NewTemp("join", []string{"o.k", "i.k"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < int64(n); i++ {
		if err := r.AppendConcat(Tuple{i}, Tuple{-i}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// freeRows counts the released row slabs a store holds.
func freeRows(s *Store) int {
	n := 0
	for _, class := range s.rowFree {
		n += len(class)
	}
	return n
}

// TestSettledOutputHoldsDroppedRows: the rows of a temp dropped inside a
// unit stay with the unit's output — here a sorted copy whose tuples point
// into them — while later units draw other slabs, and go back to the store
// when the output is dropped, to back the next temp's rows.
func TestSettledOutputHoldsDroppedRows(t *testing.T) {
	s := NewStore()
	j := joinTemp(t, s, 5)
	slabs := slices.Clone(j.rowSlabs)
	out, err := s.NewTemp("sorted", j.Cols, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := j.AllTuples()
	slices.Reverse(rows)
	if err := out.Append(rows...); err != nil {
		t.Fatal(err)
	}
	s.Drop(j.Name)
	s.Settle(out)
	if freeRows(s) != 0 || len(out.rowSlabs) != len(slabs) {
		t.Fatalf("settled output holds %d row slabs of %d, %d free", len(out.rowSlabs), len(slabs), freeRows(s))
	}
	k := joinTemp(t, s, 5) // a later unit, while out is live
	if &k.rowSlabs[0][:1][0] == &slabs[0][:1][0] {
		t.Fatal("a later temp drew the rows a live output points into")
	}
	s.Drop(k.Name)
	s.Settle(nil)
	if first, _ := out.Page(0); first[0][0] != 4 || first[0][1] != -4 {
		t.Fatalf("a live output's row changed: %v", first[0])
	}
	free := freeRows(s)
	s.Drop(out.Name)
	if freeRows(s) != free+len(slabs) {
		t.Fatalf("%d row slabs free after the output's drop, want %d", freeRows(s), free+len(slabs))
	}
	next := joinTemp(t, s, 5)
	if &next.rowSlabs[0][:1][0] != &slabs[0][:1][0] {
		t.Fatal("the next temp's rows are not built in the dropped output's slab")
	}
}

// TestSettleWithoutOutputReturnsRows: a unit that ends without an output —
// a failed execution, nil — or with a relation the store did not make as a
// temp returns its dropped temps' rows at once; a temp still live keeps
// its own.
func TestSettleWithoutOutputReturnsRows(t *testing.T) {
	s := NewStore()
	live := joinTemp(t, s, 3)
	for _, out := range []*Relation{nil, {Name: "base"}} {
		j := joinTemp(t, s, 4)
		n := len(j.rowSlabs)
		free := freeRows(s)
		s.Drop(j.Name)
		s.Settle(out)
		if freeRows(s) != free+n || len(s.dropped) != 0 {
			t.Fatalf("Settle(%v): %d row slabs free, want %d", out, freeRows(s), free+n)
		}
	}
	if len(live.rowSlabs) == 0 || live.settled {
		t.Fatal("Settle took the rows of a live temp")
	}
	if row, _ := live.Page(1); row[0][0] != 2 || row[0][1] != -2 {
		t.Fatalf("a live temp's row changed: %v", row[0])
	}
}
