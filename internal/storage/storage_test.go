package storage

import (
	"errors"
	"math/rand"
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
	if a.store != b.store || len(a.store.free) != 1 || cap(a0) != 2 || cap(b0) != 2 || cap(a1) != 1 {
		t.Fatal("reserved pages are not cut back to back from one storage")
	}
	if grown := append(a0, Tuple{9}); &grown[0] == &a0[0] || b0[0][0] != 3 {
		t.Fatal("appending to a page wrote into its neighbour")
	}
	if err := b.Append(Tuple{5}); err != nil { // 1 slot left: the tail page
		t.Fatal(err)
	}
	if b1, _ := b.Page(1); len(b1) != 1 || cap(b1) != 1 || len(a.store.free) != 0 {
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
