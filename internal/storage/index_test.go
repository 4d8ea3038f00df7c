package storage

import (
	"errors"
	"math/rand"
	"testing"
)

// buildStore generates one relation and returns the store holding it.
func buildStore(t *testing.T, seed int64, pages, tpp int, keyRange int64, sorted bool) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := GenSpec{Name: "T", Pages: pages, TuplesPerPage: tpp, KeyRange: keyRange}
	var rel *Relation
	var err error
	if sorted {
		rel, err = GenerateSorted(spec, rng)
	} else {
		rel, err = Generate(spec, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	if err := s.Add(rel); err != nil {
		t.Fatal(err)
	}
	return s
}

// directReader reads index pages straight from the store (uncharged).
func directReader(s *Store) pageReader {
	return func(rel string, page int) ([]Tuple, error) {
		r, err := s.Get(rel)
		if err != nil {
			return nil, err
		}
		return r.Page(page)
	}
}

// TestBuildIndexStructure: the built tree has the fanout-derived height,
// covers every row exactly once, and registers its page relations.
func TestBuildIndexStructure(t *testing.T) {
	s := buildStore(t, 1, 40, 6, 500, false)
	ix, err := BuildIndex(s, "ix_T_k", "T", "k", false, 16)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := s.Get("T")
	rows := rel.NumTuples()
	// 240 rows / fanout 16 = 15 leaf pages -> one internal level.
	if ix.leaves.NumPages() != (rows+15)/16 {
		t.Fatalf("leaf pages %d for %d rows", ix.leaves.NumPages(), rows)
	}
	if ix.Height() != 1 {
		t.Fatalf("height %d, want 1", ix.Height())
	}
	count := 0
	prev := int64(-1)
	err = ix.WalkRange(directReader(s), -1, 1<<62, func(k int64, page, slot int) error {
		if k < prev {
			t.Fatalf("walk out of key order: %d after %d", k, prev)
		}
		prev = k
		pg, err := rel.Page(page)
		if err != nil {
			return err
		}
		if pg[slot][0] != k {
			t.Fatalf("entry (%d,%d) points at key %d, want %d", page, slot, pg[slot][0], k)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != rows {
		t.Fatalf("walk visited %d entries, want %d", count, rows)
	}
	if _, err := s.Index("ix_T_k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("ix_T_k!leaf"); err != nil {
		t.Fatal(err)
	}
	if !ix.Fresh(s) {
		t.Fatal("freshly built index reported stale")
	}
}

// TestWalkRangeMatchesScan: for a sweep of ranges, the walk returns exactly
// the rows a full scan would filter — on sorted and unsorted data.
func TestWalkRangeMatchesScan(t *testing.T) {
	for _, sorted := range []bool{true, false} {
		s := buildStore(t, 7, 20, 5, 120, sorted)
		ix, err := BuildIndex(s, "ix", "T", "k", sorted, 8)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := s.Get("T")
		for _, r := range [][2]int64{{0, 0}, {5, 30}, {60, 119}, {-10, 500}, {119, 119}, {50, 40}} {
			want := 0
			for _, tp := range rel.AllTuples() {
				if tp[0] >= r[0] && tp[0] <= r[1] {
					want++
				}
			}
			got := 0
			err := ix.WalkRange(directReader(s), r[0], r[1], func(k int64, page, slot int) error {
				got++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("sorted=%v range [%d,%d]: walk %d rows, scan %d", sorted, r[0], r[1], got, want)
			}
		}
	}
}

// TestWalkRangeDuplicateRunAcrossPages: a run of duplicate keys spanning a
// leaf-page boundary must be returned in full — the descent has to land on
// the *first* page that can hold the bound, because a separator equals its
// subtree's first key and duplicates can start at the preceding page's
// tail. (Regression: a `<= lo` descent skipped to the last duplicate page
// and dropped qualifying rows.)
func TestWalkRangeDuplicateRunAcrossPages(t *testing.T) {
	rel, err := NewRelation("T", []string{"k"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{5, 5, 5, 7, 7, 7, 7, 9} {
		if err := rel.Append(Tuple{k}); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStore()
	if err := s.Add(rel); err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(s, "ix", "T", "k", true, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lo, hi int64
		want   int
	}{{7, 7, 4}, {5, 5, 3}, {6, 7, 4}, {7, 9, 5}, {9, 9, 1}} {
		got := 0
		if err := ix.WalkRange(directReader(s), tc.lo, tc.hi, func(int64, int, int) error {
			got++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("range [%d,%d]: %d entries, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestBuildIndexTallTree: a tiny fanout forces multiple internal levels and
// the walk still resolves correctly through them.
func TestBuildIndexTallTree(t *testing.T) {
	s := buildStore(t, 3, 30, 8, 1000, false)
	ix, err := BuildIndex(s, "ix", "T", "k", false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Height() < 3 {
		t.Fatalf("fanout 2 over 240 rows should be tall, height %d", ix.Height())
	}
	rel, _ := s.Get("T")
	want := 0
	for _, tp := range rel.AllTuples() {
		if tp[0] >= 100 && tp[0] <= 300 {
			want++
		}
	}
	got := 0
	if err := ix.WalkRange(directReader(s), 100, 300, func(int64, int, int) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tall tree walk %d, want %d", got, want)
	}
}

// TestBuildIndexValidation: clustered build on unsorted data, duplicate
// names and bad specs all fail cleanly.
func TestBuildIndexValidation(t *testing.T) {
	s := buildStore(t, 5, 10, 6, 50, false)
	if _, err := BuildIndex(s, "ix", "T", "k", true, 8); !errors.Is(err, errNotSorted) {
		t.Fatalf("clustered over unsorted data: %v", err)
	}
	if _, err := BuildIndex(s, "ix", "T", "k", false, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndex(s, "ix", "T", "k", false, 8); !errors.Is(err, errDupIndex) {
		t.Fatalf("duplicate index: %v", err)
	}
	if _, err := BuildIndex(s, "ix2", "T", "zz", false, 8); err == nil {
		t.Fatal("missing column must fail")
	}
	if _, err := BuildIndex(s, "ix3", "T", "k", false, 1); !errors.Is(err, errBadIndex) {
		t.Fatal("fanout 1 must fail")
	}
	if _, err := s.Index("nope"); !errors.Is(err, errNoIndex) {
		t.Fatal("missing index lookup must fail")
	}
}
