package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/plan"
	"lecopt/internal/storage"
)

// loadPair generates two relations joined on "k" and returns the engine.
func loadPair(t *testing.T, seed int64, pagesA, pagesB, tpp int, keyRange int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := storage.NewStore()
	a, err := storage.Generate(storage.GenSpec{Name: "A", Pages: pagesA, TuplesPerPage: tpp, KeyRange: keyRange}, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := storage.Generate(storage.GenSpec{Name: "B", Pages: pagesB, TuplesPerPage: tpp, KeyRange: keyRange}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b); err != nil {
		t.Fatal(err)
	}
	return New(s)
}

// refJoin is the in-memory reference equi-join, as sorted key pairs.
func refJoin(t *testing.T, e *Engine) []string {
	t.Helper()
	a, _ := e.store.Get("A")
	b, _ := e.store.Get("B")
	var out []string
	for _, at := range a.AllTuples() {
		for _, bt := range b.AllTuples() {
			if at[0] == bt[0] {
				out = append(out, fmt.Sprintf("%d", at[0]))
			}
		}
	}
	sort.Strings(out)
	return out
}

func resultKeys(t *testing.T, r *storage.Relation) []string {
	t.Helper()
	var out []string
	for _, tp := range r.AllTuples() {
		out = append(out, fmt.Sprintf("%d", tp[0]))
	}
	sort.Strings(out)
	return out
}

func equalSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestJoinCorrectnessAllMethods: every join algorithm produces exactly the
// reference join, across memory budgets spanning all formula regimes.
func TestJoinCorrectnessAllMethods(t *testing.T) {
	for _, mem := range []int{3, 5, 9, 30, 200} {
		e := loadPair(t, 42, 12, 7, 8, 60)
		want := refJoin(t, e)
		for _, m := range cost.Methods {
			res, _, err := e.join(JoinSpec{Method: m, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}, mem)
			if err != nil {
				t.Fatalf("mem=%d %v: %v", mem, m, err)
			}
			got := resultKeys(t, res)
			if !equalSlices(got, want) {
				t.Fatalf("mem=%d %v: %d rows, want %d", mem, m, len(got), len(want))
			}
			e.store.Drop(res.Name)
		}
	}
}

// TestJoinManyToMany: heavy key duplication exercises the group-cross
// product logic of sort-merge and the bucket chains of hash join.
func TestJoinManyToMany(t *testing.T) {
	e := loadPair(t, 7, 6, 6, 10, 3) // keyRange 3 → massive duplication
	want := refJoin(t, e)
	if len(want) < 100 {
		t.Fatalf("test needs many matches, got %d", len(want))
	}
	for _, m := range cost.Methods {
		res, _, err := e.join(JoinSpec{Method: m, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}, 4)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := resultKeys(t, res); !equalSlices(got, want) {
			t.Fatalf("%v: %d rows, want %d", m, len(got), len(want))
		}
		e.store.Drop(res.Name)
	}
}

func TestJoinValidation(t *testing.T) {
	e := loadPair(t, 1, 2, 2, 4, 10)
	spec := JoinSpec{Method: cost.SortMerge, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}
	if _, _, err := e.join(spec, 2); !errors.Is(err, errBadMemory) {
		t.Fatal("tiny memory should fail")
	}
	bad := spec
	bad.Outer = "zz"
	if _, _, err := e.join(bad, 10); err == nil {
		t.Fatal("missing outer")
	}
	bad = spec
	bad.InnerCol = "zz"
	if _, _, err := e.join(bad, 10); err == nil {
		t.Fatal("missing column")
	}
	bad = spec
	bad.Method = cost.JoinMethod(99)
	if _, _, err := e.join(bad, 10); !errors.Is(err, errBadSpec) {
		t.Fatal("unknown method")
	}
}

// TestPageNLIOShape: measured I/O reproduces the formula's two regimes —
// inner cached when it fits (|A|+|B|) versus rescan per outer page.
func TestPageNLIOShape(t *testing.T) {
	e := loadPair(t, 11, 20, 6, 4, 1000)
	spec := JoinSpec{Method: cost.PageNL, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}

	_, fits, err := e.join(spec, 10) // inner 6 pages + outer frame + slack
	if err != nil {
		t.Fatal(err)
	}
	if got := fits.IO(); got != 20+6 {
		t.Fatalf("fitting inner: IO=%d want 26", got)
	}
	_, thrash, err := e.join(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Formula regime |A| + |A|·|B| = 20 + 120 = 140.
	if got := thrash.IO(); got != 20+20*6 {
		t.Fatalf("thrashing inner: IO=%d want 140", got)
	}
}

// TestBlockNLIOShape: measured I/O equals |A| + ⌈|A|/(M-2)⌉·|B| exactly.
func TestBlockNLIOShape(t *testing.T) {
	e := loadPair(t, 13, 20, 8, 4, 1000)
	spec := JoinSpec{Method: cost.BlockNL, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}
	for _, mem := range []int{4, 6, 12, 22} {
		_, st, err := e.join(spec, mem)
		if err != nil {
			t.Fatal(err)
		}
		blocks := (20 + mem - 3) / (mem - 2)
		want := int64(20 + blocks*8)
		if got := st.IO(); got != want {
			t.Fatalf("mem=%d: IO=%d want %d", mem, got, want)
		}
	}
}

// TestSortMergeIOMonotoneSteps: measured sort-merge I/O is non-increasing
// in memory and strictly cheaper above the √L threshold than far below it.
func TestSortMergeIOMonotoneSteps(t *testing.T) {
	e := loadPair(t, 17, 64, 32, 8, 5000) // L = 64 pages, √L = 8, ∛L = 4
	spec := JoinSpec{Method: cost.SortMerge, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}
	mems := []int{3, 4, 6, 9, 16, 70}
	prev := int64(1 << 60)
	ios := map[int]int64{}
	for _, mem := range mems {
		_, st, err := e.join(spec, mem)
		if err != nil {
			t.Fatal(err)
		}
		if st.IO() > prev {
			t.Fatalf("I/O increased with memory at mem=%d: %d > %d", mem, st.IO(), prev)
		}
		prev = st.IO()
		ios[mem] = st.IO()
	}
	if !(ios[9] < ios[3]) {
		t.Fatalf("two-pass regime (mem 9: %d) should beat multi-pass (mem 3: %d)", ios[9], ios[3])
	}
	// Good regime: runs written+read once → ~3(|A|+|B|) = 288; allow slack.
	if ios[16] > 3*(64+32)+20 {
		t.Fatalf("good-regime sort-merge I/O too high: %d", ios[16])
	}
}

// TestGraceHashIOKeyedToSmaller: grace hash goes multi-pass only when
// memory falls below ≈√S of the SMALLER relation — the asymmetry versus
// sort-merge that drives Example 1.1.
func TestGraceHashIOKeyedToSmaller(t *testing.T) {
	// A = 64 pages, B = 9 pages: √S = 3.
	e := loadPair(t, 19, 64, 9, 8, 5000)
	spec := JoinSpec{Method: cost.GraceHash, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}

	_, direct, err := e.join(spec, 12) // B fits: in-memory hash join
	if err != nil {
		t.Fatal(err)
	}
	if direct.IO() != 64+9 {
		t.Fatalf("build-side fits: IO=%d want 73", direct.IO())
	}
	_, onePass, err := e.join(spec, 6) // partition once: 3(|A|+|B|)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(3*(64+9)-10), int64(3*(64+9)+25)
	if direct.IO() >= onePass.IO() && false {
		t.Fatal("unreachable")
	}
	if onePass.IO() < lo || onePass.IO() > hi {
		t.Fatalf("one-pass grace hash IO=%d, want ≈ %d", onePass.IO(), 3*(64+9))
	}
	// Compare with sort-merge at the same memory: SM is keyed to the
	// LARGER input (64 pages, √L = 8 > 6), so it needs extra merge passes
	// and must cost strictly more.
	_, sm, err := e.join(JoinSpec{Method: cost.SortMerge, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if sm.IO() <= onePass.IO() {
		t.Fatalf("at mem=6, grace hash (%d) should beat sort-merge (%d): threshold asymmetry", onePass.IO(), sm.IO())
	}
}

// TestSortRelationCorrectAndCharged: external sort is correct, its I/O
// steps with memory, and the engine holds none of its tuples afterwards.
func TestSortRelationCorrectAndCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := storage.NewStore()
	r, err := storage.Generate(storage.GenSpec{Name: "R", Pages: 27, TuplesPerPage: 6, KeyRange: 400}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(r); err != nil {
		t.Fatal(err)
	}
	e := New(s)
	prev := int64(1 << 60)
	for _, mem := range []int{3, 6, 30} {
		sorted, st, err := e.SortRelation("R", "k", mem)
		if err != nil {
			t.Fatal(err)
		}
		all := sorted.AllTuples()
		if len(all) != r.NumTuples() {
			t.Fatalf("mem=%d: lost tuples: %d vs %d", mem, len(all), r.NumTuples())
		}
		for i := 1; i < len(all); i++ {
			if all[i][0] < all[i-1][0] {
				t.Fatalf("mem=%d: output not sorted", mem)
			}
		}
		if st.IO() > prev {
			t.Fatalf("mem=%d: sort I/O increased: %d > %d", mem, st.IO(), prev)
		}
		prev = st.IO()
		e.store.Drop(sorted.Name)
		for _, buf := range [][]storage.Tuple{e.batch[:cap(e.batch)], e.sorter.out[:cap(e.sorter.out)]} {
			for _, tup := range buf {
				if tup != nil {
					t.Fatalf("mem=%d: the engine still holds the sorted rows", mem)
				}
			}
		}
	}
	if _, _, err := e.SortRelation("R", "k", 2); !errors.Is(err, errBadMemory) {
		t.Fatal("tiny memory")
	}
	if _, _, err := e.SortRelation("zz", "k", 5); err == nil {
		t.Fatal("missing relation")
	}
	if _, _, err := e.SortRelation("R", "zz", 5); err == nil {
		t.Fatal("missing column")
	}
}

// TestTempCleanup: joins must not leak temp run/partition relations.
func TestTempCleanup(t *testing.T) {
	e := loadPair(t, 31, 16, 8, 4, 500)
	before := len(e.store.Names())
	for _, m := range []cost.JoinMethod{cost.SortMerge, cost.GraceHash} {
		res, _, err := e.join(JoinSpec{Method: m, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}, 4)
		if err != nil {
			t.Fatal(err)
		}
		e.store.Drop(res.Name)
	}
	after := len(e.store.Names())
	if after != before {
		t.Fatalf("temp leak: %d relations before, %d after: %v", before, after, e.store.Names())
	}
}

// TestGraceHashDegenerateKeys: a single hot key can never be split by
// recursive partitioning; the join must fall back to block nested loop at
// the recursion cap and still produce the exact result.
func TestGraceHashDegenerateKeys(t *testing.T) {
	e := loadPair(t, 37, 10, 8, 6, 1) // keyRange 1: every tuple matches
	want := refJoin(t, e)
	if len(want) != 10*6*8*6 {
		t.Fatalf("expected full cross product, got %d", len(want))
	}
	res, st, err := e.join(JoinSpec{Method: cost.GraceHash, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultKeys(t, res); !equalSlices(got, want) {
		t.Fatalf("degenerate grace hash: %d rows, want %d", len(got), len(want))
	}
	if st.IO() == 0 {
		t.Fatal("deep recursion must do I/O")
	}
	e.store.Drop(res.Name)
	// No temp leak even through the recursion fallback.
	if n := len(e.store.Names()); n != 2 {
		t.Fatalf("temp leak after degenerate join: %v", e.store.Names())
	}
}

// TestSortMergeSkewedRunCounts: one side produces many runs, the other
// one; the asymmetric pre-merge path must terminate and stay correct.
func TestSortMergeSkewedRunCounts(t *testing.T) {
	e := loadPair(t, 41, 60, 2, 4, 300)
	want := refJoin(t, e)
	res, _, err := e.join(JoinSpec{Method: cost.SortMerge, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultKeys(t, res); !equalSlices(got, want) {
		t.Fatalf("skewed sort-merge: %d rows, want %d", len(got), len(want))
	}
}

// TestJoinEmptyMatchSet: disjoint key spaces produce zero rows without
// errors for every method.
func TestJoinEmptyMatchSet(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := storage.NewStore()
	a, err := storage.Generate(storage.GenSpec{Name: "A", Pages: 4, TuplesPerPage: 4, KeyRange: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(a); err != nil {
		t.Fatal(err)
	}
	// Shift B's keys far away from A's.
	b, err := storage.NewRelation("B", []string{"k"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 16; i++ {
		if err := b.Append(storage.Tuple{1000 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add(b); err != nil {
		t.Fatal(err)
	}
	e := New(s)
	for _, m := range cost.Methods {
		res, _, err := e.join(JoinSpec{Method: m, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}, 5)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.NumTuples() != 0 {
			t.Fatalf("%v: expected empty result, got %d", m, res.NumTuples())
		}
		e.store.Drop(res.Name)
	}
}

// TestGraceHashRecursiveSplit: re-partitioning a bucket at the next
// recursion level must actually split it. The original hashKey fed the
// raw FNV sum to `% fanOut`: with a power-of-two fan-out (capacity-1 is
// 4, 8 or 16 at the common memory levels) changing the level salt only
// *rotated* the low bits, so every key of a bucket moved to the same
// next-level bucket, the bucket never shrank, recursion always ran to
// the level cap, and the block-nested-loop fallback executed at 3-page
// memory — realized I/O 10x the analytic charge, which inverted the
// LSC-vs-LEC ranking for low-memory tenants. With the avalanche
// finalizer the whole join must stay within the documented 4x band of
// the paper's formula and still produce the exact join result.
func TestGraceHashRecursiveSplit(t *testing.T) {
	// A=200, B=20 pages at mem=5: B needs two partitioning levels
	// (fan-out is 4 — the pathological power of two).
	e := loadPair(t, 23, 200, 20, 10, 97)
	want := refJoin(t, e)
	res, st, err := e.join(JoinSpec{Method: cost.GraceHash, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultKeys(t, res); !equalSlices(got, want) {
		t.Fatalf("recursive grace hash: %d rows, want %d", len(got), len(want))
	}
	e.store.Drop(res.Name)
	model := cost.JoinIOModel(cost.ModelPaper, cost.GraceHash, 200, 20, 5)
	ratio := float64(st.IO()) / model
	t.Logf("engine=%d model=%.0f ratio=%.2f", st.IO(), model, ratio)
	if ratio >= 4 {
		t.Fatalf("recursive grace hash I/O %d is %.1fx the analytic %g: bucket splitting is broken again",
			st.IO(), ratio, model)
	}
}

// TestErrorPathsLeaveNoTemps: a typed error must not leave the result
// relation, sorted runs or hash partitions behind in the store. The
// mid-operator failures are provoked by widening B's schema after load, so
// the first page of B's tuples written to a spill relation (or the first
// joined row) fails its width check — after the other input's runs or
// partitions already exist.
func TestErrorPathsLeaveNoTemps(t *testing.T) {
	e := loadPair(t, 31, 12, 9, 6, 20)
	names := func() int { return len(e.store.Names()) }
	base := names()
	spec := JoinSpec{Method: cost.JoinMethod(99), Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}
	if _, _, _, err := e.JoinDetailed(spec, 8); !errors.Is(err, errBadSpec) {
		t.Fatalf("unknown method: err = %v, want errBadSpec", err)
	}
	if names() != base {
		t.Fatalf("unknown method leaked: %v", e.store.Names())
	}
	b, err := e.store.Get("B")
	if err != nil {
		t.Fatal(err)
	}
	b.Cols = append(b.Cols, "ghost")
	for _, m := range cost.Methods {
		for _, orient := range [][2]string{{"A", "B"}, {"B", "A"}} {
			for _, mem := range []int{3, 5, 40} {
				spec := JoinSpec{Method: m, Outer: orient[0], Inner: orient[1], OuterCol: "k", InnerCol: "k"}
				if _, _, _, err := e.JoinDetailed(spec, mem); !errors.Is(err, storage.ErrBadSchema) {
					t.Fatalf("%v %s⋈%s mem %d: err = %v, want ErrBadSchema", m, orient[0], orient[1], mem, err)
				}
				if names() != base {
					t.Fatalf("%v %s⋈%s mem %d leaked: %v", m, orient[0], orient[1], mem, e.store.Names())
				}
			}
		}
	}
	for _, mem := range []int{3, 5} {
		if _, _, err := e.SortRelation("B", "k", mem); !errors.Is(err, storage.ErrBadSchema) {
			t.Fatalf("sort mem %d: err = %v, want ErrBadSchema", mem, err)
		}
		if names() != base {
			t.Fatalf("sort mem %d leaked: %v", mem, e.store.Names())
		}
	}
	if _, err := e.ExecutePlan(sortedPairPlan(cost.SortMerge), []float64{4}); !errors.Is(err, storage.ErrBadSchema) {
		t.Fatalf("plan: err = %v, want ErrBadSchema", err)
	}
	if names() != base {
		t.Fatalf("plan leaked: %v", e.store.Names())
	}
}

// sortedPairPlan is the two-table plan sort(A ⋈ B).
func sortedPairPlan(m cost.JoinMethod) *plan.Node {
	a := plan.NewScan("A", plan.AccessHeap, "", 1, 12)
	b := plan.NewScan("B", plan.AccessHeap, "", 1, 9)
	return plan.NewSort(plan.NewJoin(m, a, b, 10, plan.Order{}), plan.Order{Table: "A", Column: "k"})
}
