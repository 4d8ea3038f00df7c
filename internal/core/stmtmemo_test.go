package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/feedback"
	"lecopt/internal/query"
	"lecopt/internal/sqlmini"
)

// memoCat builds a catalog from "table:col,col" specs; every column is an
// int key with the same statistics, so two catalogs differ in schema only.
func memoCat(t testing.TB, specs ...string) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, spec := range specs {
		memoAddTable(t, cat, spec)
	}
	return cat
}

func memoAddTable(t testing.TB, cat *catalog.Catalog, spec string) {
	t.Helper()
	name, colNames, _ := strings.Cut(spec, ":")
	var cols []catalog.Column
	for _, c := range strings.Split(colNames, ",") {
		cols = append(cols, catalog.Column{Name: c, Type: catalog.TypeInt, Distinct: 600, Min: 0, Max: 1e6})
	}
	tab, err := catalog.NewTable(name, 1000, 10_000, cols...)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
}

const memoJoin = "SELECT * FROM t0, t1 WHERE t0.k = t1.k"

func memoOptimize(t *testing.T, o *Optimizer, cat *catalog.Catalog, sql string) (Response, error) {
	t.Helper()
	return o.Optimize(Request{SQL: sql, Cat: cat, Env: serviceEnv(t), Alg: AlgC})
}

// TestStmtMemoSchemasNeverAlias: one text against catalogs with different
// schemas never shares an entry, so a catalog the text is invalid for still
// gets its typed error after the text has been memoized for another.
func TestStmtMemoSchemasNeverAlias(t *testing.T) {
	o := NewOptimizer(nil, Config{})
	good := memoCat(t, "t0:k", "t1:k")
	if _, err := memoOptimize(t, o, good, memoJoin); err != nil {
		t.Fatal(err)
	}
	noColumn := memoCat(t, "t0:k", "t1:j")
	noTable := memoCat(t, "t0:k")
	for rep := 0; rep < 3; rep++ {
		if _, err := memoOptimize(t, o, noColumn, memoJoin); !errors.Is(err, catalog.ErrNoColumn) {
			t.Fatalf("repeat %d: want ErrNoColumn, got %v", rep, err)
		}
		if _, err := memoOptimize(t, o, noTable, memoJoin); !errors.Is(err, catalog.ErrNoTable) {
			t.Fatalf("repeat %d: want ErrNoTable, got %v", rep, err)
		}
	}
	if n := o.stmts.Stats().Size; n != 1 {
		t.Fatalf("memo holds %d entries, want the one valid (schema, text) pair", n)
	}
	// A wider schema the text is equally valid for is its own entry.
	wider := memoCat(t, "t0:k", "t1:k", "t2:k")
	if _, err := memoOptimize(t, o, wider, memoJoin); err != nil {
		t.Fatal(err)
	}
	if n := o.stmts.Stats().Size; n != 2 {
		t.Fatalf("memo holds %d entries after a second schema, want 2", n)
	}
}

// TestStmtMemoFollowsCatalogMutation: AddTable changes the schema digest, so
// a memoized text is validated again (and a text that named the missing
// table starts to resolve); AddIndex drops the memoized digest but not the
// schema, so the entry is found again.
func TestStmtMemoFollowsCatalogMutation(t *testing.T) {
	cat := memoCat(t, "t0:k")
	o := NewOptimizer(cat, Config{})
	if _, err := memoOptimize(t, o, nil, memoJoin); !errors.Is(err, catalog.ErrNoTable) {
		t.Fatalf("want ErrNoTable before t1 exists, got %v", err)
	}
	memoAddTable(t, cat, "t1:k")
	before, err := o.parse(cat, memoJoin, false)
	if err != nil {
		t.Fatalf("after AddTable(t1): %v", err)
	}
	if err := cat.AddIndex(catalog.Index{Name: "ix", Table: "t1", Column: "k", Height: 2}); err != nil {
		t.Fatal(err)
	}
	if again, err := o.parse(cat, memoJoin, false); err != nil || again != before {
		t.Fatalf("AddIndex leaves the schema alone: want the memoized block, got %p vs %p (err %v)", again, before, err)
	}
	memoAddTable(t, cat, "t2:k")
	after, err := o.parse(cat, memoJoin, false)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("AddTable changed the schema but the text was not validated again")
	}
	if after.block.Canonical() != before.block.Canonical() {
		t.Fatalf("revalidation changed the query: %q vs %q", after.block.Canonical(), before.block.Canonical())
	}
}

// TestStmtMemoSurvivesStatisticsDrift: ScaleDistinct copies (and any other
// catalog with the same names and types) share one entry.
func TestStmtMemoSurvivesStatisticsDrift(t *testing.T) {
	cat := memoCat(t, "t0:k", "t1:k")
	o := NewOptimizer(cat, Config{})
	base, err := o.parse(cat, memoJoin, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0.25, 0.5, 2, 4} {
		drifted, err := cat.ScaleDistinct(f)
		if err != nil {
			t.Fatal(err)
		}
		if blk, err := o.parse(drifted, memoJoin, false); err != nil || blk != base {
			t.Fatalf("drift %v: want the memoized block, got %p vs %p (err %v)", f, blk, base, err)
		}
		if _, err := memoOptimize(t, o, drifted, memoJoin); err != nil {
			t.Fatal(err)
		}
	}
	if n := o.stmts.Stats().Size; n != 1 {
		t.Fatalf("memo holds %d entries across drifted copies of one schema, want 1", n)
	}
}

// TestStmtMemoErrorsNotMemoized: a failing text fails the same typed way on
// every repeat, through every entry point, and never occupies an entry.
func TestStmtMemoErrorsNotMemoized(t *testing.T) {
	cat := memoCat(t, "t0:k", "t1:k")
	o := NewOptimizer(cat, Config{})
	cases := []struct {
		sql  string
		want error
	}{
		{"SELECT * FROM", sqlmini.ErrSyntax},
		{"SELECT * FROM tàb", sqlmini.ErrSyntax},
		{"SELECT * FROM missing", catalog.ErrNoTable},
		{"SELECT * FROM t0 WHERE t0.nope < 1", catalog.ErrNoColumn},
		{"SELECT * FROM t0 WHERE t1.k < 1", query.ErrUnknownTable},
		{"SELECT * FROM t0, t0", query.ErrDupTable},
	}
	sizes := map[string]float64{feedback.SetKey("t0", "t1"): 10}
	for rep := 0; rep < 3; rep++ {
		for _, c := range cases {
			if _, err := memoOptimize(t, o, nil, c.sql); !errors.Is(err, c.want) {
				t.Errorf("repeat %d: Optimize(%q) = %v, want %v", rep, c.sql, err, c.want)
			}
			if err := o.Observe(Feedback{SQL: c.sql, Sizes: sizes}); !errors.Is(err, c.want) {
				t.Errorf("repeat %d: Observe(%q) = %v, want %v", rep, c.sql, err, c.want)
			}
			if _, err := o.Prepare(c.sql); !errors.Is(err, c.want) {
				t.Errorf("repeat %d: Prepare(%q) = %v, want %v", rep, c.sql, err, c.want)
			}
		}
	}
	if n := o.stmts.Stats().Size; n != 0 {
		t.Fatalf("memo holds %d entries after only failing texts, want 0", n)
	}
}

// TestStmtMemoBounded: the memo is the plan cache's LRU at the plan cache's
// capacity — one text too many evicts, and the count never passes capacity.
func TestStmtMemoBounded(t *testing.T) {
	const capacity = 64
	cat := memoCat(t, "t0:k")
	o := NewOptimizer(cat, Config{CacheSize: capacity})
	text := func(i int) string { return fmt.Sprintf("SELECT * FROM t0 WHERE t0.k < %d", i) }
	for i := 0; i <= capacity; i++ {
		if _, err := o.parse(cat, text(i), false); err != nil {
			t.Fatal(err)
		}
		if n := o.stmts.Stats().Size; n > capacity {
			t.Fatalf("memo holds %d entries after %d texts, capacity %d", n, i+1, capacity)
		}
	}
	if ev := o.stmts.Stats().Evictions; ev == 0 {
		t.Fatalf("%d distinct texts through a %d-entry memo evicted nothing", capacity+1, capacity)
	}
	for i := 0; i <= capacity; i++ { // evicted or resident, a text still resolves
		blk, err := o.parse(cat, text(i), false)
		if err != nil || blk.block.Filters[0].Value != float64(i) {
			t.Fatalf("text %d after eviction pressure: %v, %v", i, blk, err)
		}
	}
}

// TestPrepareBounded: prepared statements live in the statement memo, so
// preparing more distinct texts than the handle's capacity never holds more
// than capacity statements. Four goroutines prepare overlapping texts on a
// handle with an anticipated law, so under -race this also covers Prepare
// completing a memo entry with its plan set while others read it.
func TestPrepareBounded(t *testing.T) {
	const capacity = 64
	law, err := dist.Bimodal(64, 4096, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizer(memoCat(t, "t0:k"), Config{CacheSize: capacity, AnticipatedLaws: []dist.Dist{law}})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < capacity; i++ {
				p, err := o.Prepare(fmt.Sprintf("SELECT * FROM t0 WHERE t0.k < %d", g*capacity/2+i))
				if err != nil {
					t.Error(err)
					return
				}
				if n := len(p.Entries()); n != 1 {
					t.Errorf("prepared statement has %d plan-set entries, want 1", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := o.stmts.Stats().Size; n > capacity {
		t.Fatalf("memo holds %d statements after %d texts, capacity %d", n, 5*capacity/2, capacity)
	}
}

// TestStmtMemoBypass: over-length texts, handles without a plan cache and
// requests that carry Query or Prepared never touch the memo.
func TestStmtMemoBypass(t *testing.T) {
	cat := memoCat(t, "t0:k", "t1:k")
	o := NewOptimizer(cat, Config{})
	long := memoJoin + strings.Repeat(" ", maxMemoSQL)
	first, err := o.parse(cat, long, false)
	if err != nil {
		t.Fatal(err)
	}
	second, err := o.parse(cat, long, false)
	if err != nil {
		t.Fatal(err)
	}
	if first == second || o.stmts.Stats().Size != 0 {
		t.Fatalf("a %d-byte text went through the memo (%d entries)", len(long), o.stmts.Stats().Size)
	}
	if _, err := memoOptimize(t, o, nil, long); err != nil {
		t.Fatal(err)
	}

	prep, err := o.Prepare(memoJoin)
	if err != nil {
		t.Fatal(err)
	}
	if o.stmts.Stats().Size != 1 {
		t.Fatalf("Prepare parses through the memo: %d entries, want 1", o.stmts.Stats().Size)
	}
	lookups := func() uint64 { st := o.stmts.Stats(); return st.Hits + st.Misses }
	before := lookups()
	for _, req := range []Request{{Prepared: prep}, {Query: prep.Block()}, {Prepared: prep, SQL: memoJoin}} {
		req.Env, req.Alg = serviceEnv(t), AlgC
		if _, err := o.Optimize(req); err != nil {
			t.Fatal(err)
		}
	}
	if after := lookups(); after != before {
		t.Fatalf("Query/Prepared requests made %d memo lookups", after-before)
	}

	uncached := NewOptimizer(cat, Config{CacheSize: -1})
	if uncached.stmts != nil {
		t.Fatal("a handle without a plan cache built a statement memo")
	}
	if _, err := memoOptimize(t, uncached, nil, memoJoin); err != nil {
		t.Fatal(err)
	}
}

// TestStmtMemoConcurrent drives every SQL entry point over several catalogs
// — two schemas, drifted copies of each — while their fingerprint memos are
// invalidated underneath. Under -race this covers the memo's shard locking
// and the catalog's digest snapshot; under the plain suite it still checks
// that no request ever resolves to another schema's block.
func TestStmtMemoConcurrent(t *testing.T) {
	narrow := memoCat(t, "t0:k", "t1:k")
	wide := memoCat(t, "t0:k", "t1:k", "t2:k")
	const wideJoin = "SELECT * FROM t0, t1, t2 WHERE t0.k = t1.k AND t1.k = t2.k"
	var cats []*catalog.Catalog
	for _, c := range []*catalog.Catalog{narrow, wide} {
		drifted, err := c.ScaleDistinct(2)
		if err != nil {
			t.Fatal(err)
		}
		cats = append(cats, c, drifted)
	}
	o := NewOptimizer(narrow, Config{CacheSize: 64})
	env := serviceEnv(t)

	stop := make(chan struct{})
	var invalidator sync.WaitGroup
	invalidator.Add(1)
	go func() {
		defer invalidator.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, c := range cats {
				c.InvalidateFingerprint()
			}
		}
	}()

	const goroutines, iters = 6, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cat := cats[(g+i)%len(cats)]
				isWide := cat.HasTable("t2")
				switch (g + i) % 4 {
				case 0:
					resp, err := o.Optimize(Request{SQL: memoJoin, Cat: cat, Env: env, Alg: AlgC})
					if err != nil || resp.Plan == nil {
						t.Errorf("Optimize: %v", err)
					}
				case 1: // valid for the wide schema only
					_, err := o.Optimize(Request{SQL: wideJoin, Cat: cat, Env: env, Alg: AlgC})
					if isWide && err != nil || !isWide && !errors.Is(err, catalog.ErrNoTable) {
						t.Errorf("Optimize(wide join, wide=%v): %v", isWide, err)
					}
				case 2:
					err := o.Observe(Feedback{SQL: memoJoin, Cat: cat, Sizes: map[string]float64{
						feedback.SetKey("t0", "t1"): float64(100 + i),
					}})
					if err != nil {
						t.Errorf("Observe: %v", err)
					}
				case 3:
					p, err := o.Prepare(memoJoin)
					if err != nil || len(p.Block().Tables) != 2 {
						t.Errorf("Prepare: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	invalidator.Wait()
	if n := o.stmts.Stats().Size; n > 64 {
		t.Fatalf("memo holds %d entries, capacity 64", n)
	}
}
