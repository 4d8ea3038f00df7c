package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/plan"
	"lecopt/internal/storage"
)

// An execution is one unit of row storage: the rows its joins build go
// back to the store when its output is dropped, or at once when it fails.
// TestResultSurvivesEngineReuse checks that a held output keeps them; the
// tests here check that they do go back, and that an engine built on
// recycled rows reads and emits what a fresh one does.

// rowAddrs returns where each row of rel is stored, in page order.
func rowAddrs(rel *storage.Relation) []*int64 {
	var out []*int64
	for p := 0; p < rel.NumPages(); p++ {
		page, _ := rel.Page(p)
		for _, t := range page {
			out = append(out, &t[0])
		}
	}
	return out
}

// within reports whether every row of got is stored where a row of rows
// was.
func within(got, rows []*int64) bool {
	seen := make(map[*int64]bool, len(rows))
	for _, a := range rows {
		seen[a] = true
	}
	for _, a := range got {
		if !seen[a] {
			return false
		}
	}
	return true
}

// execDigest hashes what an execution read, wrote and emitted: its I/O,
// phase ledger, grace shape, observed sizes and output, tuple by tuple.
func execDigest(res ExecResult) string {
	d := newCaseDigest()
	d.io.ints(res.Stats.Reads, res.Stats.Writes, res.Stats.Hits, int64(res.GraceLevels), int64(res.GraceFallbacks), res.GraceFallbackIO)
	d.io.ints(res.PhaseIO...)
	for _, m := range res.PhaseMem {
		d.io.ints(int64(m))
	}
	keys := make([]string, 0, len(res.JoinSizes))
	for k := range res.JoinSizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.io.h.Write([]byte(k))
		d.io.ints(int64(res.JoinSizes[k]))
	}
	d.rel(res.Output)
	return d.io.sum() + "/" + d.rows.sum()
}

// pairJoin is t2 ⋈ t3 by grace hash over the plan set's store: one join,
// so its output is the only temp that builds rows.
func pairJoin() *plan.Node {
	return plan.NewJoin(cost.GraceHash,
		plan.NewScan("t2", plan.AccessHeap, "", 1, 128),
		plan.NewScan("t3", plan.AccessHeap, "", 1, 160), 12, plan.Order{})
}

// TestDroppedOutputRowsBackNextJoin: while an output is held, the next
// execution builds its rows elsewhere; once it is dropped, the next
// execution's join builds its rows in the slabs it gave back — for a root
// join, whose rows are its own, and for a sort over the join, whose rows
// are the dropped join temp's.
func TestDroppedOutputRowsBackNextJoin(t *testing.T) {
	set := newExecSet(t)
	join := pairJoin()
	for _, c := range []struct {
		name string
		p    *plan.Node
	}{
		{"root join", join},
		{"sort over a join", plan.NewSort(join, plan.Order{Table: "t2", Column: "k"})},
	} {
		mem := []float64{96}
		first, err := set.eng.ExecutePlan(c.p, mem)
		if err != nil {
			t.Fatal(err)
		}
		rows := rowAddrs(first.Output)
		if len(rows) == 0 {
			t.Fatalf("%s: empty output", c.name)
		}
		held, err := set.eng.ExecutePlan(c.p, mem)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range rowAddrs(held.Output) {
			if slices.Contains(rows, a) {
				t.Fatalf("%s: an execution built its rows where a held output's are", c.name)
			}
		}
		set.store.Drop(held.Output.Name)
		set.store.Drop(first.Output.Name)
		next, err := set.eng.ExecutePlan(c.p, mem)
		if err != nil {
			t.Fatal(err)
		}
		if !within(rowAddrs(next.Output), append(rows, rowAddrs(held.Output)...)) {
			t.Fatalf("%s: the next execution drew new row slabs while dropped outputs' were free", c.name)
		}
		set.store.Drop(next.Output.Name)
	}
}

// TestFailedExecutionReturnsRowsAndTemps: a plan whose second join scans a
// relation dropped from the store fails after its first join has built
// rows. The failed execution must leave no temp behind and give its rows
// back — the next run of that first join builds its rows where the failed
// one did — and every plan executed afterwards on that engine must read,
// write and emit byte for byte what it does on a fresh engine.
func TestFailedExecutionReturnsRowsAndTemps(t *testing.T) {
	set := newExecSet(t)
	gone, err := storage.Generate(storage.GenSpec{Name: "gone", Pages: 4, TuplesPerPage: 6, KeyRange: 1200}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := set.store.Add(gone); err != nil {
		t.Fatal(err)
	}
	set.store.Drop(gone.Name)
	first := pairJoin()
	failing := plan.NewJoin(cost.SortMerge, first, plan.NewScan("gone", plan.AccessHeap, "", 1, 4), 2, plan.Order{})
	base := len(set.store.Names())
	ok, err := set.eng.ExecutePlan(first, []float64{96})
	if err != nil {
		t.Fatal(err)
	}
	rows := rowAddrs(ok.Output)
	set.store.Drop(ok.Output.Name)
	for _, p := range []*plan.Node{failing, plan.NewSort(failing, plan.Order{Table: "t2", Column: "k"})} {
		if _, err := set.eng.ExecutePlan(p, []float64{96, 96}); !errors.Is(err, storage.ErrNoRelation) {
			t.Fatalf("plan over a dropped relation: err = %v, want ErrNoRelation", err)
		}
		if n := len(set.store.Names()); n != base {
			t.Fatalf("failed execution leaked temps: %d relations, %d before", n, base)
		}
		again, err := set.eng.ExecutePlan(first, []float64{96})
		if err != nil {
			t.Fatal(err)
		}
		if !within(rowAddrs(again.Output), rows) {
			t.Fatal("the failed execution kept the rows its first join built")
		}
		set.store.Drop(again.Output.Name)
	}
	fresh := New(newExecStore(t))
	for i, p := range set.plans {
		if _, err := set.eng.ExecutePlan(failing, []float64{6, 6}); !errors.Is(err, storage.ErrNoRelation) {
			t.Fatalf("plan over a dropped relation: err = %v, want ErrNoRelation", err)
		}
		got, err := set.eng.ExecutePlan(p, set.mems[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.ExecutePlan(p, set.mems[i])
		if err != nil {
			t.Fatal(err)
		}
		if g, w := execDigest(got), execDigest(want); g != w {
			t.Fatalf("plan %d after a failed execution: digest %s, fresh engine %s", i, g, w)
		}
		set.store.Drop(got.Output.Name)
		fresh.store.Drop(want.Output.Name)
	}
}

// FuzzExecutePlan executes random left-deep plans and checks each against
// a reference join. The data seed draws 2–4 tables (pages, page capacity,
// key range, payload columns, clustered or not, each with an index on k);
// the shape seed draws the join order, each join's method, each leaf's
// access path (heap, index) and its range predicate on k (none, one or two
// bounds, open or closed), and a root ORDER BY; the memory word gives each
// phase its budget. Every case runs twice on one engine, dropping the
// output in between, so the second run builds its rows in the slabs the
// first gave back: both must match the reference, read and emit alike, and
// leave no temp behind.
func FuzzExecutePlan(f *testing.F) {
	f.Add(int64(1), int64(0), uint64(0))
	f.Add(int64(2), int64(7), uint64(0x0a0a0a))
	f.Add(int64(3), int64(11), uint64(0xff2010))
	f.Add(int64(4), int64(-5), uint64(0x030405))
	f.Fuzz(func(t *testing.T, dataSeed, shapeSeed int64, mems uint64) {
		rng := rand.New(rand.NewSource(dataSeed))
		store := storage.NewStore()
		n := 2 + rng.Intn(3)
		keyRange := make([]int64, n)
		names := make([]string, n)
		for j := range names {
			names[j] = fmt.Sprintf("f%d", j)
			keyRange[j] = 8 + rng.Int63n(40)
			clustered := rng.Intn(2) == 0
			gen := storage.Generate
			if clustered {
				gen = storage.GenerateSorted
			}
			rel, err := gen(storage.GenSpec{Name: names[j], Pages: 1 + rng.Intn(8), TuplesPerPage: 2 + rng.Intn(4), KeyRange: keyRange[j], PayloadCols: rng.Intn(3)}, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Add(rel); err != nil {
				t.Fatal(err)
			}
			if _, err := storage.BuildIndex(store, "ix_"+names[j], names[j], "k", clustered, 4); err != nil {
				t.Fatal(err)
			}
		}
		pr := rand.New(rand.NewSource(shapeSeed))
		order := pr.Perm(n)
		var p *plan.Node
		var filters []func(int64) bool
		for _, j := range order {
			leaf, keep := fuzzLeaf(pr, names[j], keyRange[j])
			filters = append(filters, keep)
			if p == nil {
				p = leaf
				continue
			}
			p = plan.NewJoin(cost.Methods[pr.Intn(len(cost.Methods))], p, leaf, 1, plan.Order{})
		}
		sorted := pr.Intn(2) == 0
		if sorted {
			p = plan.NewSort(p, plan.Order{Table: names[order[0]], Column: "k"})
		}
		memSeq := make([]float64, n-1)
		for i := range memSeq {
			b := byte(mems >> (8 * i))
			memSeq[i] = float64(3 + b%40)
			if b >= 0xf0 {
				memSeq[i] = 1000
			}
		}
		want := fuzzReference(t, store, names, order, filters)
		base := len(store.Names())
		eng := New(store)
		var first string
		for run := range 2 {
			res, err := eng.ExecutePlan(p, memSeq)
			if err != nil {
				t.Fatalf("run %d of %s mem %v: %v", run, p.Signature(), memSeq, err)
			}
			var got multiset
			all := res.Output.AllTuples()
			for i, row := range all {
				got.add(row)
				if sorted && i > 0 && all[i-1][0] > row[0] {
					t.Fatalf("run %d of %s mem %v: row %d breaks ORDER BY", run, p.Signature(), memSeq, i)
				}
			}
			if got != want {
				t.Fatalf("run %d of %s mem %v: %d rows (hash %x), reference %d rows (hash %x)",
					run, p.Signature(), memSeq, got.rows, got.sum, want.rows, want.sum)
			}
			d := execDigest(res)
			if run == 0 {
				first = d
			} else if d != first {
				t.Fatalf("%s mem %v: the second run reads or emits differently from the first", p.Signature(), memSeq)
			}
			store.Drop(res.Output.Name)
			if names := store.Names(); len(names) != base {
				t.Fatalf("run %d of %s mem %v: leaked temps: %v", run, p.Signature(), memSeq, names)
			}
		}
	})
}

// fuzzLeaf draws a scan of table — heap or index, with no predicate or a
// range on k of one or two bounds, each open or closed — and returns it
// with the predicate as the reference applies it.
func fuzzLeaf(pr *rand.Rand, table string, keyRange int64) (*plan.Node, func(int64) bool) {
	access, index := plan.AccessHeap, ""
	if pr.Intn(2) == 0 {
		access, index = plan.AccessIndex, "ix_"+table
	}
	leaf := plan.NewScan(table, access, index, 1, 1)
	keep := func(int64) bool { return true }
	if pr.Intn(3) == 0 {
		return leaf, keep
	}
	pred := &plan.ScanPred{Column: "k"}
	lo, hi := pr.Int63n(keyRange), pr.Int63n(keyRange)
	pred.HasLo, pred.HasHi = pr.Intn(3) != 0, pr.Intn(3) != 0
	pred.LoOpen, pred.HiOpen = pr.Intn(2) == 0, pr.Intn(2) == 0
	pred.Lo, pred.Hi = float64(lo), float64(hi)
	leaf.Pred = pred
	return leaf, func(k int64) bool {
		return (!pred.HasLo || k > lo || !pred.LoOpen && k == lo) &&
			(!pred.HasHi || k < hi || !pred.HiOpen && k == hi)
	}
}

// fuzzReference joins the tables on k by brute force in the plan's leaf
// order, each filtered by its leaf's predicate, as a multiset of output
// rows (the leaves' columns side by side).
func fuzzReference(t *testing.T, store *storage.Store, names []string, order []int, filters []func(int64) bool) multiset {
	t.Helper()
	rows := []storage.Tuple{nil}
	for pos, j := range order {
		rel, err := store.Get(names[j])
		if err != nil {
			t.Fatal(err)
		}
		var next []storage.Tuple
		for _, row := range rows {
			for _, tp := range rel.AllTuples() {
				if filters[pos](tp[0]) && (row == nil || row[0] == tp[0]) {
					next = append(next, append(slices.Clip(row), tp...))
				}
			}
		}
		rows = next
	}
	var m multiset
	for _, row := range rows {
		m.add(row)
	}
	return m
}

// TestOneScanOutputDropKeepsTable: a plan that is one unfiltered heap scan
// evaluates to its base table, and its output is still a temp, so a caller
// that drops the output the way every serving loop does leaves the table
// in the store. The output reads the table's tuples in order, charges no
// I/O, and the next plan over the table runs.
func TestOneScanOutputDropKeepsTable(t *testing.T) {
	set := newExecSet(t)
	table, err := set.store.Get("t2")
	if err != nil {
		t.Fatal(err)
	}
	want := table.AllTuples()
	names := len(set.store.Names())
	for range 3 {
		res, err := set.eng.ExecutePlan(plan.NewScan("t2", plan.AccessHeap, "", 1, 128), []float64{6})
		if err != nil {
			t.Fatal(err)
		}
		if res.Output == table {
			t.Fatal("the output is the base table")
		}
		if res.Stats.IO() != 0 {
			t.Fatalf("the lone scan charged %d I/Os, want 0", res.Stats.IO())
		}
		got := res.Output.AllTuples()
		if len(got) != len(want) || res.Output.NumPages() != table.NumPages() {
			t.Fatalf("output has %d tuples on %d pages, table %d on %d", len(got), res.Output.NumPages(), len(want), table.NumPages())
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("output tuple %d is %v, table's %v", i, got[i], want[i])
			}
		}
		set.store.Drop(res.Output.Name)
		if _, err := set.store.Get("t2"); err != nil {
			t.Fatalf("dropping the output dropped the table: %v", err)
		}
		if n := len(set.store.Names()); n != names {
			t.Fatalf("store holds %d relations after the drop, %d before", n, names)
		}
	}
	set.run(t)
}
