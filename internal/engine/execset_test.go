package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"lecopt/internal/buffer"
	"lecopt/internal/cost"
	"lecopt/internal/plan"
	"lecopt/internal/storage"
)

// execSet is a fixed plan set shaped like the bench exec_loop workload, for
// the engine alone: four relations of 6-tuple pages over 1 200 keys, each
// with an index on "k" (t0's clustered), and one left-deep 3-join plan per
// method and memory — sort-merge, grace hash and block nested loop at 6
// and 96 pages. Each plan reads t0 through its index, t1 through a
// filtered heap scan and t2, t3 whole, and sorts its output on t0.k: at 6
// pages the sort spills (SortRelation), at 96 it runs in memory.
type execSet struct {
	store *storage.Store
	eng   *Engine
	plans []*plan.Node
	mems  [][]float64
	rows  []int // output rows per plan, from the first run
}

// newExecStore builds the plan set's store: the same four relations and
// indexes on every call.
func newExecStore(tb testing.TB) *storage.Store {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	s := storage.NewStore()
	for i, pages := range []int{64, 96, 128, 160} {
		name := fmt.Sprintf("t%d", i)
		spec := storage.GenSpec{Name: name, Pages: pages, TuplesPerPage: 6, KeyRange: 1200}
		gen := storage.Generate
		if i == 0 {
			gen = storage.GenerateSorted
		}
		rel, err := gen(spec, rng)
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Add(rel); err != nil {
			tb.Fatal(err)
		}
		if _, err := storage.BuildIndex(s, "ix_"+name+"_k", name, "k", i == 0, 16); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

func newExecSet(tb testing.TB) *execSet {
	tb.Helper()
	s := newExecStore(tb)
	set := &execSet{store: s, eng: New(s)}
	for _, m := range []cost.JoinMethod{cost.SortMerge, cost.GraceHash, cost.BlockNL} {
		for _, mem := range []float64{6, 96} {
			t0 := plan.NewScan("t0", plan.AccessIndex, "ix_t0_k", 1, 64)
			t1 := plan.NewScan("t1", plan.AccessHeap, "", 0.6, 58)
			t1.Pred = &plan.ScanPred{Column: "k", Hi: 719, HasHi: true}
			j := plan.NewJoin(m, t0, t1, 19, plan.Order{})
			j = plan.NewJoin(m, j, plan.NewScan("t2", plan.AccessHeap, "", 1, 128), 12, plan.Order{})
			j = plan.NewJoin(m, j, plan.NewScan("t3", plan.AccessHeap, "", 1, 160), 10, plan.Order{})
			set.plans = append(set.plans, plan.NewSort(j, plan.Order{Table: "t0", Column: "k"}))
			set.mems = append(set.mems, []float64{mem, mem, mem})
		}
	}
	set.rows = make([]int, len(set.plans))
	for i := range set.plans {
		res, err := set.eng.ExecutePlan(set.plans[i], set.mems[i])
		if err != nil {
			tb.Fatal(err)
		}
		set.rows[i] = res.Output.NumTuples()
		s.Drop(res.Output.Name)
	}
	return set
}

// run executes every plan of the set once, checking its row count and
// dropping its output, and returns the pages it read and wrote.
func (set *execSet) run(tb testing.TB) int64 {
	var pages int64
	for i, p := range set.plans {
		res, err := set.eng.ExecutePlan(p, set.mems[i])
		if err != nil {
			tb.Fatal(err)
		}
		if n := res.Output.NumTuples(); n != set.rows[i] {
			tb.Fatalf("plan %d: %d rows, first run %d", i, n, set.rows[i])
		}
		set.store.Drop(res.Output.Name)
		pages += res.Stats.IO()
	}
	return pages
}

// execSetAllocs and execSetBytes are TestExecutePlanAllocs' ceilings per
// plan set: 31 allocations measured without -race and 34 with it, and
// about 2 000 bytes. In steady state an execution allocates only its
// result — PhaseIO, PhaseMem and the JoinSizes map, 4 per plan — and the
// first measured round still grows the store's free lists. A join's key
// is built once per plan node and its output's row slabs go back to the
// store when the output is dropped, so a row slab drawn fresh per
// execution reads in the tens of kilobytes, and keys built per execution
// at 3 more allocations per plan. An engine that builds a pool per
// operator, or temps that allocate their pages again, reads in the
// thousands.
const (
	execSetAllocs = 36
	execSetBytes  = 4 << 10
)

// TestExecutePlanAllocs gates the engine's allocations and bytes on a
// warmed engine over the exec_loop-shaped plan set.
func TestExecutePlanAllocs(t *testing.T) {
	set := newExecSet(t)
	set.run(t)
	allocs := testing.AllocsPerRun(10, func() { set.run(t) })
	t.Logf("%.0f allocations per plan set of %d", allocs, len(set.plans))
	if allocs > execSetAllocs {
		t.Fatalf("%.0f allocations per plan set, ceiling %d", allocs, execSetAllocs)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		set.run(t)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per plan set", bytes)
	if bytes > execSetBytes {
		t.Fatalf("%d bytes per plan set, ceiling %d", bytes, execSetBytes)
	}
}

// join is JoinDetailed without the execution-shape detail.
func (e *Engine) join(spec JoinSpec, mem int) (*storage.Relation, buffer.Stats, error) {
	rel, st, _, err := e.JoinDetailed(spec, mem)
	return rel, st, err
}

// TestResultSurvivesEngineReuse: an ExecResult's output must not point into
// storage the engine or its store recycles. Three outputs are captured —
// an ORDER BY whose root sort spills over a join (SortRelation), one whose
// sort fits in memory (materializeSorted), and a root join — and kept
// undropped while the same engine runs many more plans at mixed methods
// and memories, dropping theirs. Every kept output must still read as
// captured. Both sorted outputs hold the tuples of a join temp the
// executor dropped before returning, so a store that recycled row storage
// would rewrite them.
func TestResultSurvivesEngineReuse(t *testing.T) {
	set := newExecSet(t)
	sorted := set.plans[0] // sort-merge, ORDER BY t0.k
	join := sorted.Child
	type kept struct {
		name string
		res  ExecResult
		rows [][]storage.Tuple // deep copy, page by page
	}
	var held []kept
	capture := func(name string, p *plan.Node, mem float64) {
		res, err := set.eng.ExecutePlan(p, []float64{mem, mem, mem})
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]storage.Tuple
		for i := 0; i < res.Output.NumPages(); i++ {
			page, _ := res.Output.Page(i)
			cp := make([]storage.Tuple, len(page))
			for j, tp := range page {
				cp[j] = append(storage.Tuple(nil), tp...)
			}
			rows = append(rows, cp)
		}
		held = append(held, kept{name, res, rows})
	}
	capture("spilled sort", sorted, 6)
	capture("in-memory sort", sorted, 96)
	capture("root join", join, 6)
	if n := held[2].res.Output.NumPages(); n <= 6 || n > 96 {
		t.Fatalf("the join under the sort has %d pages: the sort no longer spills at 6 pages and fits at 96", n)
	}
	for i := 0; i < 60; i++ {
		p := set.plans[i%len(set.plans)]
		if i%3 == 1 {
			p = p.Child
		}
		mem := []float64{3, 5, 6, 12, 24, 96, 288}[i%7]
		res, err := set.eng.ExecutePlan(p, []float64{mem, mem + 1, mem})
		if err != nil {
			t.Fatal(err)
		}
		set.store.Drop(res.Output.Name)
	}
	for _, k := range held {
		out := k.res.Output
		if out.NumPages() != len(k.rows) {
			t.Fatalf("%s: %d pages, captured %d", k.name, out.NumPages(), len(k.rows))
		}
		for i, want := range k.rows {
			page, _ := out.Page(i)
			if len(page) != len(want) {
				t.Fatalf("%s: page %d holds %d tuples, captured %d", k.name, i, len(page), len(want))
			}
			for j := range want {
				if !slices.Equal(page[j], want[j]) {
					t.Fatalf("%s: page %d tuple %d is %v, captured %v", k.name, i, j, page[j], want[j])
				}
			}
		}
		set.store.Drop(out.Name)
	}
}
