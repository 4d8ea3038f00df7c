package optimizer

import (
	"fmt"
	"math/rand"
	"testing"

	"lecopt/internal/dist"
	"lecopt/internal/plan"
	"lecopt/internal/workload"
)

// TestNodeArena exercises the arena mechanics directly: stable distinct
// pointers across chunk boundaries, undo, ownership, and a reset that
// really zeroes the used prefix.
func TestNodeArena(t *testing.T) {
	var a nodeArena
	n := arenaChunkSize*2 + 7 // force two chunk-boundary crossings
	nodes := make([]*plan.Node, n)
	for i := range nodes {
		nodes[i] = a.alloc()
		nodes[i].OutPages = float64(i + 1) // tag to detect aliasing
	}
	seen := make(map[*plan.Node]bool, n)
	for i, p := range nodes {
		if seen[p] {
			t.Fatalf("alloc %d returned an already-handed-out pointer", i)
		}
		seen[p] = true
		if p.OutPages != float64(i+1) {
			t.Fatalf("node %d overwritten: OutPages=%v", i, p.OutPages)
		}
		if !a.owns(p) {
			t.Fatalf("owns(node %d) = false", i)
		}
	}
	if a.owns(&plan.Node{}) {
		t.Fatal("owns reported a foreign node")
	}

	a.undo()
	redo := a.alloc()
	if redo != nodes[n-1] {
		t.Fatal("alloc after undo did not reuse the undone slot")
	}
	if redo.OutPages != 0 {
		t.Fatalf("undone slot not zeroed: OutPages=%v", redo.OutPages)
	}

	a.reset()
	if a.ci != 0 || a.ni != 0 {
		t.Fatalf("reset left cursor at (%d,%d)", a.ci, a.ni)
	}
	for i := 0; i < n; i++ {
		if p := a.alloc(); p.OutPages != 0 {
			t.Fatalf("post-reset alloc %d not zeroed: OutPages=%v", i, p.OutPages)
		}
	}
}

// wideScenario generates a deterministic n-table scenario whose DP ranks
// are wide enough to exercise the parallel enumeration.
func wideScenario(t *testing.T, n int, shape workload.Shape, seed int64) workload.Scenario {
	t.Helper()
	sc, err := workload.Generate(workload.DefaultSpec(n, shape), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func resultKey(r Result) string {
	return fmt.Sprintf("%s|%v|%d|%d", r.Plan.Signature(), r.EC, r.Candidates, r.Probes)
}

// TestRankParallelDPMatchesSerial pins the tentpole determinism claim: the
// rank-parallel subset enumeration is byte-identical to the serial pass at
// every worker count, on queries wide enough (8-10 tables) for the widest
// ranks to clear dpParallelMinMasks naturally.
func TestRankParallelDPMatchesSerial(t *testing.T) {
	mem := dist.MustNew([]float64{64, 512, 4096}, []float64{1, 2, 1})
	for i, tc := range []struct {
		n     int
		shape workload.Shape
	}{
		{8, workload.Chain}, {8, workload.Random}, {9, workload.Star},
		{9, workload.Random}, {10, workload.Chain}, {10, workload.Random},
	} {
		sc := wideScenario(t, tc.n, tc.shape, int64(4000+i))
		c, err := prepare(sc.Cat, sc.Block, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range []scorer{
			pointScorer(mem.Mean(), c.opts.CostModel),
			{staticLaws(mem, c.n), c.opts.CostModel},
		} {
			serial, err := c.dpBestW(s, 1)
			if err != nil {
				t.Fatalf("case %d: serial: %v", i, err)
			}
			for _, workers := range []int{4, 8} {
				par, err := c.dpBestW(s, workers)
				if err != nil {
					t.Fatalf("case %d: workers=%d: %v", i, workers, err)
				}
				if resultKey(serial) != resultKey(par) {
					t.Fatalf("case %d (scorer %d): workers=%d diverged:\n serial   %s\n parallel %s",
						i, si, workers, resultKey(serial), resultKey(par))
				}
			}
		}
	}
}

// TestRankParallelForcedOnCorpus lowers the parallel gate to 2 masks so
// the chunked path runs on every rank of every scenario, then replays the
// differential corpus's 200 generation specs (seeds 7000+i, 2-4 tables,
// cycling shapes — the same instances the root differential suite pins
// against ground truth) through Algorithm C at workers {1,4,8}, requiring
// identical results.
func TestRankParallelForcedOnCorpus(t *testing.T) {
	old := dpParallelMinMasks
	dpParallelMinMasks = 2
	defer func() { dpParallelMinMasks = old }()

	mem := dist.MustNew([]float64{128, 1024, 8192}, []float64{2, 1, 1})
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	for i := 0; i < 200; i++ {
		sc := wideScenario(t, 2+i%3, shapes[i%len(shapes)], int64(7000+i))
		base, err := AlgorithmC(sc.Cat, sc.Block, Options{Workers: 1}, mem)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 8} {
			got, err := AlgorithmC(sc.Cat, sc.Block, Options{Workers: workers}, mem)
			if err != nil {
				t.Fatal(err)
			}
			if resultKey(base) != resultKey(got) {
				t.Fatalf("scenario %d: AlgorithmC workers=%d diverged:\n serial   %s\n parallel %s",
					i, workers, resultKey(base), resultKey(got))
			}
		}
	}
}

// TestResultSurvivesScratchReuse guards the arena-escape contract from the
// behavioral side: a Result captured early must be unchanged — same
// signature, every node intact — after many later optimizations have
// recycled the pooled scratches its DP used.
func TestResultSurvivesScratchReuse(t *testing.T) {
	mem := dist.MustNew([]float64{100, 2000}, []float64{1, 1})
	sc := wideScenario(t, 6, workload.Random, 42)
	first, err := AlgorithmC(sc.Cat, sc.Block, Options{}, mem)
	if err != nil {
		t.Fatal(err)
	}
	sig := first.Plan.Signature()

	for seed := int64(0); seed < 30; seed++ {
		other := wideScenario(t, 3+int(seed%5), workload.Shape(seed%4), 6000+seed)
		if _, err := AlgorithmC(other.Cat, other.Block, Options{}, mem); err != nil {
			t.Fatal(err)
		}
	}
	if got := first.Plan.Signature(); got != sig {
		t.Fatalf("captured plan mutated by scratch reuse:\n before %s\n after  %s", sig, got)
	}
}

// TestResultOwnsNoArenaNodes checks the contract directly with the owns
// hook: no node reachable from a returned Result points into the pooled
// scratch arenas that produced it.
func TestResultOwnsNoArenaNodes(t *testing.T) {
	mem := dist.MustNew([]float64{100, 2000}, []float64{1, 1})
	sc := wideScenario(t, 6, workload.Random, 43)
	c, err := prepare(sc.Cat, sc.Block, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.dpBestW(scorer{staticLaws(mem, c.n), c.opts.CostModel}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Single-goroutine sync.Pool gives back the scratch dpBestW just
	// released; the chunk check keeps the test honest if it ever does not.
	used := getScratch()
	defer used.release()
	if len(used.workers) == 0 || len(used.workers[0].arena.chunks) == 0 {
		t.Skip("pool returned a scratch that ran no DP; ownership not checkable")
	}
	res.Plan.Walk(func(n *plan.Node) {
		for i := range used.workers {
			if used.workers[i].arena.owns(n) {
				t.Fatalf("Result plan node %p lives in a pooled arena", n)
			}
		}
	})
}
