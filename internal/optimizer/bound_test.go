package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/plan"
	"lecopt/internal/query"
	"lecopt/internal/workload"
)

// namedScorer is one single-entry pass of an algorithm.
type namedScorer struct {
	alg string
	s   scorer
}

// boundedScorers lists the passes the bound applies to: LSC at the law's
// mean, Algorithm A's point passes, C under the static law and C-dynamic
// under dyn's phase laws.
func boundedScorers(t *testing.T, c *ctx, mem dist.Dist, dyn envsim.Env) []namedScorer {
	t.Helper()
	model := c.opts.CostModel
	out := []namedScorer{{"LSC", c.pointScorer(mem.Mean())}}
	for _, p := range c.bucketPoints(mem) {
		out = append(out, namedScorer{"A", c.pointScorer(p)})
	}
	laws, err := dyn.Chain.PhaseLaws(dyn.Mem, lastPhase(c.n)+1)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, namedScorer{"C", scorer{laws: []dist.Dist{mem}, model: model}}, namedScorer{"C-dynamic", scorer{laws: laws, model: model}})
}

// withDLaws installs Algorithm D's extra laws on c: a three-point law
// around the catalog's point selectivity (weights 1:4:1, so probabilities
// sum to 1 − 1 ulp) on each edge with odds one in two, and a size law on
// one table.
func withDLaws(t testing.TB, c *ctx, rng *rand.Rand) {
	t.Helper()
	sel := map[string]dist.Dist{}
	for _, j := range c.blk.Joins {
		if rng.Intn(2) == 0 {
			continue
		}
		s, err := c.cat.JoinPageSelectivity(j.Left.Table, j.Left.Column, j.Right.Table, j.Right.Column)
		if err != nil {
			t.Fatal(err)
		}
		sel[EdgeKey(j)] = dist.MustNew([]float64{s / 3, s, 3 * s}, []float64{1, 4, 1})
	}
	ti := c.tables[rng.Intn(c.n)]
	size := map[string]dist.Dist{ti.name: dist.MustNew([]float64{ti.pages / 2, ti.pages, 2 * ti.pages}, []float64{1, 4, 1})}
	if err := c.setSelLaws(sel); err != nil {
		t.Fatal(err)
	}
	if err := c.setSizeLaws(size); err != nil {
		t.Fatal(err)
	}
}

// dScorer builds Algorithm D's size table for c in a scratch, which the
// caller releases once done with the scorer.
func dScorer(t testing.TB, c *ctx, mem dist.Dist) (namedScorer, *dpScratch) {
	t.Helper()
	sc := getScratch(keepBest, 1, c.n)
	s, err := c.lawScorer(sc, mem)
	if err != nil {
		sc.release()
		t.Fatal(err)
	}
	return namedScorer{"D", s}, sc
}

// kernelWinner runs one single-entry pass under bound and returns its
// cheapest complete plan, nil when the table holds none.
func kernelWinner(t *testing.T, c *ctx, s scorer, bound float64) (sig string, score float64, ok bool) {
	t.Helper()
	sc := getScratch(keepBest, 1, c.n)
	defer sc.release()
	c.run(sc, s, bound)
	best := c.bestRoot(sc, s)
	if best == nil {
		return "", 0, false
	}
	return c.tree(sc, s, best).Signature(), best.score, true
}

// greedyNode builds the plan greedy recorded, walking its steps back from
// the slot it completes in.
func greedyNode(c *ctx, g greedyPlan) *plan.Node {
	slots := make([]int, c.n)
	slots[c.n-1] = g.slot
	for k := c.n - 1; k > 0; k-- {
		slots[k-1] = g.steps[k].left[slots[k]]
	}
	st := g.steps[0]
	node := c.tables[st.table].accesses[st.access[slots[0]]].node
	prefix := uint64(1) << uint(st.table)
	for k := 1; k < c.n; k++ {
		st := g.steps[k]
		m := st.method[slots[k]]
		merges := c.mergeOrders(st.table, prefix)
		prefix |= 1 << uint(st.table)
		right := c.tables[st.table].accesses[st.access[0]].node
		node = plan.NewJoin(m, node, right, c.size[prefix], c.joinOrder(m, merges, node.OutOrder))
	}
	if c.blk.OrderBy != nil && g.slot == 0 {
		node = plan.NewSort(node, c.required)
	}
	return node
}

// checkBoundedKernel holds every bounded pass of one prepared query to its
// unbounded twin: the same winner, to the signature and the last bit of its
// score. The bound must be the score of the plan
// greedy recorded — a plan in the searched space, so never below the
// optimum; Algorithm D's priced over its size laws (dScore) — priced
// without allocating, and absent under boundMinTables tables.
func checkBoundedKernel(t *testing.T, c *ctx, scorers []namedScorer) {
	t.Helper()
	for _, ns := range scorers {
		g := c.greedy(ns.s)
		bounded := !math.IsInf(g.score, 1)
		if c.n < boundMinTables && bounded {
			t.Fatalf("%s: %d tables bounded at %v", ns.alg, c.n, g.score)
		}
		if allocs := testing.AllocsPerRun(2, func() { c.greedy(ns.s) }); allocs != 0 {
			t.Fatalf("%s: greedy allocates %.0f times", ns.alg, allocs)
		}
		if bounded {
			node := greedyNode(c, g)
			var prefix uint64
			node.Walk(func(n *plan.Node) {
				if n.Kind != plan.KindScan {
					return
				}
				j := c.blk.TableIndex(n.Table)
				if prefix != 0 && !c.isCandidate(j, prefix|1<<uint(j)) {
					t.Fatalf("%s: greedy plan %s leaves the searched space", ns.alg, node.Signature())
				}
				prefix |= 1 << uint(j)
			})
			ec, err := ExpectedCostModel(c.opts.CostModel, node, ns.s.laws)
			if ns.s.sizes != nil {
				ec = dScore(c, ns.s.sizes, ns.s.laws[0], node)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !relClose(ec, g.score) {
				t.Fatalf("%s: bound %v, greedy plan %s prices at %v", ns.alg, g.score, node.Signature(), ec)
			}
		}
		if bounded {
			checkSkippedMasks(t, c, ns, g.score)
		}
		wantSig, want, ok := kernelWinner(t, c, ns.s, math.Inf(1))
		if !ok {
			t.Fatalf("%s: unbounded pass found no plan", ns.alg)
		}
		if want > g.score {
			t.Fatalf("%s: bound %v below the optimum %v", ns.alg, g.score, want)
		}
		gotSig, got, ok := kernelWinner(t, c, ns.s, g.score)
		if !ok || gotSig != wantSig || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s bound %v: bounded winner %s at %v, unbounded %s at %v",
				ns.alg, g.score, gotSig, got, wantSig, want)
		}
	}
}

// checkSkippedMasks holds setBars's −1 to what it claims: a mask it bars
// there holds, in the unbounded pass, no entry its floored bar would admit.
func checkSkippedMasks(t *testing.T, c *ctx, ns namedScorer, bound float64) {
	t.Helper()
	barred := getScratch(keepBest, 1, c.n)
	defer barred.release()
	c.setBars(barred, ns.s, bound)
	open := getScratch(keepBest, 1, c.n)
	defer open.release()
	c.run(open, ns.s, math.Inf(1))
	full := fullMask(c.n)
	for mask := uint64(3); mask < full; mask++ {
		if mask&(mask-1) == 0 || barred.bar[cell(mask, 0)] != -1 {
			continue
		}
		floor := barred.floor[mask]
		for j := range c.n {
			if mask&(1<<uint(j)) == 0 {
				floor += barred.floor[1<<uint(j)]
			}
		}
		bar := bound*(1+boundSlack) - floor
		for slot := range 2 {
			for _, e := range open.list(cell(mask, slot)) {
				if !(e.score > bar) {
					t.Fatalf("%s: mask %b skipped, but holds %+v within its bar %v", ns.alg, mask, e, bar)
				}
			}
		}
	}
}

// edgeHint is a size hint on a random join edge of the block.
func edgeHint(rng *rand.Rand, blk *query.Block) map[string]float64 {
	j := blk.Joins[rng.Intn(len(blk.Joins))]
	return map[string]float64{j.Left.Table + "+" + j.Right.Table: float64(1 + rng.Intn(5000))}
}

// TestBoundedKernelExact holds the bounded kernel to the unbounded one on
// 2–10-table chains, stars, cliques and random graphs, with no hints, one
// hinted edge and random hinted subsets, under both cost models: LSC,
// Algorithm A's point passes, C and C-dynamic — and up to 9 tables
// Algorithm D, with selectivity laws on edges and a table size law — must
// find the same plan at the same bits. Below boundMinTables tables and on a disconnected join
// graph there is no bound.
func TestBoundedKernelExact(t *testing.T) {
	envs, sticky := pinSticky(t)
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	i := 0
	for n := 2; n <= 10; n++ {
		for _, shape := range shapes {
			i++
			sc := wideScenario(t, n, shape, int64(9700+i))
			rng := rand.New(rand.NewSource(int64(9800 + i)))
			mem := envs[i%len(envs)].Env.Mem
			hintSets := []map[string]float64{nil}
			if n >= boundMinTables {
				hintSets = append(hintSets, edgeHint(rng, sc.Block), randomHints(rng, sc.Block.Tables))
			}
			for _, hints := range hintSets {
				for _, model := range []cost.Model{cost.ModelPaper, cost.ModelEngine} {
					c, err := prepare(sc.Cat, sc.Block, Options{CostModel: model, SizeHints: hints})
					if err != nil {
						t.Fatal(err)
					}
					checkBoundedKernel(t, c, boundedScorers(t, c, mem, sticky.Env))
					if n > 9 {
						continue
					}
					withDLaws(t, c, rng)
					d, scr := dScorer(t, c, mem)
					checkBoundedKernel(t, c, []namedScorer{d})
					scr.release()
				}
			}
		}
	}

	// Cutting every edge of the last table leaves a graph the greedy order
	// cannot cover.
	sc := wideScenario(t, 7, workload.Chain, 9790)
	blk := sc.Block.Clone()
	last := blk.Tables[len(blk.Tables)-1]
	blk.Joins = nil
	for _, j := range sc.Block.Joins {
		if j.Left.Table != last && j.Right.Table != last {
			blk.Joins = append(blk.Joins, j)
		}
	}
	if blk.OrderBy != nil && blk.OrderBy.Table == last {
		blk.OrderBy = nil
	}
	c, err := prepare(sc.Cat, blk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withDLaws(t, c, rand.New(rand.NewSource(9791)))
	d, scr := dScorer(t, c, envs[1].Env.Mem)
	defer scr.release()
	scorers := append(boundedScorers(t, c, envs[1].Env.Mem, sticky.Env), d)
	for _, ns := range scorers {
		if g := c.greedy(ns.s); !math.IsInf(g.score, 1) {
			t.Fatalf("%s: disconnected query bounded at %v", ns.alg, g.score)
		}
	}
	checkBoundedKernel(t, c, scorers)
}

// TestFloorPageCap holds the floor to the page cap on a 6-table chain whose
// every multi-table subset is hinted past 1e17 pages, under ModelEngine:
// its grace hash counts at most 2⁵² pages per input, so the cheapest plan
// costs far less than an uncapped floor, which would bar every subplan. The
// bounded passes must still find the unbounded winner, with grace hash
// alone and with the paper's three methods.
func TestFloorPageCap(t *testing.T) {
	envs, sticky := pinSticky(t)
	sc := wideScenario(t, 6, workload.Chain, 9795)
	hints := map[string]float64{}
	for mask := 1; mask < 1<<6; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		var set []string
		for i, name := range sc.Block.Tables {
			if mask&(1<<i) != 0 {
				set = append(set, name)
			}
		}
		hints[strings.Join(set, "+")] = 1e17 * (1 + float64(mask)/64)
	}
	for _, methods := range [][]cost.JoinMethod{{cost.GraceHash}, cost.PaperMethods} {
		c, err := prepare(sc.Cat, sc.Block, Options{CostModel: cost.ModelEngine, Methods: methods, SizeHints: hints})
		if err != nil {
			t.Fatal(err)
		}
		mem := envs[0].Env.Mem
		d, scr := dScorer(t, c, mem)
		checkBoundedKernel(t, c, append(boundedScorers(t, c, mem, sticky.Env), d))
		scr.release()
	}
}

// FuzzBoundedKernel compares bounded and unbounded passes on a 4–9-table
// query of any shape, with no hints, a hinted edge or random hinted subsets,
// under one of the standard memory laws and either cost model — Algorithm D
// with selectivity laws on edges and a table size law. It needs no
// exhaustive oracle, so it reaches widths where the bound prunes.
func FuzzBoundedKernel(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(uint8(i*29), int64(i), uint8(i), i%2 == 1)
	}
	envs, sticky := pinSticky(f)
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	f.Fuzz(func(t *testing.T, scenario uint8, hintSeed int64, law uint8, engine bool) {
		i := int(scenario)
		sc := wideScenario(t, boundMinTables+i%6, shapes[i%len(shapes)], int64(9900+i))
		rng := rand.New(rand.NewSource(hintSeed))
		opts := Options{}
		switch rng.Intn(3) {
		case 1:
			opts.SizeHints = edgeHint(rng, sc.Block)
		case 2:
			opts.SizeHints = randomHints(rng, sc.Block.Tables)
		}
		if engine {
			opts.CostModel = cost.ModelEngine
		}
		c, err := prepare(sc.Cat, sc.Block, opts)
		if err != nil {
			t.Fatal(err)
		}
		mem := envs[int(law)%len(envs)].Env.Mem
		checkBoundedKernel(t, c, boundedScorers(t, c, mem, sticky.Env))
		withDLaws(t, c, rng)
		d, scr := dScorer(t, c, mem)
		defer scr.release()
		checkBoundedKernel(t, c, []namedScorer{d})
	})
}

// BenchmarkKernel times LSC and Algorithm C on 4-, 6-, 8- and
// 10-table queries of every shape, and Algorithm D (selectivity laws on
// edges, a table size law) on 6 and 8: the pass dpBest or dpLaws runs —
// D's size table and the greedy bound included — and the same pass with
// every bar at +Inf (…/unbounded). Algorithms A and B are timed whole: A
// under the 4-bucket law and a 27-bucket one on 6 and 8
// tables (…/b=4, …/b=27: a bounded point pass per bucket and the mean,
// each winner priced under the law), B at c = 3 under the 4-bucket law on
// 4, 6 and 8 tables (its unbounded top-c passes).
func BenchmarkKernel(b *testing.B) {
	mem := dist.MustNew([]float64{64, 256, 1024, 4096}, []float64{4, 3, 2, 1})
	fine, err := dist.EquiWidth(64, 4096, 27, func(c float64) float64 { return 1 / c })
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 6, 8, 10} {
		for si, shape := range []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random} {
			sc := wideScenario(b, n, shape, int64(9600+10*n+si))
			if n == 6 || n == 8 {
				for _, law := range []dist.Dist{mem, fine} {
					b.Run(fmt.Sprintf("A/t%d/%s/b=%d", n, shape, law.Len()), func(b *testing.B) {
						for b.Loop() {
							if _, err := AlgorithmA(sc.Cat, sc.Block, Options{}, law); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
			if n <= 8 {
				b.Run(fmt.Sprintf("B/t%d/%s/c=3", n, shape), func(b *testing.B) {
					for b.Loop() {
						if _, err := AlgorithmB(sc.Cat, sc.Block, Options{}, mem, 3); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			c, err := prepare(sc.Cat, sc.Block, Options{})
			if err != nil {
				b.Fatal(err)
			}
			type pass struct {
				alg string
				c   *ctx
				s   scorer
			}
			passes := []pass{
				{"LSC", c, c.pointScorer(mem.Mean())},
				{"C", c, scorer{laws: []dist.Dist{mem}, model: c.opts.CostModel}},
			}
			if n == 6 || n == 8 {
				cd, err := prepare(sc.Cat, sc.Block, Options{})
				if err != nil {
					b.Fatal(err)
				}
				withDLaws(b, cd, rand.New(rand.NewSource(int64(9700+10*n+si))))
				passes = append(passes, pass{"D", cd, scorer{}})
			}
			for _, p := range passes {
				for _, bounded := range []bool{true, false} {
					name := fmt.Sprintf("%s/t%d/%s", p.alg, n, shape)
					if !bounded {
						name += "/unbounded"
					}
					b.Run(name, func(b *testing.B) {
						for b.Loop() {
							c, s := p.c, p.s
							scr := getScratch(keepBest, 1, c.n)
							if p.alg == "D" {
								if s, err = c.lawScorer(scr, mem); err != nil {
									b.Fatal(err)
								}
							}
							bound := math.Inf(1)
							if bounded {
								bound = c.greedy(s).score
							}
							c.run(scr, s, bound)
							if c.bestRoot(scr, s) == nil {
								b.Fatal(ErrNoPlan)
							}
							scr.release()
						}
					})
				}
			}
		}
	}
}
