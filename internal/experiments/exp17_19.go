package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/engine"
	"lecopt/internal/optimizer"
	"lecopt/internal/parametric"
	"lecopt/internal/plan"
	"lecopt/internal/query"
	"lecopt/internal/storage"
)

// e17EndToEnd plans a three-table chain with the optimizer, then EXECUTES
// the chosen plans on the mini engine (real sort-merge / grace-hash /
// nested-loop implementations over synthetic pages, per-phase memory,
// enforcer sort included) and compares whole-plan measured I/O against the
// analytic C(P, m). Claims: measured cost is non-increasing in memory for
// every plan (same threshold structure) and the measured/model ratio stays
// within a small constant band.
func e17EndToEnd() (Table, error) {
	// Sizes scaled so Example 1.1's tension appears at engine scale: with
	// memory arms {7, 40}, sort-merge (pivot √L = 8) loses a level at the
	// low arm while grace hash (pivot √S ≈ 6.93) does not.
	const (
		tpp      = 6
		pagesA   = 64
		pagesB   = 48
		pagesC   = 12
		keyRange = 600
	)
	// Physical data.
	rng := rand.New(rand.NewSource(17))
	store := storage.NewStore()
	for _, spec := range []struct {
		name  string
		pages int
	}{{"A", pagesA}, {"B", pagesB}, {"C", pagesC}} {
		rel, err := storage.Generate(storage.GenSpec{
			Name: spec.name, Pages: spec.pages, TuplesPerPage: tpp, KeyRange: keyRange,
		}, rng)
		if err != nil {
			return Table{}, err
		}
		if err := store.Add(rel); err != nil {
			return Table{}, err
		}
	}
	eng := engine.New(store)

	// Matching catalog: statistics agree with the physical generator, so
	// the optimizer's size estimates equal the expected actual sizes.
	cat := catalog.New()
	for _, spec := range []struct {
		name  string
		pages float64
	}{{"A", pagesA}, {"B", pagesB}, {"C", pagesC}} {
		tab := catalog.MustTable(spec.name, spec.pages, spec.pages*tpp,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: keyRange, Min: 0, Max: keyRange})
		if err := cat.AddTable(tab); err != nil {
			return Table{}, err
		}
	}
	blk := &query.Block{
		Tables: []string{"A", "B", "C"},
		Joins: []query.Join{
			{Left: query.ColRef{Table: "A", Column: "k"}, Right: query.ColRef{Table: "B", Column: "k"}},
			{Left: query.ColRef{Table: "B", Column: "k"}, Right: query.ColRef{Table: "C", Column: "k"}},
		},
		OrderBy: &query.ColRef{Table: "A", Column: "k"},
	}
	if err := blk.Validate(cat); err != nil {
		return Table{}, err
	}
	opts := optimizer.Options{Methods: []cost.JoinMethod{cost.SortMerge, cost.GraceHash}}

	// Plans under contrasting assumptions.
	lscHi, err := optimizer.LSC(cat, blk, opts, 40)
	if err != nil {
		return Table{}, err
	}
	mem := dist.MustNew([]float64{7, 40}, []float64{0.5, 0.5})
	lec, err := optimizer.AlgorithmC(cat, blk, opts, mem)
	if err != nil {
		return Table{}, err
	}
	// Ordered slice, not a map: row order must be deterministic for the
	// golden-table diffing of the experiment outputs.
	type namedPlan struct {
		name string
		p    *plan.Node
	}
	plans := []namedPlan{{"lsc@40", lscHi.Plan}}
	if lec.Plan.Signature() != lscHi.Plan.Signature() {
		plans = append(plans, namedPlan{"lec", lec.Plan})
	}

	t := Table{
		ID:      "E17",
		Title:   "Whole-plan execution: measured engine I/O vs analytic C(P,m) (3-table chain)",
		Headers: []string{"plan", "mem", "measured I/O", "model C(P,m)", "ratio"},
	}
	pass := true
	for _, np := range plans {
		name, p := np.name, np.p
		prev := int64(-1)
		for _, m := range []float64{7, 12, 40} {
			res, err := eng.ExecutePlan(p, []float64{m, m})
			if err != nil {
				return Table{}, err
			}
			store.Drop(res.Output.Name)
			model, err := costAt(p, m)
			if err != nil {
				return Table{}, err
			}
			ratio := float64(res.Stats.IO()) / model
			if ratio < 0.3 || ratio > 3.5 {
				pass = false
			}
			if prev >= 0 {
				slack := prev / 20
				if slack < 2 {
					slack = 2
				}
				if res.Stats.IO() > prev+slack {
					pass = false
				}
			}
			prev = res.Stats.IO()
			t.Rows = append(t.Rows, []string{
				name, fmtF(m), fmt.Sprintf("%d", res.Stats.IO()), fmtF(model), fmtRatio(ratio),
			})
		}
	}
	t.Pass = pass
	t.Notes = append(t.Notes,
		"each plan executed end-to-end: scans, per-phase joins, intermediate hand-off, root sort",
		"measured I/O non-increasing in memory per plan; measured/model ratio within [0.3, 3.5]",
		"absolute ratios differ because the model charges the paper's simplified pass counts")
	return t, nil
}

// e18Parametric exercises the paper's proposed combination with parametric
// query optimization [INSS92]: precompute LEC plans for a coverage grid of
// anticipated laws, then at "start-up time" face laws on and off the grid
// and compare the cached selection against full re-optimization.
func e18Parametric() (Table, error) {
	cat, blk, err := Example11()
	if err != nil {
		return Table{}, err
	}
	opts := Example11Opts()
	grid := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	laws, err := parametric.CoverageGrid(700, 2000, grid)
	if err != nil {
		return Table{}, err
	}
	cache, err := parametric.Precompute(cat, blk, opts, laws)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "E18",
		Title: "Parametric LEC cache ([INSS92] + §3.4): cached plans vs full re-optimization",
		Headers: []string{
			"actual Pr(low)", "on grid", "EC(cache select)", "EC(full opt)", "regret",
		},
	}
	pass := true
	worst := 0.0
	// 0.001 sits below Example 1.1's plan-flip point (≈0.0021), far off
	// any grid law — the stress case for the cache.
	probes := []float64{0, 0.001, 0.01, 0.1, 0.2, 0.45, 0.7, 1}
	for _, p := range probes {
		actual, err := dist.Bimodal(700, 2000, p)
		if err != nil {
			return Table{}, err
		}
		_, cachedEC, err := cache.SelectByEC(actual)
		if err != nil {
			return Table{}, err
		}
		full, err := optimizer.AlgorithmC(cat, blk, opts, actual)
		if err != nil {
			return Table{}, err
		}
		regret := cachedEC/full.EC - 1
		if regret < -1e-9 {
			pass = false // the cache cannot beat full optimization
		}
		onGrid := false
		for _, g := range grid {
			if g == p {
				onGrid = true
			}
		}
		if onGrid && regret > 1e-9 {
			pass = false // grid laws must be answered optimally
		}
		if regret > worst {
			worst = regret
		}
		t.Rows = append(t.Rows, []string{
			fmtRatio(p), fmt.Sprintf("%v", onGrid), fmtF(cachedEC), fmtF(full.EC), fmt.Sprintf("%.4f", regret),
		})
	}
	if worst > 0.15 {
		pass = false
	}
	t.Pass = pass
	t.Notes = append(t.Notes,
		fmt.Sprintf("cache: %d anticipated laws collapsed to %d distinct plans", cache.Len(), cache.Plans()),
		"regret 0 everywhere: both contending plans are cached, and re-costing them under the",
		"actual law (Algorithm A over the cache) recovers the optimum without a plan-space search")
	return t, nil
}

// e19LevelSetEC checks the closing idea of Section 3.7: computing EC(P)
// with one cost evaluation per level set. The level-set evaluation must
// equal the dense per-bucket expectation while its evaluation count stays
// bounded by the plan's level-set count, independent of the law's b.
func e19LevelSetEC() (Table, error) {
	a := plan.NewScan("a", plan.AccessHeap, "", 1, 10_000)
	b := plan.NewScan("b", plan.AccessHeap, "", 1, 4_000)
	j1 := plan.NewJoin(cost.SortMerge, a, b, 2_000, plan.Order{})
	c := plan.NewScan("c", plan.AccessHeap, "", 1, 500)
	j2 := plan.NewJoin(cost.GraceHash, j1, c, 300, plan.Order{})
	root := plan.NewSort(j2, plan.Order{Table: "a", Column: "k"})

	breaks, err := planBreakpoints(root, 8)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "E19",
		Title:   "§3.7 level-set EC: cost evaluations vs law size b",
		Headers: []string{"b", "dense evals", "level-set evals", "equal"},
	}
	rng := rand.New(rand.NewSource(19))
	pass := true
	for _, bN := range []int{4, 16, 64, 256, 1024} {
		vals := make([]float64, bN)
		probs := make([]float64, bN)
		for i := range vals {
			vals[i] = 3 + rng.Float64()*20000
			probs[i] = rng.Float64() + 0.01
		}
		mem := dist.MustNew(vals, probs)
		want, err := paperCost(root, []dist.Dist{mem})
		if err != nil {
			return Table{}, err
		}
		got, evals, err := planECLevelSets(root, mem, 8)
		if err != nil {
			return Table{}, err
		}
		equal := math.Abs(got-want) <= 1e-9*math.Max(1, want)
		if !equal || evals > len(breaks)+1 {
			pass = false
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", bN), fmt.Sprintf("%d", mem.Len()), fmt.Sprintf("%d", evals), fmt.Sprintf("%v", equal),
		})
	}
	t.Pass = pass
	t.Notes = append(t.Notes,
		fmt.Sprintf("this plan has %d memory breakpoints → at most %d occupied level sets", len(breaks), len(breaks)+1),
		"evaluation count saturates while dense evaluation grows linearly in b")
	return t, nil
}
