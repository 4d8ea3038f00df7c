package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"lecopt/internal/bucketing"
	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/engine"
	"lecopt/internal/envsim"
	"lecopt/internal/expcost"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/query"
	"lecopt/internal/storage"
	"lecopt/internal/workload"
)

// e9DynamicMemory exercises Theorem 3.4: with memory evolving between
// phases as a Markov chain, dynamic Algorithm C (phase-law costing) finds
// the plan of least expected cost; plans chosen by static-law or
// point-estimate optimization can only tie or lose under the true phase
// laws.
func e9DynamicMemory() (Table, error) {
	t := Table{
		ID:      "E9",
		Title:   "Dynamic memory (Markov phases): EC under true phase laws",
		Headers: []string{"chain", "EC(dynC)", "EC(staticC)", "EC(LSC-mean)", "dyn=oracle"},
	}
	rng := rand.New(rand.NewSource(9))
	sc, err := workload.Generate(workload.DefaultSpec(4, workload.Chain), rng)
	if err != nil {
		return Table{}, err
	}
	states := []float64{8, 64, 2048}
	init, err := dist.Uniform(states...)
	if err != nil {
		return Table{}, err
	}
	chains := []struct {
		name string
		mk   func() (*dist.Chain, error)
	}{
		{"sticky(0.9)", func() (*dist.Chain, error) { return dist.Sticky(states, 0.9) }},
		{"volatile walk", func() (*dist.Chain, error) { return dist.RandomWalk(states, 0.45, 0.45) }},
		{"drift down", func() (*dist.Chain, error) { return dist.RandomWalk(states, 0.05, 0.6) }},
	}
	pass := true
	for _, cs := range chains {
		chain, err := cs.mk()
		if err != nil {
			return Table{}, err
		}
		laws, err := chain.PhaseLaws(init, len(sc.Block.Tables)-1)
		if err != nil {
			return Table{}, err
		}
		dyn, err := optimizer.AlgorithmCDynamic(sc.Cat, sc.Block, optimizer.Options{}, init, chain)
		if err != nil {
			return Table{}, err
		}
		static, err := optimizer.AlgorithmC(sc.Cat, sc.Block, optimizer.Options{}, init)
		if err != nil {
			return Table{}, err
		}
		staticEC, err := paperCost(static.Plan, laws)
		if err != nil {
			return Table{}, err
		}
		lsc, err := optimizer.LSC(sc.Cat, sc.Block, optimizer.Options{}, init.Mean())
		if err != nil {
			return Table{}, err
		}
		lscEC, err := paperCost(lsc.Plan, laws)
		if err != nil {
			return Table{}, err
		}
		oracle, err := optimizer.ExhaustiveLEC(sc.Cat, sc.Block, optimizer.Options{}, laws)
		if err != nil {
			return Table{}, err
		}
		agrees := relClose(dyn.EC, oracle.EC)
		slack := 1e-9 * math.Max(1, lscEC)
		if !agrees || dyn.EC > staticEC+slack || dyn.EC > lscEC+slack {
			pass = false
		}
		t.Rows = append(t.Rows, []string{
			cs.name, fmtF(dyn.EC), fmtF(staticEC), fmtF(lscEC), fmt.Sprintf("%v", agrees),
		})
	}
	t.Pass = pass
	t.Notes = append(t.Notes, "oracle = exhaustive left-deep search costed with the same phase laws")
	return t, nil
}

// e10AlgorithmD optimizes under joint memory/size/selectivity uncertainty
// and scores every algorithm's plan with the exact joint-enumeration
// evaluator (independent of the DP's propagation).
func e10AlgorithmD() (Table, error) {
	cat := catalog.New()
	if err := cat.AddTable(catalog.MustTable("a", 40_000, 4_000_000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 4_000_000, Min: 0, Max: 1e9})); err != nil {
		return Table{}, err
	}
	if err := cat.AddTable(catalog.MustTable("b", 10_000, 1_000_000,
		catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 1_000_000, Min: 0, Max: 1e9})); err != nil {
		return Table{}, err
	}
	blk := &query.Block{
		Tables: []string{"a", "b"},
		Joins: []query.Join{{
			Left:  query.ColRef{Table: "a", Column: "k"},
			Right: query.ColRef{Table: "b", Column: "k"},
		}},
	}
	if err := blk.Validate(cat); err != nil {
		return Table{}, err
	}
	mem := dist.MustNew([]float64{60, 120, 320}, []float64{0.35, 0.35, 0.3})
	sizeA := dist.MustNew([]float64{15_000, 40_000, 90_000}, []float64{0.25, 0.5, 0.25})
	sigma, err := catalog.SelectivityDist(1e-6, 5, 0.6)
	if err != nil {
		return Table{}, err
	}
	selLaws := map[string]dist.Dist{optimizer.EdgeKey(blk.Joins[0]): sigma}
	sizeLaws := map[string]dist.Dist{"a": sizeA}
	opts := optimizer.Options{SizeBuckets: 1000}

	je := &jointEval{blk: blk, sizeLaws: cloneLaws(sizeLaws), selLaws: cloneLaws(selLaws), mem: mem}

	t := Table{
		ID:      "E10",
		Title:   "Algorithm D under joint uncertainty (2-way join; exact joint EC)",
		Headers: []string{"algorithm", "score", "joint EC", "method"},
	}
	resD, err := optimizer.AlgorithmD(cat, blk, opts, mem, selLaws, sizeLaws)
	if err != nil {
		return Table{}, err
	}
	resC, err := optimizer.AlgorithmC(cat, blk, opts, mem)
	if err != nil {
		return Table{}, err
	}
	lsc, err := optimizer.LSC(cat, blk, opts, mem.Mean())
	if err != nil {
		return Table{}, err
	}
	dEC := je.ec(resD.Plan)
	cEC := je.ec(resC.Plan)
	lscEC := je.ec(lsc.Plan)
	t.Rows = append(t.Rows,
		[]string{"algorithm-d", fmtF(resD.EC), fmtF(dEC), resD.Plan.Method.String()},
		[]string{"algorithm-c (point sizes)", fmtF(resC.EC), fmtF(cEC), resC.Plan.Method.String()},
		[]string{"lsc@mean", fmtF(lsc.EC), fmtF(lscEC), lsc.Plan.Method.String()},
	)
	slack := 1e-6 * math.Max(1, lscEC)
	t.Pass = dEC <= cEC+slack && dEC <= lscEC+slack && math.Abs(resD.EC-dEC) <= 1e-6*math.Max(1, dEC)
	t.Notes = append(t.Notes,
		"Algorithm D's own score equals the exact joint EC (no rebucketing loss at this scale)",
		"each node carries the four distributions of Figure 1")
	return t, nil
}

// cloneLaws copies a law map so the joint evaluator can fill defaults
// without mutating the caller's map.
func cloneLaws(in map[string]dist.Dist) map[string]dist.Dist {
	out := make(map[string]dist.Dist, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// e11SortMergeLinear times the O(b_M·b_A·b_B) triple loop against the
// O(b_M+b_A+b_B) algorithm of Section 3.6.1 and checks equality.
func e11SortMergeLinear() (Table, error) {
	return linearVsNaive("E11", "§3.6.1 sort-merge expected cost: naive vs linear", cost.SortMerge)
}

// e12NestedLoopLinear is the Section 3.6.2 analogue for page nested-loop.
func e12NestedLoopLinear() (Table, error) {
	return linearVsNaive("E12", "§3.6.2 nested-loop expected cost: naive vs linear", cost.PageNL)
}

func linearVsNaive(id, title string, method cost.JoinMethod) (Table, error) {
	t := Table{
		ID:      id,
		Title:   title,
		Headers: []string{"b (per var)", "naive", "linear", "speedup", "equal"},
	}
	rng := rand.New(rand.NewSource(11))
	mkLaw := func(b int, lo, hi float64) dist.Dist {
		vals := make([]float64, b)
		probs := make([]float64, b)
		for i := range vals {
			vals[i] = lo + (hi-lo)*rng.Float64()
			probs[i] = rng.Float64() + 0.01
		}
		return dist.MustNew(vals, probs)
	}
	pass := true
	var speedups []float64
	for _, b := range []int{4, 16, 64, 256} {
		a := mkLaw(b, 1, 1e6)
		bb := mkLaw(b, 1, 1e6)
		m := mkLaw(b, 2, 5000)
		reps := 2_000_000 / (b * b * b)
		if reps < 1 {
			reps = 1
		}
		naiveT := timeIt(reps, func() { expcost.JoinECNaive(method, a, bb, m) })
		linReps := reps * b
		linT := timeIt(linReps, func() { expcost.JoinECLinear(method, a, bb, m) })
		want := expcost.JoinECNaive(method, a, bb, m)
		got, _ := expcost.JoinECLinear(method, a, bb, m)
		equal := math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
		if !equal {
			pass = false
		}
		speedup := float64(naiveT) / float64(linT)
		speedups = append(speedups, speedup)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", b), naiveT.String(), linT.String(), fmtRatio(speedup), fmt.Sprintf("%v", equal),
		})
	}
	// Claim: the speedup grows with b (asymptotically ~b²/3).
	if !(speedups[len(speedups)-1] > speedups[0]*2) {
		pass = false
	}
	t.Pass = pass
	return t, nil
}

// timeIt returns the per-call duration of f over reps calls.
func timeIt(reps int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(reps)
}

// e13Rebucketing measures Section 3.6.3: computing the result-size law
// with inputs rebucketed to ∛b buckets costs O(b) instead of O(b³) and
// keeps the law's mean exact.
func e13Rebucketing() (Table, error) {
	t := Table{
		ID:      "E13",
		Title:   "Result-size distribution: exact O(b³) vs rebucketed O(b)",
		Headers: []string{"b per input", "exact buckets", "rebucketed", "mean rel.err", "exact time", "rebucket time"},
	}
	rng := rand.New(rand.NewSource(13))
	mkLaw := func(b int, lo, hi float64) dist.Dist {
		vals := make([]float64, b)
		probs := make([]float64, b)
		for i := range vals {
			vals[i] = lo + (hi-lo)*rng.Float64()
			probs[i] = rng.Float64() + 0.01
		}
		return dist.MustNew(vals, probs)
	}
	pass := true
	for _, b := range []int{8, 27, 64, 125} {
		a := mkLaw(b, 100, 10_000)
		bb := mkLaw(b, 100, 10_000)
		s := mkLaw(b, 1e-5, 1e-3)
		var exact, got dist.Dist
		var exactErr, gotErr error
		exactT := timeIt(3, func() { exact, exactErr = expcost.ResultSizeExact(a, bb, s) })
		rebT := timeIt(3, func() { got, gotErr = expcost.ResultSizeDist(a, bb, s, b) })
		if err := errors.Join(exactErr, gotErr); err != nil {
			return Table{}, err
		}
		relErr := math.Abs(got.Mean()-exact.Mean()) / exact.Mean()
		if got.Len() > b || relErr > 1e-6 {
			pass = false
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", b), fmt.Sprintf("%d", exact.Len()), fmt.Sprintf("%d", got.Len()),
			fmt.Sprintf("%.2e", relErr), exactT.String(), rebT.String(),
		})
	}
	t.Pass = pass
	t.Notes = append(t.Notes, "mean preserved exactly: rebucketing representatives are conditional means")
	return t, nil
}

// e14Bucketing compares bucketing strategies (§3.7): with buckets aligned
// to the cost formulas' level sets, very few buckets already make the
// expected-cost estimates exact; uniform bucketing needs many more.
func e14Bucketing() (Table, error) {
	cat, blk, err := Example11()
	if err != nil {
		return Table{}, err
	}
	opts := Example11Opts()
	// Fine-grained "true" law over [2, 5000].
	fine, err := dist.EquiWidth(2, 5000, 400, func(c float64) float64 { return 1 + c/5000 })
	if err != nil {
		return Table{}, err
	}
	fineLaws := []dist.Dist{fine}
	optC, err := optimizer.AlgorithmC(cat, blk, opts, fine)
	if err != nil {
		return Table{}, err
	}
	bounds := bucketing.Boundaries(
		[]cost.JoinMethod{cost.SortMerge, cost.GraceHash},
		[][2]float64{{1_000_000, 400_000}},
		[]float64{3000},
	)
	t := Table{
		ID:      "E14",
		Title:   "Bucketing strategies: plan regret and EC-estimate error vs b",
		Headers: []string{"b", "strategy", "regret", "max EC est.err"},
	}
	pass := true
	results := map[string]map[int][2]float64{}
	for _, strat := range []bucketing.Strategy{bucketing.Uniform, bucketing.Quantile, bucketing.LevelSet} {
		results[strat.String()] = map[int][2]float64{}
		for _, b := range []int{2, 3, 5, 8, 16} {
			coarse, err := bucketing.Coarsen(fine, b, strat, bounds)
			if err != nil {
				return Table{}, err
			}
			res, err := optimizer.AlgorithmC(cat, blk, opts, coarse)
			if err != nil {
				return Table{}, err
			}
			trueEC, err := paperCost(res.Plan, fineLaws)
			if err != nil {
				return Table{}, err
			}
			regret := trueEC/optC.EC - 1
			if regret < -1e-9 {
				pass = false // nothing beats optimizing on the true law
			}
			estErr := maxEstimateError(cat, blk, opts, coarse, fine)
			results[strat.String()][b] = [2]float64{regret, estErr}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", b), strat.String(),
				fmt.Sprintf("%.4f", regret), fmt.Sprintf("%.4f", estErr),
			})
		}
	}
	// Claims: (i) the level-set estimate is never worse than uniform's at
	// the same budget; (ii) with all seven breakpoints covered (b=8: √L,
	// ∛L, √S, ∛S and the three sort thresholds) the level-set estimate is
	// EXACT, while uniform at the same budget still errs.
	for _, b := range []int{2, 3, 5, 8, 16} {
		if results[bucketing.LevelSet.String()][b][1] > results[bucketing.Uniform.String()][b][1]+1e-9 {
			pass = false
		}
	}
	ls8 := results[bucketing.LevelSet.String()][8]
	un8 := results[bucketing.Uniform.String()][8]
	if ls8[1] > 1e-9 || un8[1] < 1e-6 || ls8[0] > 1e-9 {
		pass = false
	}
	t.Pass = pass
	t.Notes = append(t.Notes,
		"regret = EC(plan chosen with coarse law)/EC(plan chosen with true law) - 1, both under the true law",
		"est.err = max over all candidate plans of |EC_coarse - EC_true|/EC_true",
		"the plan space has 7 memory breakpoints (2 joins × 2 + sort × 3): level-set is exact from b=8 on")
	return t, nil
}

// maxEstimateError returns the worst relative EC-estimation error over the
// two candidate root plans of Example 1.1 when costing with the coarse law
// instead of the fine law.
func maxEstimateError(cat *catalog.Catalog, blk *query.Block, opts optimizer.Options, coarse, fine dist.Dist) float64 {
	plans, err := optimizer.AllLeftDeepPlans(cat, blk, opts)
	if err != nil {
		return math.NaN()
	}
	worst := 0.0
	for _, p := range plans {
		ecFine, err1 := paperCost(p, []dist.Dist{fine})
		ecCoarse, err2 := paperCost(p, []dist.Dist{coarse})
		if err1 != nil || err2 != nil {
			return math.NaN()
		}
		if e := math.Abs(ecCoarse-ecFine) / ecFine; e > worst {
			worst = e
		}
	}
	return worst
}

// e15EngineValidation sweeps memory and compares the analytic formulas
// against the mini engine's measured I/O: same plateaus, same thresholds,
// same winner — the "shape" claim of DESIGN.md.
func e15EngineValidation() (Table, error) {
	rng := rand.New(rand.NewSource(15))
	store := storage.NewStore()
	a, err := storage.Generate(storage.GenSpec{Name: "A", Pages: 64, TuplesPerPage: 8, KeyRange: 50_000}, rng)
	if err != nil {
		return Table{}, err
	}
	b, err := storage.Generate(storage.GenSpec{Name: "B", Pages: 9, TuplesPerPage: 8, KeyRange: 50_000}, rng)
	if err != nil {
		return Table{}, err
	}
	if err := store.Add(a); err != nil {
		return Table{}, err
	}
	if err := store.Add(b); err != nil {
		return Table{}, err
	}
	e := engine.New(store)
	t := Table{
		ID:      "E15",
		Title:   "Measured engine I/O vs analytic formulas (A=64, B=9 pages)",
		Headers: []string{"mem", "SM meas", "SM model", "SM ratio", "GH meas", "GH model", "GH ratio", "NL meas", "NL model"},
	}
	// mem=3 is excluded from the claims: with fan-out 2 the engine's
	// recursive partitioning/merging costs exceed the paper's "simplified
	// to three cases" 6-pass floor (footnote 2) — exactly the kind of
	// detail the simplification drops.
	mems := []int{4, 6, 9, 12, 20, 40, 80}
	monotone := true
	bandOK := true
	ghNeverWrongWinner := true
	prev := map[cost.JoinMethod]int64{}
	for _, mem := range mems {
		row := []string{fmt.Sprintf("%d", mem)}
		measured := map[cost.JoinMethod]int64{}
		model := map[cost.JoinMethod]float64{}
		for _, m := range []cost.JoinMethod{cost.SortMerge, cost.GraceHash, cost.PageNL} {
			_, st, err := e.Join(engine.JoinSpec{Method: m, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}, mem)
			if err != nil {
				return Table{}, err
			}
			measured[m] = st.IO()
			model[m] = cost.JoinIOModel(cost.ModelPaper, m, 64, 9, float64(mem))
			// Near-monotone: allow ≤ max(2 pages, 1%) wiggle — higher hash
			// fan-out leaves more partially-filled partition tail pages.
			if p, ok := prev[m]; ok {
				slack := p / 50
				if slack < 2 {
					slack = 2
				}
				if st.IO() > p+slack {
					monotone = false
				}
			}
			prev[m] = st.IO()
			ratio := float64(st.IO()) / model[m]
			if m != cost.PageNL {
				if ratio < 0.45 || ratio > 3.05 {
					bandOK = false
				}
				row = append(row, fmt.Sprintf("%d", st.IO()), fmtF(model[m]), fmtRatio(ratio))
			} else {
				row = append(row, fmt.Sprintf("%d", st.IO()), fmtF(model[m]))
			}
		}
		// One-sided winner consistency: wherever the model says grace hash
		// is no worse than sort-merge (true at every sweep point, since
		// GH's pivot is the smaller input), the measurement must agree.
		if model[cost.GraceHash] <= model[cost.SortMerge] && measured[cost.GraceHash] > measured[cost.SortMerge] {
			ghNeverWrongWinner = false
		}
		t.Rows = append(t.Rows, row)
	}
	t.Pass = monotone && bandOK && ghNeverWrongWinner
	t.Notes = append(t.Notes,
		"measured I/O is non-increasing in memory for every method (same plateau structure)",
		"SM/GH measured-to-model ratios stay within [0.45, 3.05]: same shape, different pass constants",
		"at high memory the real grace hash degenerates to an in-memory hash join (A+B), beating the",
		"paper's partition-based 2(A+B) floor — the model never predicts the wrong SM-vs-GH winner")
	return t, nil
}

// e16Fleet simulates the paper's "optimize once, execute repeatedly"
// setting: the warehouse query fleet is planned once per strategy, then
// run thousands of times under a volatile environment; total realized I/O
// is compared.
func e16Fleet() (Table, error) {
	cat, queries, err := workload.Warehouse()
	if err != nil {
		return Table{}, err
	}
	envs, err := workload.StandardEnvs()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "E16",
		Title:   "Warehouse fleet (4 queries × 3000 runs): realized total I/O",
		Headers: []string{"environment", "LSC fleet", "LEC fleet", "LEC/LSC"},
	}
	pass := true
	sawWin := false
	for _, ne := range envs {
		if ne.Name == "point-1000" || ne.Name == "markov-sticky" || ne.Name == "zipf-levels" {
			continue // keep the table focused; covered by other experiments
		}
		var lscTotal, lecTotal float64
		for qi, q := range queries {
			var lscPlan, lecPlan *plan.Node
			lscRes, err := optimizer.LSC(cat, q, optimizer.Options{}, ne.Env.Mem.Mean())
			if err != nil {
				return Table{}, err
			}
			lscPlan = lscRes.Plan
			if ne.Env.Chain != nil {
				r, err := optimizer.AlgorithmCDynamic(cat, q, optimizer.Options{}, ne.Env.Mem, ne.Env.Chain)
				if err != nil {
					return Table{}, err
				}
				lecPlan = r.Plan
			} else {
				r, err := optimizer.AlgorithmC(cat, q, optimizer.Options{}, ne.Env.Mem)
				if err != nil {
					return Table{}, err
				}
				lecPlan = r.Plan
			}
			tour := &envsim.Tournament{Names: []string{"lsc", "lec"}, Plans: []*plan.Node{lscPlan, lecPlan}}
			res, err := tour.Run(ne.Env, 3000, rand.New(rand.NewSource(int64(1600+qi))), paperCost)
			if err != nil {
				return Table{}, err
			}
			lscTotal += res.Stats[0].Total
			lecTotal += res.Stats[1].Total
		}
		ratio := lecTotal / lscTotal
		if ratio > 1.001 {
			pass = false
		}
		if ratio < 0.999 {
			sawWin = true
		}
		t.Rows = append(t.Rows, []string{ne.Name, fmtF(lscTotal), fmtF(lecTotal), fmtRatio(ratio)})
	}
	t.Pass = pass && sawWin
	t.Notes = append(t.Notes, "common random numbers: both fleets see identical sampled memory sequences")
	return t, nil
}
