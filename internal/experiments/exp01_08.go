package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
	"lecopt/internal/workload"
)

// e1MotivatingExample reproduces Example 1.1 exactly: the classical
// optimizer (mean or modal memory) selects the sort-merge plan; the LEC
// algorithms select grace-hash + sort, whose expected cost is lower.
func e1MotivatingExample() (Table, error) {
	cat, blk, err := Example11()
	if err != nil {
		return Table{}, err
	}
	opts := Example11Opts()
	mem := dist.MustNew([]float64{700, 2000}, []float64{0.2, 0.8})
	laws := []dist.Dist{mem}

	t := Table{
		ID:      "E1",
		Title:   "Example 1.1 (A=1e6, B=4e5, result=3000 pages; mem {700:0.2, 2000:0.8})",
		Headers: []string{"algorithm", "plan", "C@2000", "C@700", "EC"},
	}
	type entry struct {
		name string
		run  func() (optimizer.Result, error)
	}
	entries := []entry{
		{"lsc@mode(2000)", func() (optimizer.Result, error) { return optimizer.LSC(cat, blk, opts, 2000) }},
		{"lsc@mean(1740)", func() (optimizer.Result, error) { return optimizer.LSC(cat, blk, opts, 1740) }},
		{"algorithm-a", func() (optimizer.Result, error) { return optimizer.AlgorithmA(cat, blk, opts, mem) }},
		{"algorithm-b(c=3)", func() (optimizer.Result, error) { return optimizer.AlgorithmB(cat, blk, opts, mem, 3) }},
		{"algorithm-c", func() (optimizer.Result, error) { return optimizer.AlgorithmC(cat, blk, opts, mem) }},
	}
	pass := true
	for _, e := range entries {
		res, err := e.run()
		if err != nil {
			return Table{}, err
		}
		ec, err := paperCost(res.Plan, laws)
		if err != nil {
			return Table{}, err
		}
		hi, err := costAt(res.Plan, 2000)
		if err != nil {
			return Table{}, err
		}
		lo, err := costAt(res.Plan, 700)
		if err != nil {
			return Table{}, err
		}
		planName := "plan1 (sort-merge)"
		isPlan2 := strings.Contains(res.Plan.Signature(), "grace-hash")
		if isPlan2 {
			planName = "plan2 (grace-hash+sort)"
		}
		lec := strings.HasPrefix(e.name, "algorithm")
		if lec != isPlan2 {
			pass = false
		}
		t.Rows = append(t.Rows, []string{
			e.name, planName,
			fmtF(hi), fmtF(lo), fmtF(ec),
		})
	}
	t.Notes = append(t.Notes,
		"paper: LSC (mean or mode) chooses Plan 1; the LEC plan is Plan 2, cheaper in expectation",
		"costs are the paper's printed numbers: the join formulas already read both inputs,",
		"and unfiltered heap scans hand the base relation to the join without a separate charge")
	t.Pass = pass
	return t, nil
}

// e2VarianceSweep increases the run-time variability of memory — the
// probability of landing in Example 1.1's contended 700-page state — and
// tracks the LSC plan's expected-cost penalty relative to the LEC plan.
// The law's variance is 1300²·p(1-p), strictly increasing over p ∈ [0, ½],
// so this is exactly the paper's "the greater the run-time variation in
// the values of parameters ... the greater the cost advantage of the LEC
// plan is likely to be".
func e2VarianceSweep() (Table, error) {
	cat, blk, err := Example11()
	if err != nil {
		return Table{}, err
	}
	opts := Example11Opts()
	t := Table{
		ID:      "E2",
		Title:   "LSC/LEC expected-cost ratio vs memory variability (arms 700/2000)",
		Headers: []string{"Pr(mem=700)", "std dev", "EC(LSC plan)", "EC(LEC plan)", "ratio"},
	}
	var ratios []float64
	pass := true
	// p stops below ½: at exactly ½ the mode is ambiguous and the modal
	// optimizer may happen to plan for the contended state itself.
	for _, p := range []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45} {
		mem, err := dist.Bimodal(700, 2000, p)
		if err != nil {
			return Table{}, err
		}
		laws := []dist.Dist{mem}
		// The classical optimizer plans at the modal value (2000 for all
		// p ≤ ½), as Example 1.1 describes.
		lsc, err := optimizer.LSC(cat, blk, opts, mem.Mode())
		if err != nil {
			return Table{}, err
		}
		lscEC, err := paperCost(lsc.Plan, laws)
		if err != nil {
			return Table{}, err
		}
		lec, err := optimizer.AlgorithmC(cat, blk, opts, mem)
		if err != nil {
			return Table{}, err
		}
		ratio := lscEC / lec.EC
		if len(ratios) > 0 && ratio < ratios[len(ratios)-1]-1e-9 {
			pass = false // advantage must not shrink as variability grows
		}
		if ratio < 1-1e-9 {
			pass = false
		}
		ratios = append(ratios, ratio)
		t.Rows = append(t.Rows, []string{
			fmtRatio(p), fmtF(mem.Std()), fmtF(lscEC), fmtF(lec.EC), fmtRatio(ratio),
		})
	}
	if !(ratios[len(ratios)-1] > ratios[0]+0.05) {
		pass = false
	}
	t.Pass = pass
	t.Notes = append(t.Notes,
		"ratio 1.000 at p=0: with a point law the LEC plan IS the LSC plan",
		"the LEC plan switches to grace-hash+sort as soon as p > ~0.002 (6000 extra I/O vs p·2.8e6)")
	return t, nil
}

// e3SystemRBaseline verifies Theorem 2.1 on random scenarios: the DP's
// plan cost equals the exhaustive left-deep minimum at a fixed point.
func e3SystemRBaseline() (Table, error) {
	t := Table{
		ID:      "E3",
		Title:   "System R DP vs exhaustive left-deep search (fixed memory)",
		Headers: []string{"tables", "trials", "exact agreements"},
	}
	rng := rand.New(rand.NewSource(3))
	pass := true
	for _, n := range []int{2, 3, 4} {
		const trials = 15
		agree := 0
		for i := 0; i < trials; i++ {
			sc, err := workload.Generate(workload.DefaultSpec(n, workload.Shape(i%4)), rng)
			if err != nil {
				return Table{}, err
			}
			mem := math.Trunc(3 + rng.Float64()*2000)
			dp, err := optimizer.LSC(sc.Cat, sc.Block, optimizer.Options{}, mem)
			if err != nil {
				return Table{}, err
			}
			oracle, err := optimizer.ExhaustiveLSC(sc.Cat, sc.Block, optimizer.Options{}, mem)
			if err != nil {
				return Table{}, err
			}
			if relClose(dp.EC, oracle.EC) {
				agree++
			}
		}
		if agree != trials {
			pass = false
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", trials), fmt.Sprintf("%d", agree)})
	}
	t.Pass = pass
	return t, nil
}

// e4AlgorithmA measures the black-box algorithm across the standard
// environments: its plan never loses to the mean- or mode-LSC plan, at the
// cost of b optimizer invocations.
func e4AlgorithmA() (Table, error) {
	t := Table{
		ID:      "E4",
		Title:   "Algorithm A vs classical LSC across environments (20 random queries each)",
		Headers: []string{"environment", "buckets", "avg EC(A)/EC(LSC-mean)", "worst", "avg candidates"},
	}
	envs, err := workload.StandardEnvs()
	if err != nil {
		return Table{}, err
	}
	rng := rand.New(rand.NewSource(4))
	pass := true
	for _, ne := range envs {
		if ne.Env.Chain != nil {
			continue // Algorithm A is a static-law construction
		}
		sum, worst, cands := 0.0, 0.0, 0.0
		const trials = 20
		for i := 0; i < trials; i++ {
			sc, err := workload.Generate(workload.DefaultSpec(2+i%3, workload.Shape(i%4)), rng)
			if err != nil {
				return Table{}, err
			}
			laws := []dist.Dist{ne.Env.Mem}
			a, err := optimizer.AlgorithmA(sc.Cat, sc.Block, optimizer.Options{}, ne.Env.Mem)
			if err != nil {
				return Table{}, err
			}
			lsc, err := optimizer.LSC(sc.Cat, sc.Block, optimizer.Options{}, ne.Env.Mem.Mean())
			if err != nil {
				return Table{}, err
			}
			lscEC, err := paperCost(lsc.Plan, laws)
			if err != nil {
				return Table{}, err
			}
			r := a.EC / lscEC
			if r > worst {
				worst = r
			}
			if r > 1+1e-9 {
				pass = false
			}
			sum += r
			cands += float64(a.Candidates)
		}
		t.Rows = append(t.Rows, []string{
			ne.Name, fmt.Sprintf("%d", ne.Env.Mem.Len()),
			fmtRatio(sum / trials), fmtRatio(worst), fmtRatio(cands / trials),
		})
	}
	t.Pass = pass
	t.Notes = append(t.Notes, "ratio ≤ 1 everywhere: Algorithm A dominates mean-LSC by construction (§3.2)")
	return t, nil
}

// e5TopCFrontier checks Proposition 3.1: probing only the (i+1)(k+1) ≤ c
// frontier returns the exact top-c combinations within c + c·ln c probes.
func e5TopCFrontier() (Table, error) {
	t := Table{
		ID:      "E5",
		Title:   "Proposition 3.1 frontier: probes vs bound vs full c² scan",
		Headers: []string{"c", "probes", "c+c·ln c", "full c²", "exact top-c"},
	}
	rng := rand.New(rand.NewSource(5))
	pass := true
	for _, c := range []int{1, 2, 4, 8, 16, 32, 64} {
		left := make([]float64, 2*c)
		right := make([]float64, 2*c)
		for i := range left {
			left[i] = rng.Float64() * 1e6
		}
		for i := range right {
			right[i] = rng.Float64() * 1e6
		}
		sort.Float64s(left)
		sort.Float64s(right)
		pairs, probes := optimizer.TopCCombine(left, right, c)
		bound := float64(c) + float64(c)*math.Log(float64(c))
		exact := true
		brute := bruteTopC(left, right, c)
		if len(pairs) != len(brute) {
			exact = false
		} else {
			for i, p := range pairs {
				if math.Abs(left[p[0]]+right[p[1]]-brute[i]) > 1e-9 {
					exact = false
				}
			}
		}
		if float64(probes) > bound+1e-9 || !exact {
			pass = false
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c), fmt.Sprintf("%d", probes),
			fmt.Sprintf("%.1f", bound), fmt.Sprintf("%d", c*c), fmt.Sprintf("%v", exact),
		})
	}
	t.Pass = pass
	return t, nil
}

func bruteTopC(left, right []float64, c int) []float64 {
	var all []float64
	for _, l := range left {
		for _, r := range right {
			all = append(all, l+r)
		}
	}
	sort.Float64s(all)
	if len(all) > c {
		all = all[:c]
	}
	return all
}

// e6AlgorithmB sweeps the candidate-list depth c: more candidates can only
// improve the selected plan, approaching Algorithm C's LEC optimum.
func e6AlgorithmB() (Table, error) {
	t := Table{
		ID:      "E6",
		Title:   "Algorithm B: plan quality and frontier probes vs c (15 random queries)",
		Headers: []string{"c", "avg EC(B)/EC(C)", "worst", "avg probes"},
	}
	rng := rand.New(rand.NewSource(6))
	type scen struct {
		sc  workload.Scenario
		mem dist.Dist
		ecC float64
	}
	var scens []scen
	for i := 0; i < 15; i++ {
		sc, err := workload.Generate(workload.DefaultSpec(3+i%2, workload.Shape(i%4)), rng)
		if err != nil {
			return Table{}, err
		}
		mem, err := dist.SpreadAround(800+rng.Float64()*800, 600, 0.4)
		if err != nil {
			return Table{}, err
		}
		c, err := optimizer.AlgorithmC(sc.Cat, sc.Block, optimizer.Options{}, mem)
		if err != nil {
			return Table{}, err
		}
		scens = append(scens, scen{sc, mem, c.EC})
	}
	pass := true
	prevAvg := math.Inf(1)
	for _, c := range []int{1, 2, 4, 8} {
		sum, worst, probes := 0.0, 0.0, 0.0
		for _, s := range scens {
			b, err := optimizer.AlgorithmB(s.sc.Cat, s.sc.Block, optimizer.Options{}, s.mem, c)
			if err != nil {
				return Table{}, err
			}
			r := b.EC / s.ecC
			if r < 1-1e-9 {
				pass = false // B can never beat the true LEC plan
			}
			if r > worst {
				worst = r
			}
			sum += r
			probes += float64(b.Probes)
		}
		avg := sum / float64(len(scens))
		if avg > prevAvg*(1+1e-9) {
			pass = false
		}
		prevAvg = avg
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c), fmtRatio(avg), fmtRatio(worst), fmtF(probes / float64(len(scens))),
		})
	}
	t.Pass = pass
	t.Notes = append(t.Notes, "EC ratios ≥ 1 with equality when B's candidate set contains the LEC plan")
	return t, nil
}

// e7AlgorithmC verifies Theorem 3.3 on random scenarios and the
// EC(C) ≤ EC(B) ≤ EC(A) ≤ EC(LSC) hierarchy.
func e7AlgorithmC() (Table, error) {
	t := Table{
		ID:      "E7",
		Title:   "Theorem 3.3: Algorithm C equals exhaustive LEC; algorithm hierarchy",
		Headers: []string{"tables", "trials", "C = oracle", "hierarchy ok"},
	}
	rng := rand.New(rand.NewSource(7))
	pass := true
	for _, n := range []int{2, 3, 4} {
		const trials = 12
		agree, hier := 0, 0
		for i := 0; i < trials; i++ {
			sc, err := workload.Generate(workload.DefaultSpec(n, workload.Shape(i%4)), rng)
			if err != nil {
				return Table{}, err
			}
			mem, err := dist.SpreadAround(500+rng.Float64()*1500, 400, 0.3)
			if err != nil {
				return Table{}, err
			}
			laws := []dist.Dist{mem}
			resC, err := optimizer.AlgorithmC(sc.Cat, sc.Block, optimizer.Options{}, mem)
			if err != nil {
				return Table{}, err
			}
			oracle, err := optimizer.ExhaustiveLEC(sc.Cat, sc.Block, optimizer.Options{}, laws)
			if err != nil {
				return Table{}, err
			}
			if relClose(resC.EC, oracle.EC) {
				agree++
			}
			resA, err := optimizer.AlgorithmA(sc.Cat, sc.Block, optimizer.Options{}, mem)
			if err != nil {
				return Table{}, err
			}
			resB, err := optimizer.AlgorithmB(sc.Cat, sc.Block, optimizer.Options{}, mem, 3)
			if err != nil {
				return Table{}, err
			}
			lsc, err := optimizer.LSC(sc.Cat, sc.Block, optimizer.Options{}, mem.Mean())
			if err != nil {
				return Table{}, err
			}
			lscEC, err := paperCost(lsc.Plan, laws)
			if err != nil {
				return Table{}, err
			}
			slack := 1e-9 * math.Max(1, lscEC)
			if resC.EC <= resB.EC+slack && resB.EC <= resA.EC+slack && resA.EC <= lscEC+slack {
				hier++
			}
		}
		if agree != trials || hier != trials {
			pass = false
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", trials),
			fmt.Sprintf("%d", agree), fmt.Sprintf("%d", hier),
		})
	}
	t.Pass = pass
	return t, nil
}

// e8AlgCScaling measures Algorithm C's optimization time as the memory
// law's bucket count grows: the paper's claim is "b times the cost of the
// standard computation", i.e. linear in b.
func e8AlgCScaling() (Table, error) {
	t := Table{
		ID:      "E8",
		Title:   "Algorithm C optimization time vs memory buckets (6-table chain)",
		Headers: []string{"buckets", "time/opt", "vs b=1", "buckets ratio"},
	}
	rng := rand.New(rand.NewSource(8))
	sc, err := workload.Generate(workload.DefaultSpec(6, workload.Chain), rng)
	if err != nil {
		return Table{}, err
	}
	timeFor := func(b int) (time.Duration, error) {
		vals := make([]float64, b)
		probs := make([]float64, b)
		for i := range vals {
			vals[i] = 3 + float64(i)*4000/float64(b)
			probs[i] = 1
		}
		mem := dist.MustNew(vals, probs)
		// Warm-up plus best-of-3 timing.
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 4; rep++ {
			start := time.Now()
			if _, err := optimizer.AlgorithmC(sc.Cat, sc.Block, optimizer.Options{}, mem); err != nil {
				return 0, err
			}
			if d := time.Since(start); rep > 0 && d < best {
				best = d
			}
		}
		return best, nil
	}
	base, err := timeFor(1)
	if err != nil {
		return Table{}, err
	}
	pass := true
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		d, err := timeFor(b)
		if err != nil {
			return Table{}, err
		}
		ratio := float64(d) / float64(base)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", b), d.String(), fmtRatio(ratio), fmt.Sprintf("%d", b),
		})
		// Loose sanity: growth must stay well below quadratic in b.
		if b >= 8 && ratio > 4*float64(b) {
			pass = false
		}
	}
	t.Pass = pass
	t.Notes = append(t.Notes,
		"upper bound time ≈ α·b: each DP cost evaluation sums over the b buckets",
		"growth is sub-linear here because DP bookkeeping (node construction, signatures)",
		"dominates the cheap three-case formulas at these bucket counts")
	return t, nil
}

func relClose(a, b float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1 {
		return d < 1e-9
	}
	return d/m < 1e-9
}
