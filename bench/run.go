package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// A run sets up at least setupRuns times, and goes on (up to setupMaxRuns)
// until set-up has taken setupMinTotal in all. setup_s reports the quickest
// of them, a quiet figure like the other timings (see summary): a 30 ms
// set-up is mostly allocation, which the box's neighbours slow the most —
// its median moved by a third between two rounds of ten runs.
const (
	setupRuns     = 3
	setupMaxRuns  = 100
	setupMinTotal = 2 * time.Second
)

// gcBallast is an allocation the timed run holds and never touches. The
// workloads' live heaps are a few MiB, so without it the collector runs
// every few milliseconds and the resident high-water mark is whatever the
// pacer happened to overshoot by (13-30 MiB on warm_sql for one seed). With
// it the heap goal sits near twice the ballast, as it would in a process
// with a real working set, and peak_rss_mb repeats. Untouched pages are
// never resident, so the ballast itself adds nothing to the figure.
const gcBallast = 64 << 20

// outcome is everything one workload run measured.
type outcome struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// InputDigest fingerprints what set-up generated; any two set-ups from
	// one seed must agree on it.
	InputDigest string             `json:"input_digest"`
	Metrics     map[string]summary `json:"metrics"`
	// Info are realised workload properties that are printed but are not
	// metrics: hit shares, ops per repetition, module shares of the trace.
	Info map[string]float64 `json:"info,omitempty"`
}

func (o *outcome) problem(format string, args ...any) {
	o.Correct = false
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// repStats are the figures of one timed repetition.
type repStats struct {
	throughput, p50us, p99us  float64
	allocs, bytes             float64
	ecRatio, ecRatioSum       float64
	pagesPerReq, ioRatio      float64
	errorShare                float64
	requests, failed, execd   int
	aboveLSC                  int
	planDiffers, headRequests int
	digest                    string
}

// runner replays passes of one workload, reusing the latency buffers.
// Every pass replays the same ops from the same state, so op i of client c
// is the same work in every repetition; quiet[c][i] is the lowest latency
// it showed in any of them.
type runner struct {
	w      workload
	lat    [][]uint32
	quiet  [][]uint32
	merged []uint32
}

func newRunner(w workload) *runner {
	r := &runner{w: w, lat: make([][]uint32, w.clients()), quiet: make([][]uint32, w.clients())}
	n := w.opsPerRep()
	for c := range r.lat {
		r.lat[c] = make([]uint32, n)
	}
	r.merged = make([]uint32, 0, n*w.clients())
	return r
}

// quietFigures derives the three timing metrics from the per-op quiet
// latencies: a closed-loop client's wall time is the sum of its latencies,
// so requests over the sum of quiet latencies, added over the clients, is
// the throughput of a run in which no op was disturbed; the percentiles are
// taken over all clients' ops, in microseconds.
func (r *runner) quietFigures(requestsPerClient int) (rps, p50us, p99us float64) {
	r.merged = r.merged[:0]
	for _, q := range r.quiet {
		var busy float64
		for _, ns := range q {
			busy += float64(ns)
		}
		rps += float64(requestsPerClient) / busy * 1e9
		r.merged = append(r.merged, q...)
	}
	slices.Sort(r.merged)
	return rps, quantileNS(r.merged, 0.50) / 1000, quantileNS(r.merged, 0.99) / 1000
}

// pass replays the first n ops on every client, closed loop: one goroutine
// per client, each waiting for its reply before sending its next request.
func (r *runner) pass(n int, timed bool) (repStats, error) {
	if err := r.w.reset(); err != nil {
		return repStats{}, err
	}
	clients := r.w.clients()
	passes := make([]*pass, clients)
	for c := range passes {
		passes[c] = &pass{head: make([]response, digestOps), ratio: make([]float32, r.w.problems())}
		if timed {
			passes[c].lat = r.lat[c][:n]
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			r.w.run(c, n, passes[c])
		}(c)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)

	var st repStats
	var sumEC, sumLSC, ratios float64
	var pages, lscPages int64
	served := 0
	r.merged = r.merged[:0]
	for _, p := range passes {
		for _, v := range p.ratio {
			if v > 0 {
				ratios += float64(v)
				served++
			}
		}
		st.requests += p.requests
		st.failed += p.failed
		st.aboveLSC += p.aboveLSC
		st.execd += p.executed
		st.planDiffers += p.planDiffers
		sumEC += p.sumEC
		sumLSC += p.sumLSC
		pages += p.pages
		lscPages += p.lscPages
		r.merged = append(r.merged, p.lat...)
	}
	head := passes[0].head[:min(digestOps, passes[0].requests)]
	st.headRequests = len(head)
	st.digest = digest(head)
	reqs := float64(st.requests)
	st.throughput = reqs / wall.Seconds()
	st.allocs = float64(m1.Mallocs-m0.Mallocs) / reqs
	st.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / reqs
	st.ecRatio = ratios / float64(served)
	st.ecRatioSum = sumEC / sumLSC
	st.errorShare = float64(st.failed) / reqs
	if st.execd > 0 {
		st.pagesPerReq = float64(pages) / float64(st.execd)
		st.ioRatio = float64(pages) / float64(lscPages)
	}
	if timed {
		for c, p := range passes {
			if r.quiet[c] == nil {
				r.quiet[c] = slices.Clone(p.lat)
				continue
			}
			for i, v := range p.lat {
				r.quiet[c][i] = min(r.quiet[c][i], v)
			}
		}
		slices.Sort(r.merged)
		st.p50us = quantileNS(r.merged, 0.50) / 1000
		st.p99us = quantileNS(r.merged, 0.99) / 1000
	}
	return st, nil
}

// setUp builds the workload from the same seed at least `runs` times (see
// setupRuns), timing each, and keeps the last. All set-ups must agree on
// the digest of what they generated.
func setUp(name string, seed int64, z sizing, runs int, o *outcome) (workload, []float64, error) {
	var w workload
	var times []float64
	var first string
	var total time.Duration
	for i := 0; i < runs || (runs > 1 && i < setupMaxRuns && total < setupMinTotal); i++ {
		w = nil
		runtime.GC()
		next, err := newWorkload(name)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if err := next.setup(seed, z); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		total += time.Since(t0)
		times = append(times, time.Since(t0).Seconds())
		w = next
		switch d := w.inputDigest(); {
		case i == 0:
			first = d
		case d != first:
			o.problem("set-up %d generated different inputs than set-up 0 for the same seed", i)
		}
	}
	o.InputDigest = first
	return w, times, nil
}

func sizingFor(seconds float64, reps int, scale float64) sizing {
	return sizing{seconds: seconds, reps: reps, scale: scale, clients: min(runtime.NumCPU(), 4)}
}

// collect folds the repetitions into summaries under the table names.
func collect(o *outcome, reps []repStats, r *runner) {
	pick := func(name, unit string, f func(repStats) float64) {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		o.Metrics[name] = summarize(vals, unit)
	}
	pick("throughput_rps", "1/s", func(r repStats) float64 { return r.throughput })
	pick("latency_p50_us", "us", func(r repStats) float64 { return r.p50us })
	pick("latency_p99_us", "us", func(r repStats) float64 { return r.p99us })
	// The timing metrics report their quiet figure in place of the median
	// of the repetitions (see summary); the spread stays as measured.
	rps, p50, p99 := r.quietFigures(reps[0].requests / len(r.quiet))
	for name, v := range map[string]float64{"throughput_rps": rps, "latency_p50_us": p50, "latency_p99_us": p99} {
		s := o.Metrics[name]
		s.Value = v
		o.Metrics[name] = s
	}
	pick("ec_ratio", "ratio", func(r repStats) float64 { return r.ecRatio })
	o.Info["ec_ratio_of_sums"] = reps[0].ecRatioSum
	o.Info["lec_above_lsc_share"] = float64(reps[0].aboveLSC) / float64(reps[0].requests)
	pick("allocs_per_req", "count", func(r repStats) float64 { return r.allocs })
	pick("bytes_per_req", "bytes", func(r repStats) float64 { return r.bytes })
	pick("error_share", "ratio", func(r repStats) float64 { return r.errorShare })
	if reps[0].execd > 0 {
		pick("pages_per_req", "pages", func(r repStats) float64 { return r.pagesPerReq })
		pick("realized_io_ratio", "ratio", func(r repStats) float64 { return r.ioRatio })
		o.Info["plans_differ_share"] = float64(reps[0].planDiffers) / float64(reps[0].headRequests)
	}
	for _, r := range reps {
		o.Attempted += r.requests
		o.Failed += r.failed
	}
	if o.Failed > 0 {
		o.problem("%d of %d requests failed their check", o.Failed, o.Attempted)
	}
}

// measure is the untraced run: set-up (timed, repeated), warm-up, then
// reps timed repetitions of a fixed op count.
func measure(name string, seed int64, z sizing) (*outcome, error) {
	ballast := make([]byte, gcBallast)
	defer runtime.KeepAlive(ballast)
	o := &outcome{Workload: name, Seed: seed, Correct: true, Metrics: map[string]summary{}, Info: map[string]float64{}}
	runs := setupRuns
	if z.scale < 1 {
		runs = 1 // the smoke test compares this set-up with the traced run's
	}
	w, setups, err := setUp(name, seed, z, runs, o)
	if err != nil {
		return nil, err
	}
	setup := summarize(setups, "s")
	setup.Value = setup.Min
	o.Metrics["setup_s"] = setup
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	r := newRunner(w)
	n := w.opsPerRep()
	o.Info["clients"] = float64(w.clients())
	o.Info["ops_per_client_per_rep"] = float64(n)
	passes := make([]repStats, 0, w.reps()+1)
	for i := 0; i < w.reps(); i++ {
		st, err := r.pass(n, true)
		if err != nil {
			return nil, err
		}
		passes = append(passes, st)
	}
	collect(o, passes, r)
	if len(passes) == 1 { // the digest needs a second pass over the same ops
		st, err := r.pass(n, false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, st)
	}
	for i, st := range passes[1:] {
		if st.digest != passes[0].digest {
			o.problem("pass %d served different plans or pages than pass 0 over the first %d requests", i+1, st.headRequests)
		}
	}
	handleInfo(o, w)
	o.Metrics["peak_rss_mb"] = summarize([]float64{peakRSSMiB()}, "MiB")
	return o, nil
}

// handleInfo records what the handle under test did, as realised shares.
func handleInfo(o *outcome, w workload) {
	cs := w.handle().CacheStats()
	o.Info["plancache_hit_share"] = cs.HitRate()
	o.Info["plancache_entries"] = float64(cs.Size)
	o.Info["plancache_evictions"] = float64(cs.Evictions)
	queries, obs := w.handle().FeedbackStats()
	o.Info["feedback_queries"] = float64(queries)
	o.Info["feedback_observations"] = float64(obs)
	if leaked := w.leakedTemps(); leaked != 0 {
		o.problem("%d temp relations leaked in the stores", leaked)
	}
}

// traceRun is the traced run: one timed repetition for the run.* figures,
// an untraced and a traced replay of the first ops by one client, and the
// layer probes (measured here unless the caller already has them).
func traceRun(name string, seed int64, z sizing, outDir string, probes map[string]float64) (*outcome, error) {
	o := &outcome{Workload: name, Seed: seed, Traced: true, Correct: true, Metrics: map[string]summary{}, Info: map[string]float64{}}
	w, _, err := setUp(name, seed, z, 1, o)
	if err != nil {
		return nil, err
	}
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	r := newRunner(w)
	st, err := r.pass(w.opsPerRep(), true)
	if err != nil {
		return nil, err
	}
	run := &outcome{Correct: true, Metrics: map[string]summary{}, Info: map[string]float64{}}
	collect(run, []repStats{st}, r)
	o.Attempted, o.Failed = run.Attempted, run.Failed
	for _, p := range run.Problems {
		o.problem("%s", p)
	}
	units := map[string]string{}
	for _, d := range perLayerManifest() {
		units[d.Name] = d.Unit
	}
	layer := func(name string, v float64) { o.Metrics[name] = summarize([]float64{v}, units[name]) }
	for _, d := range runMetrics {
		layer(runPrefix+d.Name, run.Metrics[d.Name].Value) // zero where the workload executes nothing
	}

	// Untraced replay of the traced ops, from the traced pass's own start
	// state, by one client: the base of trace.overhead_share.
	ops := w.traceOps()
	if _, err := w.tracePrepare(); err != nil {
		return nil, err
	}
	base := &pass{lat: make([]uint32, ops), head: make([]response, digestOps), ratio: make([]float32, w.problems())}
	w.run(0, ops, base)
	slices.Sort(base.lat)
	untraced := quantileNS(base.lat, 0.5)

	pl, err := w.tracePrepare()
	if err != nil {
		return nil, err
	}
	before := w.handle().CacheStats()
	tr := newTracer(name, ops)
	pl.tr = tr
	pl.hits, pl.marginHits, pl.misses = 0, 0, 0
	for i := 0; i < ops; i++ {
		if err := w.traceOp(i, pl); err != nil {
			return nil, fmt.Errorf("%s: traced op %d: %w", name, i, err)
		}
	}
	if err := tr.write(outDir, seed); err != nil {
		return nil, err
	}
	traced := median(tr.opNS)
	layer("trace.coverage", tr.coverage())
	layer("trace.overhead_share", (traced-untraced)/untraced)
	layer("core.self_ns", tr.selfNS())
	lookups := float64(pl.hits + pl.marginHits + pl.misses)
	layer("plancache.hit_share", float64(pl.hits)/lookups)
	layer("plancache.margin_hit_share", float64(pl.marginHits)/lookups)
	after := w.handle().CacheStats()
	layer("plancache.evictions", float64(after.Evictions-before.Evictions))
	layer("plancache.entries", float64(after.Size))
	queries, obs := w.handle().FeedbackStats()
	layer("feedback.queries", float64(queries))
	layer("feedback.observations", float64(obs))
	reads, hits := float64(tr.counts["engine.execute.pages_read"]), float64(tr.counts["engine.execute.buffer_hits"])
	layer("engine.pages_read", reads)
	layer("engine.pages_written", float64(tr.counts["engine.execute.pages_written"]))
	layer("engine.rows_out", float64(tr.counts["engine.execute.rows_out"]))
	layer("engine.grace_fallbacks", float64(tr.counts["engine.execute.grace_fallbacks"]))
	bufferHitShare := 0.0
	if reads+hits > 0 {
		bufferHitShare = hits / (reads + hits)
	}
	layer("buffer.hit_share", bufferHitShare)
	leaked := w.leakedTemps()
	layer("storage.leaked_temps", float64(leaked))
	if leaked != 0 {
		o.problem("%d temp relations leaked in the stores", leaked)
	}
	o.Info["traced_ops"] = float64(ops)
	o.Info["traced_op_ns"] = traced
	o.Info["untraced_op_ns"] = untraced
	for module, share := range tr.moduleShares() {
		o.Info["trace_share."+module] = share
	}

	if probes == nil {
		// About half the run's nominal time, spread over some 80 probes.
		budget := time.Duration(z.seconds * z.scale * 0.5 / 80 * float64(time.Second))
		if probes, err = runProbes(seed, budget); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	for _, d := range perLayer {
		if v, ok := probes[d.Name]; ok {
			layer(d.Name, v)
		}
	}
	for _, d := range perLayerManifest() {
		s, ok := o.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		if !finite(s.Value) {
			o.problem("per-layer metric %s is not finite", d.Name)
		}
	}
	return o, nil
}
