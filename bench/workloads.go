package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"lecopt"
	"lecopt/internal/envsim"
)

// sizing turns the command line into op counts. Op counts are fixed per
// (seconds, reps), never cut off by a clock: page, hit and allocation
// counts then repeat exactly for a seed. The per-second rates below were
// measured on the 2-core reference container, so a repetition takes about
// seconds/reps there.
type sizing struct {
	seconds float64
	reps    int
	clients int
	// scale is 1 for real runs; the smoke test shrinks op counts and
	// problem sets with it.
	scale float64
}

// ops is the per-client op count of one repetition for a workload that
// sustains perSecond ops per client.
func (z sizing) ops(perSecond float64, floor int) int {
	return max(floor, int(perSecond*z.seconds/float64(z.reps)*z.scale))
}

// cycles is the repetition count of a workload whose repetition is one
// whole cycle of its stream: as many cycles as fit the nominal time, at
// least floor, never more than -reps.
func (z sizing) cycles(perSecond float64, cycle, floor int) int {
	n := int(perSecond*z.seconds/float64(cycle) + 0.5)
	return max(1, min(max(n, floor), z.reps))
}

// scaled shrinks a problem-set size with the smoke test's scale.
func (z sizing) scaled(n, floor int) int {
	return max(floor, int(float64(n)*z.scale))
}

// pass is what one client records while it replays ops.
type pass struct {
	lat  []uint32   // per-op latency in ns; nil when the pass is untimed
	head []response // leading responses for the determinism digest

	// ratio[id] is the last EC / LSC-EC served for problem id (0: not
	// served); ec_ratio is its mean over the problems a pass served.
	ratio []float32

	requests, failed int
	aboveLSC         int // requests served a plan with EC above the LSC plan's, checked or not
	sumEC, sumLSC    float64
	pages, lscPages  int64
	executed         int // requests whose plan was executed
	planDiffers      int // of head: served plan differs from the LSC plan
}

// workload is one of the five named workloads. A value is single-use:
// setup builds everything from the seed, warm fills caches, and run may
// then be called for any number of passes, each starting from the state
// reset restores.
type workload interface {
	// setup generates inputs from the seed, builds the handle under test
	// and runs the LSC baseline pass. It is what setup_s times.
	setup(seed int64, z sizing) error
	// warm replays requests until plan cache, pools and arenas are filled.
	warm() error
	// reset restores the post-warm-up state before a pass.
	reset() error
	clients() int
	// reps and opsPerRep size the timed passes: reps repetitions of
	// opsPerRep ops per client.
	reps() int
	opsPerRep() int
	// problems is the size of a client's problem-id space (pass.ratio).
	problems() int
	// run replays the first n ops of client c's stream (cycled).
	run(c, n int, p *pass)
	// inputDigest fingerprints the generated inputs and the baseline.
	inputDigest() string
	handle() *lecopt.Optimizer
	// leakedTemps counts relations left in the stores beyond the base data.
	leakedTemps() int

	// traceOps is how many leading ops the traced pass replays.
	traceOps() int
	// tracePrepare puts the handle in the traced pass's start state and
	// returns a shadow cache and feedback store in the matching state.
	tracePrepare() (*pipeline, error)
	// traceOp performs op i on the handle as a root span of pl's tracer,
	// then re-performs it layer by layer on the pipeline.
	traceOp(i int, pl *pipeline) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "warm_prepared":
		return &warmWorkload{}, nil
	case "warm_sql":
		return &warmWorkload{sql: true}, nil
	case "cold_plan":
		return &coldWorkload{}, nil
	case "exec_loop":
		return &execWorkload{}, nil
	case "drift_feedback":
		return &driftWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// stamp records op i's latency as the time since the previous stamp.
type stamp struct {
	base time.Time
	prev time.Duration
}

func (s *stamp) start() { s.base, s.prev = time.Now(), 0 }

func (s *stamp) mark(p *pass, i int) {
	if p.lat == nil {
		return
	}
	now := time.Since(s.base)
	p.lat[i] = uint32(now - s.prev)
	s.prev = now
}

// tally books request i of a pass, a request for problem id.
func (p *pass) tally(i, id int, resp *lecopt.Response, err error, lscEC float64, checkEC bool, pages int64) {
	if opFailed(resp, err, lscEC, checkEC) {
		p.failed++
	}
	if resp.EC > lscEC*(1+ecSlack) {
		p.aboveLSC++
	}
	p.sumEC += resp.EC
	p.sumLSC += lscEC
	p.ratio[id] = float32(resp.EC / lscEC)
	if i < len(p.head) {
		p.head[i] = response{resp.Plan, resp.EC, pages}
	}
}

// parallel runs f(0..n-1) on n goroutines, waits for all of them and
// returns the first error by index.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// lscBaseline optimizes reqs[i] with AlgLSCMode on a cache-less handle and
// returns each plan's expected cost; work is split over `workers`.
func lscBaseline(reqs []lecopt.Request, workers int) ([]float64, error) {
	base := lecopt.New(nil, lecopt.WithoutPlanCache(), lecopt.WithoutFeedback())
	ecs := make([]float64, len(reqs))
	err := parallel(workers, func(w int) error {
		for i := w; i < len(reqs); i += workers {
			r := reqs[i]
			r.Alg = lecopt.AlgLSCMode
			resp, err := base.Optimize(r)
			if err != nil {
				return fmt.Errorf("lsc baseline, request %d: %w", i, err)
			}
			ecs[i] = resp.EC
		}
		return nil
	})
	return ecs, err
}

// hashInputs digests strings and floats in order.
func hashInputs(texts []string, vals []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range texts {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- warm_prepared / warm_sql ---------------------------------------------

// warmRates are ops per second per client on the reference container.
const (
	warmPreparedRate = 450_000
	warmSQLRate      = 100_000
)

type warmWorkload struct {
	sql   bool
	z     sizing
	in    *warmInputs
	reqs  []lecopt.Request
	opt   *lecopt.Optimizer
	lscEC []float64 // by rank
}

func (w *warmWorkload) setup(seed int64, z sizing) error {
	w.z = z
	var err error
	if w.in, err = genWarm(seed, z.clients); err != nil {
		return err
	}
	w.reqs = w.in.reqs
	if w.sql {
		w.reqs = w.in.sqlReqs
	}
	w.opt = lecopt.New(nil)
	w.lscEC, err = lscBaseline(w.in.reqs, z.clients)
	return err
}

func (w *warmWorkload) warm() error {
	for r := range w.reqs {
		if _, err := w.opt.Optimize(w.reqs[r]); err != nil {
			return err
		}
	}
	return nil
}

func (w *warmWorkload) reset() error { return nil }
func (w *warmWorkload) clients() int { return w.z.clients }
func (w *warmWorkload) reps() int    { return w.z.reps }
func (w *warmWorkload) opsPerRep() int {
	if w.sql {
		return w.z.ops(warmSQLRate, 400)
	}
	return w.z.ops(warmPreparedRate, 400)
}
func (w *warmWorkload) problems() int             { return len(w.reqs) }
func (w *warmWorkload) handle() *lecopt.Optimizer { return w.opt }
func (w *warmWorkload) leakedTemps() int          { return 0 }

func (w *warmWorkload) inputDigest() string {
	texts := make([]string, len(w.in.stmts))
	for i, st := range w.in.stmts {
		texts[i] = st.sql
	}
	vals := append([]float64(nil), w.lscEC...)
	for _, s := range w.in.streams {
		for _, r := range s[:256] {
			vals = append(vals, float64(r))
		}
	}
	return hashInputs(texts, vals)
}

func (w *warmWorkload) run(c, n int, p *pass) {
	stream := w.in.streams[c]
	mask := len(stream) - 1
	var st stamp
	st.start()
	for i := 0; i < n; i++ {
		r := int(stream[i&mask])
		resp, err := w.opt.Optimize(w.reqs[r])
		p.tally(i, r, &resp, err, w.lscEC[r], true, 0)
		st.mark(p, i)
	}
	p.requests += n
}

func (w *warmWorkload) traceOps() int { return min(digestOps, w.opsPerRep()) }

func (w *warmWorkload) tracePrepare() (*pipeline, error) {
	pl := newPipeline(w.opt, 4096)
	for r := range w.reqs {
		if _, err := pl.optimize(0, &w.reqs[r]); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

func (w *warmWorkload) traceOp(i int, pl *pipeline) error {
	return traceOptimize(i, pl, w.opt, &w.reqs[w.in.streams[0][i&(warmStreamLen-1)]])
}

// traceOptimize is traceOp for an op that is one Optimize: the real call as
// the root span, then the layered replay.
func traceOptimize(i int, pl *pipeline, opt *lecopt.Optimizer, req *lecopt.Request) error {
	start := pl.tr.now()
	_, err := opt.Optimize(*req)
	pl.tr.add(i, rootSpan, "", start, pl.tr.now(), nil)
	if err != nil {
		return err
	}
	_, err = pl.optimize(i, req)
	return err
}

// --- cold_plan -------------------------------------------------------------

const (
	coldRate     = 600 // ops per second per client
	coldProblems = 1024
	coldCache    = 256 // far smaller than a client's share of the problems
)

type coldWorkload struct {
	z     sizing
	in    *coldInputs
	opt   *lecopt.Optimizer
	cache int
	lscEC []float64
}

func (w *coldWorkload) setup(seed int64, z sizing) error {
	w.z = z
	problems := z.scaled(coldProblems, 64)
	w.cache = z.scaled(coldCache, 16)
	var err error
	if w.in, err = genCold(seed, z.clients, problems); err != nil {
		return err
	}
	w.opt = lecopt.New(nil, lecopt.WithPlanCache(w.cache))
	w.lscEC, err = lscBaseline(w.in.reqs, z.clients)
	return err
}

// warm fills the DP arenas and sync.Pools, and the cache to capacity, with
// one op of every kind of problem.
func (w *coldWorkload) warm() error {
	for i := 0; i < min(len(w.in.reqs), w.z.scaled(400, 40)); i++ {
		if _, err := w.opt.Optimize(w.in.reqs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldWorkload) reset() error { return nil }
func (w *coldWorkload) clients() int { return w.z.clients }

// A repetition is one whole cycle of each client's problems: a window of
// the cycle would see only some of the 400 kinds of problem.
func (w *coldWorkload) opsPerRep() int { return len(w.in.perClient[0]) }

// The tail of this mix is a handful of 10 ms ops whose latency depends on
// what the other client is running beside them: 12 looks at each left
// latency_p99_us moving by a third between runs, 20 by a tenth.
func (w *coldWorkload) reps() int { return w.z.cycles(coldRate, w.opsPerRep(), 20) }

func (w *coldWorkload) problems() int             { return len(w.in.perClient[0]) }
func (w *coldWorkload) handle() *lecopt.Optimizer { return w.opt }
func (w *coldWorkload) leakedTemps() int          { return 0 }

func (w *coldWorkload) inputDigest() string {
	texts := make([]string, len(w.in.reqs))
	for i, r := range w.in.reqs {
		texts[i] = r.Query.Canonical() + "|" + r.Cat.Fingerprint() + "|" + r.Alg.String()
	}
	return hashInputs(texts, w.lscEC)
}

func (w *coldWorkload) run(c, n int, p *pass) {
	own := w.in.perClient[c]
	var st stamp
	st.start()
	for i := 0; i < n; i++ {
		id := i % len(own)
		r := own[id]
		resp, err := w.opt.Optimize(w.in.reqs[r])
		p.tally(i, id, &resp, err, w.lscEC[r], w.in.checkEC[r], 0)
		st.mark(p, i)
	}
	p.requests += n
}

func (w *coldWorkload) traceOps() int { return w.z.scaled(digestOps, w.opsPerRep()) }

func (w *coldWorkload) tracePrepare() (*pipeline, error) {
	return newPipeline(w.opt, w.cache), nil
}

func (w *coldWorkload) traceOp(i int, pl *pipeline) error {
	own := w.in.perClient[0]
	return traceOptimize(i, pl, w.opt, &w.in.reqs[own[i%len(own)]])
}

// --- exec_loop --------------------------------------------------------------

const execRate = 1200 // ops per second per client

// execBaseline is the AlgLSCMode side of one client's stream: what the
// classical plan costs, in expectation and in realized pages, for the same
// request under the same memory trajectory.
type execBaseline struct {
	ec    []float64
	pages []int64
	plans []*lecopt.Plan
}

type execWorkload struct {
	z       sizing
	tenants []envsim.Env
	cl      []*execClient
	base    []execBaseline
	opt     *lecopt.Optimizer
}

func (w *execWorkload) request(q *execQuery, r *execReq, alg lecopt.Algorithm) lecopt.Request {
	return lecopt.Request{SQL: q.sql, Cat: q.driftCats[r.drift], Env: w.tenants[r.tenant], Alg: alg, Opts: &execServingOpts}
}

// execute runs a plan under the request's memory trajectory, drops the
// output and checks its row count against the reference join.
func execute(q *execQuery, p *lecopt.Plan, r *execReq) (pages int64, sizes map[string]float64, err error) {
	res, err := q.eng.ExecutePlan(p, r.mem)
	if err != nil {
		return 0, nil, err
	}
	rows := res.Output.NumTuples()
	q.store.Drop(res.Output.Name)
	if rows != q.refRows {
		return 0, nil, fmt.Errorf("exec_loop: %d rows out, reference join has %d", rows, q.refRows)
	}
	return res.Stats.IO(), res.JoinSizes, nil
}

// serve is the whole op: SQL text in, pages out, sizes fed back.
func (w *execWorkload) serve(q *execQuery, r *execReq) (resp lecopt.Response, pages int64, err error) {
	if resp, err = w.opt.Optimize(w.request(q, r, lecopt.AlgC)); err != nil {
		return resp, 0, err
	}
	pages, sizes, err := execute(q, resp.Plan, r)
	if err != nil {
		return resp, 0, err
	}
	return resp, pages, w.opt.Observe(lecopt.Feedback{Query: q.blk, Cat: q.driftCats[r.drift], Sizes: sizes})
}

// settleRounds bounds the settling loops; two rounds are what it takes.
const settleRounds = 16

// eachCombo calls f for every (query, tenant, drift) combination of a mix
// at the tenant's modal memory.
func (w *execWorkload) eachCombo(cl *execClient, f func(q *execQuery, r *execReq) error) error {
	for _, q := range cl.queries {
		for t := range w.tenants {
			for d := range execDrift {
				r := execReq{tenant: uint8(t), drift: uint8(d), mem: make([]float64, q.phases)}
				for i := range r.mem {
					r.mem[i] = w.tenants[t].Mem.Mode()
				}
				if err := f(q, &r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// settle serves every combination of a client's mix until a whole round is
// served from the plan cache: every plan that will be served has then been
// executed, its sizes observed, and the hints (and so the cache keys) have
// stopped moving. From here on a pass over the stream changes no state, so
// passes repeat exactly.
func (w *execWorkload) settle(cl *execClient) error {
	for round := 0; round < settleRounds; round++ {
		misses := 0
		err := w.eachCombo(cl, func(q *execQuery, r *execReq) error {
			resp, _, err := w.serve(q, r)
			if !resp.CacheHit {
				misses++
			}
			return err
		})
		if err != nil || misses == 0 {
			return err
		}
	}
	return fmt.Errorf("exec_loop: feedback hints did not settle")
}

// setup generates each client's mix, settles the handle, and then takes the
// LSC baseline on the same handle: the classical plan is optimized with the
// very hints the served plan sees (observed sizes depend on which plans
// ran, so a second handle would cost with different inputs) and executed
// without feeding anything back.
func (w *execWorkload) setup(seed int64, z sizing) error {
	w.z = z
	var err error
	if w.tenants, err = execTenants(); err != nil {
		return err
	}
	w.cl = make([]*execClient, z.clients)
	w.base = make([]execBaseline, z.clients)
	w.opt = lecopt.New(nil)
	// Clients share no relations, catalogs or cache keys: set up in parallel.
	return parallel(z.clients, func(c int) error {
		cl, err := genExecClient(seed, c, z.scaled(execQueries, 3), w.tenants)
		if err != nil {
			return err
		}
		cl.stream = cl.stream[:z.scaled(execStreamLen, 64)]
		w.cl[c] = cl
		if err := w.settle(cl); err != nil {
			return err
		}
		n := len(cl.stream)
		b := execBaseline{ec: make([]float64, n), pages: make([]int64, n), plans: make([]*lecopt.Plan, n)}
		// An execution is a deterministic function of (plan, trajectory),
		// and both repeat heavily: run each distinct pair once.
		type run struct {
			plan *lecopt.Plan
			mem  [execMaxPhases]float64
		}
		ran := map[run]int64{}
		for i := range cl.stream {
			r := &cl.stream[i]
			q := cl.queries[r.query]
			resp, err := w.opt.Optimize(w.request(q, r, lecopt.AlgLSCMode))
			if err != nil {
				return err
			}
			key := run{plan: resp.Plan}
			copy(key.mem[:], r.mem)
			pages, ok := ran[key]
			if !ok {
				if pages, _, err = execute(q, resp.Plan, r); err != nil {
					return err
				}
				ran[key] = pages
			}
			b.ec[i], b.pages[i], b.plans[i] = resp.EC, pages, resp.Plan
		}
		w.base[c] = b
		return nil
	})
}

// warm re-checks the settled state: one round, all hits.
func (w *execWorkload) warm() error {
	return parallel(len(w.cl), func(c int) error { return w.settle(w.cl[c]) })
}

func (w *execWorkload) reset() error { return nil }
func (w *execWorkload) clients() int { return w.z.clients }

// A repetition is one whole cycle of each client's stream; see coldWorkload.
func (w *execWorkload) opsPerRep() int { return len(w.cl[0].stream) }
func (w *execWorkload) reps() int      { return w.z.cycles(execRate, w.opsPerRep(), 0) }

func (w *execWorkload) handle() *lecopt.Optimizer { return w.opt }
func (w *execWorkload) problems() int {
	return execQueries * len(w.tenants) * len(execDrift)
}

func (w *execWorkload) leakedTemps() int {
	leaked := 0
	for _, cl := range w.cl {
		for _, q := range cl.queries {
			leaked += len(q.store.Names()) - q.baseNames
		}
	}
	return leaked
}

func (w *execWorkload) inputDigest() string {
	var texts []string
	var vals []float64
	for c, cl := range w.cl {
		for _, q := range cl.queries {
			texts = append(texts, q.sql, q.cat.Fingerprint())
			vals = append(vals, float64(q.refRows))
		}
		for i, r := range cl.stream {
			vals = append(vals, float64(r.query), float64(r.tenant), float64(r.drift), w.base[c].ec[i], float64(w.base[c].pages[i]))
			vals = append(vals, r.mem...)
		}
	}
	return hashInputs(texts, vals)
}

func (w *execWorkload) run(c, n int, p *pass) {
	cl, b := w.cl[c], &w.base[c]
	var st stamp
	st.start()
	for i := 0; i < n; i++ {
		pos := i % len(cl.stream)
		r := &cl.stream[pos]
		resp, pages, err := w.serve(cl.queries[r.query], r)
		id := (int(r.query)*len(w.tenants)+int(r.tenant))*len(execDrift) + int(r.drift)
		// Under a Markov memory chain with observed-size hints and ORDER BY,
		// AlgorithmCDynamic has been seen to return a plan up to 1.8 % above
		// the LSC plan's expected cost (3 seeds in 40); only the static
		// tenants are held to LEC <= LSC here. lec_above_lsc_share counts
		// every case.
		p.tally(i, id, &resp, err, b.ec[pos], w.tenants[r.tenant].Chain == nil, pages)
		p.pages += pages
		p.lscPages += b.pages[pos]
		st.mark(p, i)
	}
	p.requests += n
	p.executed += n
	for i := range p.head[:min(n, len(p.head))] {
		if lsc := b.plans[i%len(cl.stream)]; p.head[i].plan != nil && p.head[i].plan.Signature() != lsc.Signature() {
			p.planDiffers++
		}
	}
}

func (w *execWorkload) traceOps() int { return min(500, w.opsPerRep()) }

// tracePrepare settles the shadow state the way settle did the handle's:
// same rounds, through the layered replay.
func (w *execWorkload) tracePrepare() (*pipeline, error) {
	pl := newPipeline(w.opt, 4096)
	for round := 0; round < settleRounds; round++ {
		before := pl.misses
		err := w.eachCombo(w.cl[0], func(q *execQuery, r *execReq) error { return w.replay(0, q, r, pl) })
		if err != nil {
			return nil, err
		}
		if pl.misses == before {
			return pl, nil
		}
	}
	return nil, fmt.Errorf("exec_loop: shadow feedback hints did not settle")
}

// replay re-performs one exec_loop op layer by layer.
func (w *execWorkload) replay(id int, q *execQuery, r *execReq, pl *pipeline) error {
	req := w.request(q, r, lecopt.AlgC)
	rep, err := pl.optimize(id, &req)
	if err != nil {
		return err
	}
	var start int64
	if pl.tr != nil {
		start = pl.tr.now()
	}
	res, err := q.eng.ExecutePlan(rep.Plan, r.mem)
	if err != nil {
		return err
	}
	if pl.tr != nil {
		pl.tr.add(id, "engine.execute", rootSpan, start, pl.tr.now(), map[string]int64{
			"pages_read": res.Stats.Reads, "pages_written": res.Stats.Writes, "buffer_hits": res.Stats.Hits,
			"rows_out": int64(res.Output.NumTuples()), "grace_fallbacks": int64(res.GraceFallbacks),
		})
	}
	pl.layer(id, "storage.drop", func() { q.store.Drop(res.Output.Name) })
	pl.observe(id, &lecopt.Feedback{Query: q.blk, Cat: req.Cat, Sizes: res.JoinSizes})
	return nil
}

func (w *execWorkload) traceOp(i int, pl *pipeline) error {
	tr := pl.tr
	cl := w.cl[0]
	r := &cl.stream[i%len(cl.stream)]
	q := cl.queries[r.query]
	start := tr.now()
	_, _, err := w.serve(q, r)
	tr.add(i, rootSpan, "", start, tr.now(), nil)
	if err != nil {
		return err
	}
	return w.replay(i, q, r, pl)
}

// --- drift_feedback ---------------------------------------------------------

const (
	driftRate        = 1000 // batches per second
	driftBatches     = 1024 // per repetition, after the warm prefix
	driftWarmBatches = 96
	driftCacheSize   = 1 << 15 // never evicts within a pass, so hit and miss counts do not depend on shard seeds
)

type driftWorkload struct {
	z     sizing
	in    *driftInputs
	opt   *lecopt.Optimizer
	warmN int
	n     int
	lscEC [][driftBatch]float64 // by absolute batch index
	buf   [driftBatch]lecopt.Request
}

func (w *driftWorkload) newHandle(workers int) *lecopt.Optimizer {
	return lecopt.New(nil, lecopt.WithWorkers(workers), lecopt.WithPlanCache(driftCacheSize))
}

func (w *driftWorkload) fill(b int, alg lecopt.Algorithm) []lecopt.Request {
	for i, r := range w.in.batches[b] {
		st := w.in.stmts[r.stmt]
		w.buf[i] = lecopt.Request{Query: st.blk, Cat: st.cats[r.level], Env: w.in.envs[int(r.stmt)%len(w.in.envs)], Alg: alg}
	}
	return w.buf[:]
}

func (w *driftWorkload) feedback(o driftObs) lecopt.Feedback {
	st := w.in.stmts[o.stmt]
	return lecopt.Feedback{Query: st.blk, Cat: st.cats[o.level], Sizes: st.sizes[o.mult]}
}

// batch is the whole op: one OptimizeBatch, then the batch's Observe calls.
func (w *driftWorkload) batch(opt *lecopt.Optimizer, b int, alg lecopt.Algorithm) ([]lecopt.Response, error) {
	resps := opt.OptimizeBatch(w.fill(b, alg))
	for _, o := range w.in.obs[b] {
		if err := opt.Observe(w.feedback(o)); err != nil {
			return nil, err
		}
	}
	return resps, nil
}

func (w *driftWorkload) setup(seed int64, z sizing) error {
	w.z = z
	w.warmN = z.scaled(driftWarmBatches, 8)
	w.n = z.scaled(driftBatches, 40)
	var err error
	if w.in, err = genDrift(seed, w.warmN+w.n); err != nil {
		return err
	}
	// The synthetic observed sizes scale each statement's own LSC estimate
	// of its full join.
	base := lecopt.New(nil, lecopt.WithoutPlanCache(), lecopt.WithoutFeedback())
	for i, st := range w.in.stmts {
		resp, err := base.Optimize(lecopt.Request{Query: st.blk, Cat: st.cat, Env: w.in.envs[i%len(w.in.envs)], Alg: lecopt.AlgLSCMode})
		if err != nil {
			return err
		}
		st.setSizes(resp.Plan.OutPages)
	}
	// LSC twin: the same batches and observations from the same empty
	// state, so every position sees the hints and band entries the handle
	// under test will see.
	twin := w.newHandle(z.clients)
	w.lscEC = make([][driftBatch]float64, w.warmN+w.n)
	for b := range w.lscEC {
		resps, err := w.batch(twin, b, lecopt.AlgLSCMode)
		if err != nil {
			return err
		}
		for i, r := range resps {
			if r.Err != nil {
				return r.Err
			}
			w.lscEC[b][i] = r.EC
		}
	}
	return nil
}

func (w *driftWorkload) warm() error { return w.reset() }

// reset rebuilds the handle and replays the warm prefix: observations move
// the hints, so a pass can only repeat exactly from a rebuilt state.
func (w *driftWorkload) reset() error {
	w.opt = w.newHandle(w.z.clients)
	for b := 0; b < w.warmN; b++ {
		if _, err := w.batch(w.opt, b, lecopt.AlgC); err != nil {
			return err
		}
	}
	return nil
}

func (w *driftWorkload) clients() int              { return 1 }
func (w *driftWorkload) reps() int                 { return w.z.cycles(driftRate, w.n, 0) }
func (w *driftWorkload) opsPerRep() int            { return w.n }
func (w *driftWorkload) problems() int             { return len(w.in.stmts) * driftLevels }
func (w *driftWorkload) handle() *lecopt.Optimizer { return w.opt }
func (w *driftWorkload) leakedTemps() int          { return 0 }

func (w *driftWorkload) inputDigest() string {
	texts := make([]string, len(w.in.stmts))
	for i, st := range w.in.stmts {
		texts[i] = st.sql
	}
	var vals []float64
	for b := range w.in.batches {
		for i, r := range w.in.batches[b] {
			vals = append(vals, float64(r.stmt), float64(r.level), w.lscEC[b][i])
		}
	}
	return hashInputs(texts, vals)
}

func (w *driftWorkload) run(_, n int, p *pass) {
	var st stamp
	st.start()
	for i := 0; i < n; i++ {
		b := w.warmN + i
		resps, err := w.batch(w.opt, b, lecopt.AlgC)
		for j := range resps {
			r := w.in.batches[b][j]
			p.tally(i*driftBatch+j, int(r.stmt)*driftLevels+int(r.level), &resps[j], resps[j].Err, w.lscEC[b][j], true, 0)
		}
		if err != nil {
			p.failed++
		}
		st.mark(p, i)
	}
	p.requests += n * driftBatch
}

func (w *driftWorkload) traceOps() int { return min(digestOps, w.n) }

// newPipeline replays the warm prefix through the shadow state. The traced
// pass runs on a one-worker handle: the layer replay is serial, and only a
// serial root span can add up to it.
func (w *driftWorkload) tracePrepare() (*pipeline, error) {
	w.opt = w.newHandle(1)
	pl := newPipeline(w.opt, driftCacheSize)
	for b := 0; b < w.warmN; b++ {
		if _, err := w.batch(w.opt, b, lecopt.AlgC); err != nil {
			return nil, err
		}
		if err := w.replay(0, b, pl); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

func (w *driftWorkload) replay(id, b int, pl *pipeline) error {
	reqs := w.fill(b, lecopt.AlgC)
	for i := range reqs {
		if _, err := pl.optimize(id, &reqs[i]); err != nil {
			return err
		}
	}
	for _, o := range w.in.obs[b] {
		fb := w.feedback(o)
		pl.observe(id, &fb)
	}
	return nil
}

func (w *driftWorkload) traceOp(i int, pl *pipeline) error {
	tr := pl.tr
	b := w.warmN + i
	start := tr.now()
	_, err := w.batch(w.opt, b, lecopt.AlgC)
	tr.add(i, rootSpan, "", start, tr.now(), nil)
	if err != nil {
		return err
	}
	return w.replay(i, b, pl)
}
