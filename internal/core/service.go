package core

import (
	"bytes"
	"errors"
	"fmt"
	"iter"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/feedback"
	"lecopt/internal/optimizer"
	"lecopt/internal/parametric"
	"lecopt/internal/plan"
	"lecopt/internal/plancache"
	"lecopt/internal/query"
	"lecopt/internal/sqlmini"
)

// Service errors.
var (
	errNoCatalog  = errors.New("core: optimizer handle has no catalog (pass one to New, or set Request.Cat)")
	ErrBadRequest = errors.New("core: request names no query (set SQL, Query or Prepared)")
)

// Service defaults.
const (
	// DefaultDriftBand is the geometric band base for drift-banded plan
	// cache keys: distinct counts within a factor-2 band hash equal.
	DefaultDriftBand = 2
	// defaultCacheSize is the plan-cache capacity of a new handle.
	defaultCacheSize = 4096
	// BandMargin is the band-edge hysteresis width, in band units: after
	// a counted miss on a banded key, the handle probes the two keys whose
	// bands are offset by ±BandMargin before optimizing. A drift step of
	// up to base^BandMargin (≈19% at the default base 2) that happens to
	// cross a floor(log_base) boundary is thereby recognized as the
	// in-band neighbor it really is instead of splitting the cache. The
	// probe is best effort: an *undrifted* column that coincidentally sits
	// within the margin of its own boundary shifts under the probe too and
	// the digests diverge — the probe then simply misses and the request
	// is optimized normally.
	BandMargin = 0.25
)

// Config configures an Optimizer service handle. The root lecopt package
// wraps it in functional options; zero values mean the documented
// defaults.
type Config struct {
	// Workers bounds batch-optimization concurrency (≤ 0 = GOMAXPROCS).
	Workers int
	// CacheSize is the plan-cache capacity: 0 means defaultCacheSize, a
	// negative value disables the plan cache.
	CacheSize int
	// DriftBand is the geometric band base for drift-banded cache keys:
	// 0 means DefaultDriftBand; any value <= 1 selects exact-fingerprint
	// keys (the pre-handle behavior).
	DriftBand float64
	// PlanSpace is the default plan-space tuning applied to requests that
	// carry no explicit Options.
	PlanSpace optimizer.Options
	// TopC is the default Algorithm B candidate-list depth.
	TopC int
	// DisableFeedback turns the executed-size feedback store off;
	// Observe becomes a no-op and no hints flow into costing.
	DisableFeedback bool
	// AnticipatedLaws is the [INSS92]-style family of anticipated memory
	// distributions each prepared statement precomputes LEC plans for.
	// Empty disables plan-set precomputation (Prepared.Select then falls
	// back to full cached optimization).
	AnticipatedLaws []dist.Dist
}

// Optimizer is a concurrency-safe, long-lived optimization service: it
// owns the plan cache, the worker pool, the prepared statements with
// their parametric plan sets, and the executed-size feedback store. It is
// the stateful counterpart of the one-shot Scenario API — the place where
// cross-request state (cached plans, observed intermediate sizes,
// precomputed plan sets) lives in a serving fleet.
//
// The handle may be bound to a catalog at construction (required for
// Prepare and SQL-carrying requests); requests may override the catalog
// per call, which is how multi-catalog servers and statistics drift are
// expressed.
type Optimizer struct {
	cat  *catalog.Catalog
	cfg  Config
	band float64 // resolved drift band; 0 = exact keys

	cache *plancache.Cache[PlanReport]
	// stmts is the statement memo: schema digest + SQL text → the prepared
	// statement, so a repeated text is a lookup, not a parse. Nil when the
	// plan cache is disabled (see parse).
	stmts *plancache.Cache[*Prepared]
	fb    *feedback.Store
}

// NewOptimizer builds a service handle over cat (which may be nil when
// every request supplies its own catalog).
func NewOptimizer(cat *catalog.Catalog, cfg Config) *Optimizer {
	o := &Optimizer{cat: cat, cfg: cfg}
	o.band = ResolveDriftBand(cfg.DriftBand)
	size := cfg.CacheSize
	if size == 0 {
		size = defaultCacheSize
	}
	// A statement with no cached plan is not worth remembering: the memo
	// exists only beside a plan cache and holds as many entries.
	if size > 0 {
		o.cache = plancache.New[PlanReport](size)
		o.stmts = plancache.New[*Prepared](size)
	}
	if !cfg.DisableFeedback {
		o.fb = feedback.NewStore(0)
	}
	return o
}

// Request is one optimization request against the handle: the query (one
// of SQL, Query or Prepared), the uncertainty model, and the algorithm.
// Everything a Scenario carries is either here or defaulted from the
// handle's Config.
type Request struct {
	// SQL is resolved against the effective catalog. On a handle with a
	// plan cache a text is parsed and validated the first time it is seen
	// for a schema and served from the statement memo after that; a handle
	// without one parses on every call (Prepare pays it once).
	SQL string
	// Query is a pre-built validated block (takes precedence over SQL).
	Query *query.Block
	// Prepared binds the request to a prepared statement (takes
	// precedence over Query and SQL).
	Prepared *Prepared
	// Cat overrides the handle's catalog for this request — how drifted
	// or per-tenant statistics are supplied.
	Cat *catalog.Catalog
	// Env is the execution environment (memory law, optional chain).
	Env envsim.Env
	// Alg selects the optimization algorithm (zero value AlgLSCMean).
	Alg Algorithm
	// TopC overrides the handle's Algorithm B depth when positive.
	TopC int
	// SelLaws and SizeLaws are Algorithm D's uncertainty laws.
	SelLaws  map[string]dist.Dist
	SizeLaws map[string]dist.Dist
	// Opts overrides the handle's plan-space options for this request.
	Opts *optimizer.Options
}

// Response is the outcome of one request. PlanReport is embedded, so the
// plan, expected cost and optimizer bookkeeping read directly off it.
type Response struct {
	PlanReport
	// CacheHit reports the report was served from the plan cache.
	CacheHit bool
	// Parametric reports the plan came from a prepared statement's
	// precomputed plan set rather than a full optimization.
	Parametric bool
	// Err is the per-request failure in batch responses (nil on success).
	Err error
}

// appendQueryKey appends the feedback store's key for a query: canonical
// query shape, "@", then the catalog fingerprint (drift-banded when banding
// is on, so observations survive statistics drift exactly as cached plans
// do). Both parts are memoized strings, so the build only copies bytes.
func (o *Optimizer) appendQueryKey(dst []byte, cat *catalog.Catalog, blk *query.Block) []byte {
	dst = append(append(dst, blk.Canonical()...), '@')
	if o.band > 1 {
		return append(dst, cat.BandedFingerprint(o.band)...)
	}
	return append(dst, cat.Fingerprint()...)
}

// resolveQuery maps the shared (Prepared | Query | SQL, Cat override)
// request vocabulary — used identically by Optimize and Observe — to a
// concrete catalog and validated block.
func (o *Optimizer) resolveQuery(reqCat *catalog.Catalog, prep *Prepared, blk *query.Block, sql string) (*catalog.Catalog, *query.Block, error) {
	cat := reqCat
	if cat == nil {
		cat = o.cat
	}
	if prep != nil && blk == nil {
		blk = prep.block
	}
	if blk == nil {
		if sql == "" {
			return nil, nil, ErrBadRequest
		}
		if cat == nil {
			return nil, nil, errNoCatalog
		}
		parsed, err := o.parse(cat, sql, false)
		if err != nil {
			return nil, nil, err
		}
		blk = parsed.block
	}
	if cat == nil {
		return nil, nil, errNoCatalog
	}
	return cat, blk, nil
}

// maxMemoSQL is the longest statement text the memo will key on; with the
// entry count it bounds the memo's memory. Longer texts are parsed on every
// call.
const maxMemoSQL = 4096

// stmtKeyPool recycles statement-memo key buffers (schema digest + text).
var stmtKeyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, plancache.KeyLen+512)
	return &b
}}

// parse resolves SQL text to a prepared statement through the statement
// memo. The key is the catalog's schema digest followed by the text:
// Validate reads table and column names only, so its verdict holds for every
// catalog with that digest, and statistics drift neither misses nor evicts.
// A memoized statement is shared by every request with its text, and its
// block already carries its canonical form. With plans set, a statement
// without a parametric plan set gets one priced on cat, and the completed
// copy replaces the entry: a shared statement is never mutated. Errors are
// never memoized.
func (o *Optimizer) parse(cat *catalog.Catalog, sql string, plans bool) (*Prepared, error) {
	var key []byte
	var blk *query.Block
	var err error
	if o.stmts != nil && len(sql) <= maxMemoSQL {
		kb := stmtKeyPool.Get().(*[]byte)
		defer stmtKeyPool.Put(kb)
		key = append(cat.AppendSchemaDigest((*kb)[:0]), sql...)
		*kb = key
		if p, ok := o.stmts.GetBytes(key); ok {
			if !plans || p.plans != nil {
				return p, nil
			}
			blk = p.block
		}
	}
	if blk == nil {
		if blk, err = sqlmini.ParseAndValidate(sql, cat); err != nil {
			return nil, err
		}
		blk.Canonical() // memoized on the block before it is shared
	}
	p := &Prepared{opt: o, sql: sql, block: blk}
	if plans {
		if p.plans, err = parametric.Precompute(cat, blk, o.cfg.PlanSpace, o.cfg.AnticipatedLaws); err != nil {
			return nil, fmt.Errorf("core: prepare: %w", err)
		}
	}
	if key != nil {
		o.stmts.Put(string(key), p)
	}
	return p, nil
}

// call is one request in flight on the serving path: the resolved scenario,
// the algorithm, and the buffers its feedback and plan-cache keys are built
// in. Calls come from callPool, so a warm hit resolves, looks up and
// releases without touching the heap; reports never reference the call.
type call struct {
	sc    Scenario
	alg   Algorithm
	fbKey []byte // feedback-store key (appendQueryKey)
	key   []byte // primary plan-cache key; empty without a cache or unkeyed
	probe []byte // the current band-edge probe key (probeKeys)
}

var callPool = sync.Pool{New: func() any {
	return &call{fbKey: make([]byte, 0, 128), key: make([]byte, 0, plancache.KeyLen), probe: make([]byte, 0, plancache.KeyLen)}
}}

func release(c *call) {
	*c = call{fbKey: c.fbKey[:0], key: c.key[:0], probe: c.probe[:0]}
	callPool.Put(c)
}

// begin resolves a request into a pooled call, folding in handle defaults
// and feedback hints. A keyed call on a handle with a plan cache also
// carries its primary key. The caller must release the call once it has its
// answer.
func (o *Optimizer) begin(req Request, keyed bool) (*call, error) {
	cat, blk, err := o.resolveQuery(req.Cat, req.Prepared, req.Query, req.SQL)
	if err != nil {
		return nil, err
	}
	c := callPool.Get().(*call)
	opts := o.cfg.PlanSpace
	if req.Opts != nil {
		opts = *req.Opts
	}
	topC := req.TopC
	if topC <= 0 {
		topC = o.cfg.TopC
	}
	// Observations() is a lock-free atomic: until something has been
	// observed, requests skip building the feedback query key entirely
	// (an empty store can have no hints for any key).
	if o.fb != nil && o.fb.Observations() > 0 {
		c.fbKey = o.appendQueryKey(c.fbKey[:0], cat, blk)
		// The store's snapshot is shared and immutable: it is costed as
		// is, and copied only to overlay explicit hints, which win.
		if hints := o.fb.HintsBytes(c.fbKey); len(hints) > 0 {
			if len(opts.SizeHints) > 0 {
				merged := maps.Clone(hints)
				maps.Copy(merged, opts.SizeHints)
				hints = merged
			}
			opts.SizeHints = hints
		}
	}
	c.sc = Scenario{
		Cat: cat, Query: blk, Env: req.Env,
		SelLaws: req.SelLaws, SizeLaws: req.SizeLaws,
		Opts: opts, TopC: topC,
	}
	c.alg = req.Alg
	if keyed && o.cache != nil {
		if c.key, err = c.sc.AppendCacheKey(c.key, c.alg, o.band, 0); err != nil {
			release(c)
			return nil, err
		}
	}
	return c, nil
}

// Optimize runs one request through the cache-then-optimize path.
func (o *Optimizer) Optimize(req Request) (Response, error) {
	c, err := o.begin(req, true)
	if err != nil {
		return Response{Err: err}, err
	}
	defer release(c)
	resp, ok := o.lookup(c, true, BandMargin)
	if !ok {
		resp = o.compute(c)
	}
	return resp, resp.Err
}

// Cached serves a request from the plan cache alone: no optimization is
// ever started, so the call is safe on any hot path that must not pay
// cold-plan compute — the resilience layer's budget-denied and
// breaker-open serving. The primary banded key is probed first, then each
// margin is probed with both signs in band units (nearest first), so a
// caller can widen the search to neighboring drift bands and serve the
// *nearest* cached plan for a tenant whose statistics have walked away.
// With no margins given, the band-edge hysteresis margin is probed, which
// makes a Cached hit equivalent to "Optimize would have hit". All probes
// are uncounted (plancache.ProbeBytes): a denied request must not distort
// the hit-rate trajectory the cache stats track. Nothing is re-cached — a
// far-band plan served under pressure must not poison the primary band.
func (o *Optimizer) Cached(req Request, margins ...float64) (Response, bool) {
	if o.cache == nil {
		return Response{}, false
	}
	c, err := o.begin(req, true)
	if err != nil {
		return Response{Err: err}, false
	}
	defer release(c)
	if len(margins) == 0 {
		margins = []float64{BandMargin}
	}
	return o.lookup(c, false, margins...)
}

// lookup answers a call from the plan cache: its primary key first, then
// each margin's band-edge probes in order. A serving lookup counts the
// primary lookup and re-caches a neighbor's report under the primary key,
// so the new band serves itself from then on; a non-serving one (Cached)
// counts nothing and writes nothing. The probes themselves are never
// counted, so a sequential Optimize answered across a band edge counts one
// miss. With no margins only the primary key is looked up: a batch
// worker's probes already ran in the grouping pass.
func (o *Optimizer) lookup(c *call, serving bool, margins ...float64) (Response, bool) {
	if o.cache == nil {
		return Response{}, false
	}
	var rep PlanReport
	var ok bool
	if serving {
		rep, ok = o.cache.GetBytes(c.key)
	} else {
		rep, ok = o.cache.ProbeBytes(c.key)
	}
	if ok {
		return Response{PlanReport: rep, CacheHit: true}, true
	}
	for _, m := range margins {
		for probe := range o.probeKeys(c, m) {
			if rep, ok := o.cache.ProbeBytes(probe); ok {
				if serving {
					o.cache.Put(string(c.key), rep)
				}
				return Response{PlanReport: rep, CacheHit: true}, true
			}
		}
	}
	return Response{}, false
}

// compute optimizes a call and caches the report under its primary key.
func (o *Optimizer) compute(c *call) Response {
	rep, err := c.sc.Optimize(c.alg)
	if err != nil {
		return Response{Err: err}
	}
	if o.cache != nil {
		o.cache.Put(string(c.key), rep)
	}
	return Response{PlanReport: rep}
}

// probeKeys yields the call's band-edge hysteresis probe keys at margin m,
// −m before +m, built in c.probe: a drift step that just crossed a
// floor(log_base) band boundary keys, under the matching-signed margin,
// exactly as its neighbor did under margin 0. A probe key equal to the
// primary (no statistic within m of a band edge on that side) is skipped,
// and exact keys (band <= 1) have no neighbors at all. The yielded slice is
// reused by the next iteration.
func (o *Optimizer) probeKeys(c *call, m float64) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		if o.band <= 1 {
			return
		}
		for _, margin := range [2]float64{-m, m} {
			probe, err := c.sc.AppendCacheKey(c.probe[:0], c.alg, o.band, margin)
			c.probe = probe
			if err == nil && !bytes.Equal(probe, c.key) && !yield(probe) {
				return
			}
		}
	}
}

// batchGroup is the unit of batch work: one representative request that is
// looked up or optimized once, and the later requests served its answer.
type batchGroup struct {
	rep  int
	dups []int
}

// OptimizeBatch optimizes every request across the handle's worker pool
// and returns responses in request order; per-request failures land in
// Response.Err and never abort the batch.
//
// Requests that share a plan-cache key are deduplicated deterministically:
// the first request in order is the representative, is optimized once, and
// every duplicate is served its report as a cache hit. With exact keys
// this is pure memoization (equal keys imply equal reports); with
// drift-banded keys it is what makes the batch *deterministic* — which
// request of a band computes the shared plan no longer depends on worker
// scheduling. Results are byte-identical to sequential Optimize calls
// under exact keys, and independent of Workers under either key scheme.
// A handle without a plan cache has no keys: every request is its own
// group.
func (o *Optimizer) OptimizeBatch(reqs []Request) []Response {
	out := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	calls := make([]*call, len(reqs))
	defer func() {
		for _, c := range calls {
			if c != nil {
				release(c)
			}
		}
	}()
	// Resolving a request (statement memo, feedback hints, primary key)
	// reads shared state but writes none that grouping depends on, so the
	// workers do it, each request whole.
	o.parallel(len(reqs), func(i int) {
		c, err := o.begin(reqs[i], true)
		if err != nil {
			out[i] = Response{Err: err}
			return
		}
		calls[i] = c
	})
	// Group requests by cache key in first-appearance order. Band-edge
	// hysteresis runs here, in this sequential pass — never in the
	// workers — so which group a near-boundary request joins (and thus the
	// whole batch outcome) is independent of worker scheduling.
	var groups []batchGroup
	byKey := make(map[[plancache.KeyLen]byte]int) // key → index into groups
requests:
	for i, c := range calls {
		if c == nil {
			continue
		}
		if o.cache == nil {
			groups = append(groups, batchGroup{rep: i})
			continue
		}
		if gi, ok := byKey[[plancache.KeyLen]byte(c.key)]; ok {
			groups[gi].dups = append(groups[gi].dups, i)
			continue
		}
		// Hysteresis only applies on a primary-key miss — a request whose
		// own band is already cached must get *that* plan (exactly what a
		// sequential Optimize would return), never a neighbor's. The gate
		// is an uncounted probe; the group's worker does the counted lookup.
		if o.band > 1 {
			if _, cached := o.cache.ProbeBytes(c.key); !cached {
				for probe := range o.probeKeys(c, BandMargin) {
					// A same-batch group across the boundary: ride along as
					// a cross-band dup (the answer is written through under
					// this request's own key by the group's worker).
					if gi, ok := byKey[[plancache.KeyLen]byte(probe)]; ok {
						groups[gi].dups = append(groups[gi].dups, i)
						continue requests
					}
					// A prior-batch entry across the boundary: alias it to
					// the primary key so this group's worker (and every
					// future request in the new band) hits.
					if rep, ok := o.cache.ProbeBytes(probe); ok {
						o.cache.Put(string(c.key), rep)
						break
					}
				}
			}
		}
		byKey[[plancache.KeyLen]byte(c.key)] = len(groups)
		groups = append(groups, batchGroup{rep: i})
	}
	// Each group runs on one worker, and each optimization runs serially:
	// whole requests are the batch's only parallelism (DESIGN.md, "One
	// level of parallelism").
	o.parallel(len(groups), func(gi int) {
		g := &groups[gi]
		c := calls[g.rep]
		resp, ok := o.lookup(c, true)
		if !ok {
			resp = o.compute(c)
		}
		out[g.rep] = resp
		for _, d := range g.dups {
			out[d] = resp
			if resp.Err != nil {
				continue
			}
			// Count the duplicate's lookup; if the entry was evicted
			// under pressure mid-batch the representative's answer is
			// reused.
			if hit, ok := o.lookup(c, true); ok {
				out[d] = hit
			}
			// Cross-band alias: write the shared answer through under
			// the dup's own key so its band serves itself from now on.
			if own := calls[d].key; !bytes.Equal(own, c.key) {
				o.cache.Put(string(own), out[d].PlanReport)
			}
		}
	})
	return out
}

// parallel runs f(i) for every i in [0, n) on up to the handle's worker
// count of goroutines, each claiming the next index from a shared atomic
// cursor, and returns once every call has returned. One worker runs
// inline.
func (o *Optimizer) parallel(n int, f func(i int)) {
	workers := o.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers == 1 {
		for i := range n {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Feedback carries one execution's observed intermediate-result sizes
// back to the handle: Sizes maps feedback.SetKey over joined table names
// to observed pages — exactly the engine's ExecResult.JoinSizes. The
// query is identified the same way a Request is (Prepared, Query or SQL,
// with Cat overriding the handle catalog; SQL text resolves through the
// same statement memo as Request.SQL).
type Feedback struct {
	SQL      string
	Query    *query.Block
	Prepared *Prepared
	Cat      *catalog.Catalog
	Sizes    map[string]float64
}

// Observe folds executed sizes into the feedback store; subsequent
// optimizations of the same query cost with the observed sizes instead of
// selectivity-product estimates (and, because hints are hashed into cache
// keys, stale cached plans miss cleanly). Sizes are rounded here, once:
// the query's hint snapshot is republished only when a rounded value
// moves or a new table set is observed, so feedback that has converged
// changes neither what requests read nor their cache keys. A handle
// configured with DisableFeedback ignores observations. Feedback that
// names no query fails with ErrBadRequest.
func (o *Optimizer) Observe(fb Feedback) error {
	if o.fb == nil || len(fb.Sizes) == 0 {
		return nil
	}
	cat, blk, err := o.resolveQuery(fb.Cat, fb.Prepared, fb.Query, fb.SQL)
	if err != nil {
		return err
	}
	var buf [256]byte
	o.fb.ObserveBytes(o.appendQueryKey(buf[:0], cat, blk), fb.Sizes)
	return nil
}

// Simulate Monte-Carlo-executes a plan's cost model under the request's
// environment (the request only needs a query and an environment).
func (o *Optimizer) Simulate(req Request, p *plan.Node, runs int, seed int64) (envsim.RunStats, error) {
	c, err := o.begin(req, false)
	if err != nil {
		return envsim.RunStats{}, err
	}
	defer release(c)
	return c.sc.Simulate(p, runs, seed)
}

// Tournament runs a common-random-numbers realized-cost comparison of the
// given reports' plans under the request's environment.
func (o *Optimizer) Tournament(req Request, reports []PlanReport, runs int, seed int64) (envsim.TournamentResult, error) {
	c, err := o.begin(req, false)
	if err != nil {
		return envsim.TournamentResult{}, err
	}
	defer release(c)
	return c.sc.Tournament(reports, runs, seed)
}

// CacheStats snapshots the handle's plan cache (zero when disabled). Each
// Optimize and each batch request counts one lookup; band-edge probes and
// Cached count none. So a sequential Optimize answered across a band edge
// counts one miss (its primary key missed; the neighbor was found by an
// uncounted probe) though it reports CacheHit, while a batch whose grouping
// pass aliased the neighbor to the request's key counts one hit.
func (o *Optimizer) CacheStats() plancache.Stats {
	if o.cache == nil {
		return plancache.Stats{}
	}
	return o.cache.Stats()
}

// FeedbackStats reports the feedback store's distinct queries and total
// folded observations (zeros when feedback is disabled).
func (o *Optimizer) FeedbackStats() (queries int, observations uint64) {
	if o.fb == nil {
		return 0, 0
	}
	return o.fb.Queries(), o.fb.Observations()
}

// DriftBand returns the resolved cache-key band base (0 = exact keys).
func (o *Optimizer) DriftBand() float64 { return o.band }

// ResolveDriftBand maps a Config.DriftBand value to the effective band
// base: 0 means DefaultDriftBand, values <= 1 mean exact keys (0).
func ResolveDriftBand(v float64) float64 {
	switch {
	case v == 0:
		return DefaultDriftBand
	case v > 1:
		return v
	default:
		return 0
	}
}

// --- prepared statements -------------------------------------------------

// Prepared is a prepared statement: the query parsed, validated and
// canonicalized once, plus an [INSS92]-style parametric plan set — one LEC
// plan per anticipated memory law — for start-up-time plan selection
// without a plan-space search.
type Prepared struct {
	opt   *Optimizer
	sql   string
	block *query.Block
	plans *parametric.Cache // nil without anticipated laws
}

// Prepare parses, validates and canonicalizes sql against the handle's
// catalog through the statement memo, and — when the handle is configured
// with anticipated memory laws — precomputes the parametric plan set once
// per memo entry. Preparing the same text again returns the same handle
// while its memo entry is resident. A handle without a plan cache has no
// memo and memoizes nothing, nor does any handle for a text longer than the
// memo's limit: each Prepare then parses (and precomputes) afresh.
func (o *Optimizer) Prepare(sql string) (*Prepared, error) {
	if o.cat == nil {
		return nil, errNoCatalog
	}
	return o.parse(o.cat, sql, len(o.cfg.AnticipatedLaws) > 0)
}

// SQL returns the prepared statement's text.
func (p *Prepared) SQL() string { return p.sql }

// Block returns the validated query block.
func (p *Prepared) Block() *query.Block { return p.block }

// Optimize runs a full (cached) optimization of the prepared query.
func (p *Prepared) Optimize(env envsim.Env, alg Algorithm) (Response, error) {
	return p.opt.Optimize(Request{Prepared: p, Env: env, Alg: alg})
}

// Entries returns the precomputed plan-set entries (nil when Prepare ran
// without anticipated laws).
func (p *Prepared) Entries() []parametric.Entry {
	if p.plans == nil {
		return nil
	}
	return p.plans.Entries()
}

// Nearest returns the precomputed entry whose anticipated law is closest
// (1-Wasserstein) to the actual start-up-time law — the paper's "simple
// table lookup".
func (p *Prepared) Nearest(mem dist.Dist) (parametric.Entry, error) {
	if p.plans == nil {
		return parametric.Entry{}, parametric.ErrNoEntry
	}
	return p.plans.Nearest(mem)
}

// Select answers a start-up-time memory law by re-costing the plan set's
// tiny candidate set (parametric.SelectByEC — Algorithm A over
// precomputed plans). Without a plan set it falls back to a full cached
// optimization with Algorithm C.
func (p *Prepared) Select(mem dist.Dist) (Response, error) {
	if p.plans == nil {
		return p.Optimize(envsim.Env{Mem: mem}, AlgC)
	}
	pl, ec, err := p.plans.SelectByEC(mem)
	if err != nil {
		return Response{Err: err}, err
	}
	rep := PlanReport{
		Algorithm:  AlgC,
		Plan:       pl,
		Score:      ec,
		EC:         ec,
		Candidates: p.plans.Plans(),
	}
	// Parametric selection skips the optimizer, so derive the per-phase
	// breakdown here: the selected plan charged under the static memory
	// law at every phase, matching what AlgorithmC would report.
	if laws, lerr := (envsim.Env{Mem: mem}).PhaseLaws(len(p.block.Tables) - 1); lerr == nil {
		if ph, perr := optimizer.ExpectedCostPhasesModel(p.plans.Model(), pl, laws); perr == nil {
			rep.PhaseEC = ph
		}
	}
	return Response{PlanReport: rep, Parametric: true}, nil
}
