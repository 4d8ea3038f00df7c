package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lecopt"
	"lecopt/internal/core"
	"lecopt/internal/envsim"
	"lecopt/internal/feedback"
	"lecopt/internal/optimizer"
	"lecopt/internal/plancache"
	"lecopt/internal/query"
	"lecopt/internal/sqlmini"
)

// Tracing lives entirely in the benchmark: the root span of a request is
// the real end-to-end call into the handle under test; the layer spans
// come from re-performing the request through each layer's exported
// functions, in the order core does it, against a shadow plan cache and
// feedback store (so the replay never warms the handle under test). The
// sum of the layer spans against the sum of the root spans is
// trace.coverage: the layer figures have to add up to the end-to-end one.

// span is one timed interval. Start and End are nanoseconds since the
// traced pass began; Parent names the span that caused it ("" for a
// root). Counts are taken at the same boundary as the times.
type span struct {
	Workload string           `json:"workload"`
	Request  int              `json:"request"`
	Name     string           `json:"name"`
	Parent   string           `json:"parent"`
	Start    int64            `json:"start_ns"`
	End      int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

const (
	rootSpan = "request"
	// maxSpansWritten caps trace-<workload>.json; the per-layer aggregate
	// in the same file always covers every span of the pass.
	maxSpansWritten = 50_000
)

type layerAgg struct {
	calls   int
	totalNS int64
}

// tracer keeps the spans of one traced pass in memory.
type tracer struct {
	workload string
	base     time.Time
	spans    []span
	total    int
	layers   map[string]*layerAgg
	rootNS   []float64 // per request
	opNS     []float64 // per request: root span plus the cost of recording it
	childNS  []float64 // per request: sum of its layer spans
	counts   map[string]int64
}

func newTracer(workload string, requests int) *tracer {
	return &tracer{
		workload: workload, base: time.Now(),
		layers: make(map[string]*layerAgg), counts: make(map[string]int64),
		rootNS: make([]float64, requests), opNS: make([]float64, requests), childNS: make([]float64, requests),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span. Layer spans (parent != "") are the leaves
// whose durations are their self times.
func (t *tracer) add(req int, name, parent string, start, end int64, counts map[string]int64) {
	t.total++
	if len(t.spans) < maxSpansWritten {
		t.spans = append(t.spans, span{t.workload, req, name, parent, start, end, counts})
	}
	for k, v := range counts {
		t.counts[name+"."+k] += v
	}
	if parent == "" {
		t.rootNS[req] += float64(end - start)
		t.opNS[req] += float64(t.now() - start)
		return
	}
	t.childNS[req] += float64(end - start)
	a := t.layers[name]
	if a == nil {
		a = &layerAgg{}
		t.layers[name] = a
	}
	a.calls++
	a.totalNS += end - start
}

// layer times f as a layer span of request req.
func (t *tracer) layer(req int, name string, f func()) {
	start := t.now()
	f()
	t.add(req, name, rootSpan, start, t.now(), nil)
}

// coverage is the sum of layer self times over the sum of root spans.
func (t *tracer) coverage() float64 {
	var roots, layers float64
	for i := range t.rootNS {
		roots += t.rootNS[i]
		layers += t.childNS[i]
	}
	if roots == 0 {
		return 0
	}
	return layers / roots
}

// selfNS is the median over requests of the root span minus its layer
// spans: the time the end-to-end call spends outside every measured layer.
func (t *tracer) selfNS() float64 {
	d := make([]float64, len(t.rootNS))
	for i := range d {
		d[i] = t.rootNS[i] - t.childNS[i]
	}
	return median(d)
}

// moduleShares returns each module's share of the summed layer self time
// (module = span name up to the first dot).
func (t *tracer) moduleShares() map[string]float64 {
	var total float64
	byModule := make(map[string]float64)
	for name, a := range t.layers {
		module, _, _ := strings.Cut(name, ".")
		byModule[module] += float64(a.totalNS)
		total += float64(a.totalNS)
	}
	for m := range byModule {
		byModule[m] /= total
	}
	return byModule
}

type layerRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalNS int64   `json:"total_ns"`
	Share   float64 `json:"share_of_layer_time"`
}

func (t *tracer) layerRows() []layerRow {
	var total int64
	names := make([]string, 0, len(t.layers))
	for name, a := range t.layers {
		names = append(names, name)
		total += a.totalNS
	}
	sort.Strings(names)
	rows := make([]layerRow, len(names))
	for i, name := range names {
		a := t.layers[name]
		rows[i] = layerRow{name, a.calls, a.totalNS, float64(a.totalNS) / float64(total)}
	}
	return rows
}

// write stores the pass as <dir>/trace-<workload>.json.
func (t *tracer) write(dir string, seed int64) error {
	doc := struct {
		Workload     string     `json:"workload"`
		Seed         int64      `json:"seed"`
		Requests     int        `json:"requests"`
		Coverage     float64    `json:"coverage"`
		SpansTotal   int        `json:"spans_total"`
		SpansWritten int        `json:"spans_written"`
		Layers       []layerRow `json:"layers"`
		Spans        []span     `json:"spans"`
	}{t.workload, seed, len(t.rootNS), t.coverage(), t.total, len(t.spans), t.layerRows(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}

// pipeline re-performs a request layer by layer through exported functions
// on its own plan cache and feedback store, mirroring core.Optimizer's
// fillScenario + runOne. With a nil tracer it only advances the shadow
// state (warm-up).
type pipeline struct {
	band  float64
	cache *plancache.Cache[core.PlanReport]
	fb    *feedback.Store
	tr    *tracer
	key   []byte
	probe []byte

	hits, marginHits, misses int
}

func newPipeline(opt *lecopt.Optimizer, cacheSize int) *pipeline {
	return &pipeline{
		band:  opt.DriftBand(),
		cache: plancache.New[core.PlanReport](cacheSize),
		fb:    feedback.NewStore(0),
		key:   make([]byte, 0, plancache.KeyLen),
		probe: make([]byte, 0, plancache.KeyLen),
	}
}

func (p *pipeline) layer(req int, name string, f func()) {
	if p.tr == nil {
		f()
		return
	}
	p.tr.layer(req, name, f)
}

func (p *pipeline) queryKey(req int, sc *core.Scenario) string {
	var fp string
	p.layer(req, "catalog.banded_fingerprint", func() { fp = sc.Cat.BandedFingerprint(p.band) })
	return sc.Query.Canonical() + "@" + fp
}

// optimize is the layered replay of Optimizer.Optimize for one request.
func (p *pipeline) optimize(id int, req *lecopt.Request) (core.PlanReport, error) {
	sc := core.Scenario{
		Cat: req.Cat, Query: req.Query, Env: req.Env,
		SelLaws: req.SelLaws, SizeLaws: req.SizeLaws, TopC: req.TopC,
	}
	if req.Opts != nil {
		sc.Opts = *req.Opts
	}
	var err error
	if sc.Query == nil {
		var blk *query.Block
		p.layer(id, "sqlmini.parse", func() { blk, err = sqlmini.Parse(req.SQL) })
		if err != nil {
			return core.PlanReport{}, err
		}
		p.layer(id, "query.validate", func() { err = blk.Validate(sc.Cat) })
		if err != nil {
			return core.PlanReport{}, err
		}
		p.layer(id, "query.canonical", func() { blk.Canonical() })
		sc.Query = blk
	}
	if p.fb.Observations() > 0 {
		qk := p.queryKey(id, &sc)
		var hints map[string]float64
		p.layer(id, "feedback.hints", func() { hints = p.fb.Hints(qk) })
		if len(hints) > 0 {
			for k, v := range sc.Opts.SizeHints { // explicit hints win
				hints[k] = v
			}
			sc.Opts.SizeHints = hints
		}
	}
	p.layer(id, "plancache.key", func() { p.key, err = sc.AppendCacheKey(p.key[:0], req.Alg, p.band, 0) })
	if err != nil {
		return core.PlanReport{}, err
	}
	var rep core.PlanReport
	var ok bool
	p.layer(id, "plancache.get", func() { rep, ok = p.cache.GetBytes(p.key) })
	if ok {
		p.hits++
		return rep, nil
	}
	if p.band > 1 {
		for _, margin := range [2]float64{-core.BandMargin, core.BandMargin} {
			p.layer(id, "plancache.key_margin", func() { p.probe, err = sc.AppendCacheKey(p.probe[:0], req.Alg, p.band, margin) })
			if err != nil || bytes.Equal(p.probe, p.key) {
				continue
			}
			p.layer(id, "plancache.probe", func() { rep, ok = p.cache.ProbeBytes(p.probe) })
			if ok {
				p.layer(id, "plancache.put", func() { p.cache.Put(string(p.key), rep) })
				p.marginHits++
				return rep, nil
			}
		}
	}
	p.misses++
	if rep, err = p.search(id, &sc, req.Alg); err != nil {
		return core.PlanReport{}, err
	}
	p.layer(id, "plancache.put", func() { p.cache.Put(string(p.key), rep) })
	return rep, nil
}

// search is the miss path: the algorithm's plan-space search, then the
// plan's expected cost under the scenario's own phase laws.
func (p *pipeline) search(id int, sc *core.Scenario, alg lecopt.Algorithm) (core.PlanReport, error) {
	var res optimizer.Result
	var err error
	name := "optimizer." + strings.ReplaceAll(alg.String(), "-", "_")
	if alg == lecopt.AlgC && sc.Env.Chain != nil {
		name += "_dynamic"
	}
	p.layer(id, name, func() {
		switch alg {
		case lecopt.AlgLSCMean:
			res, err = optimizer.LSC(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem.Mean())
		case lecopt.AlgLSCMode:
			res, err = optimizer.LSC(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem.Mode())
		case lecopt.AlgA:
			res, err = optimizer.AlgorithmA(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem)
		case lecopt.AlgB:
			topC := sc.TopC
			if topC < 1 {
				topC = 3
			}
			res, err = optimizer.AlgorithmB(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem, topC)
		case lecopt.AlgC:
			if sc.Env.Chain != nil {
				res, err = optimizer.AlgorithmCDynamic(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem, sc.Env.Chain)
			} else {
				res, err = optimizer.AlgorithmC(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem)
			}
		case lecopt.AlgD:
			res, err = optimizer.AlgorithmD(sc.Cat, sc.Query, sc.Opts, sc.Env.Mem, sc.SelLaws, sc.SizeLaws)
		default:
			err = fmt.Errorf("%w: %d", core.ErrUnknownAlg, alg)
		}
	})
	if err != nil {
		return core.PlanReport{}, err
	}
	var ec float64
	p.layer(id, "optimizer.expected_cost", func() {
		var laws []lecopt.Dist
		if laws, err = phaseLaws(sc.Env, len(sc.Query.Tables)); err == nil {
			ec, err = optimizer.ExpectedCostModel(sc.Opts.CostModel, res.Plan, laws)
		}
	})
	if err != nil {
		return core.PlanReport{}, err
	}
	return core.PlanReport{
		Algorithm: alg, Plan: res.Plan, Score: res.EC, EC: ec, PhaseEC: res.PhaseEC,
		Candidates: res.Candidates, Probes: res.Probes,
	}, nil
}

func phaseLaws(env envsim.Env, tables int) ([]lecopt.Dist, error) {
	phases := 1
	if tables >= 2 {
		phases = tables - 1
	}
	return env.PhaseLaws(phases)
}

// observe is the layered replay of Optimizer.Observe.
func (p *pipeline) observe(id int, fb *lecopt.Feedback) {
	if len(fb.Sizes) == 0 {
		return
	}
	qk := p.queryKey(id, &core.Scenario{Cat: fb.Cat, Query: fb.Query})
	p.layer(id, "feedback.observe", func() { p.fb.Observe(qk, fb.Sizes) })
}
