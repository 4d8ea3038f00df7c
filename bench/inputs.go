package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lecopt"
	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/engine"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/query"
	"lecopt/internal/storage"
	wlgen "lecopt/internal/workload"
)

// Input generation. Everything here runs in set-up and is driven by one
// rand.New(rand.NewSource(seed)) per workload (plus the client index where
// a client owns its inputs). The *structure* of every workload — table
// counts, shapes, predicate counts, page sizes, algorithm mix, popularity
// ranks — is fixed by design; the seed draws the statistics, the data, the
// filter constants and the request order. That keeps a metric's spread
// across seeds down to sampling noise, so a bound of a few percent means
// something.

var shapes = []wlgen.Shape{wlgen.Chain, wlgen.Star, wlgen.Clique, wlgen.Random}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return zipf{cdf}
}

// apportion splits n draws over the ranks in exact proportion to their
// probabilities (largest remainders take the rounding).
func apportion(z zipf, n int) []int {
	counts := make([]int, len(z.cdf))
	type rem struct {
		rank int
		frac float64
	}
	rems := make([]rem, len(z.cdf))
	given, prev := 0, 0.0
	for i, c := range z.cdf {
		share := (c - prev) * float64(n)
		prev = c
		counts[i] = int(share)
		given += counts[i]
		rems[i] = rem{i, share - float64(counts[i])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; given < n; i, given = i+1, given+1 {
		counts[rems[i%len(rems)].rank]++
	}
	return counts
}

func (z zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// stmt is one generated statement: its own catalog, its validated block
// and the SQL text that parses back to it.
type stmt struct {
	cat *catalog.Catalog
	blk *query.Block
	sql string
}

// genStmt draws a statement from workload.Generate and then fixes its
// predicate count: the first `filters` range filters are kept and ORDER BY
// is kept or dropped as asked, so the SQL length (what sqlmini pays for)
// does not depend on the seed. filters < 0 keeps whatever Generate drew.
func genStmt(rng *rand.Rand, tables int, shape wlgen.Shape, filters int, orderBy bool) (stmt, error) {
	spec := wlgen.DefaultSpec(tables, shape)
	if filters >= 0 {
		spec.FilterProb, spec.OrderByProb = 1, 1
	}
	sc, err := wlgen.Generate(spec, rng)
	if err != nil {
		return stmt{}, err
	}
	blk := sc.Block
	if filters >= 0 {
		if filters > len(blk.Filters) {
			filters = len(blk.Filters)
		}
		trimmed := &query.Block{Tables: blk.Tables, Joins: blk.Joins, Filters: blk.Filters[:filters]}
		if orderBy {
			trimmed.OrderBy = blk.OrderBy
		}
		if err := trimmed.Validate(sc.Cat); err != nil {
			return stmt{}, err
		}
		blk = trimmed
	}
	return stmt{cat: sc.Cat, blk: blk, sql: blk.String()}, nil
}

func standardEnvs() ([]envsim.Env, error) {
	named, err := wlgen.StandardEnvs()
	if err != nil {
		return nil, err
	}
	envs := make([]envsim.Env, len(named))
	for i, n := range named {
		envs[i] = n.Env
	}
	return envs, nil
}

// --- warm_prepared / warm_sql ---------------------------------------------

const (
	warmStatements = 64
	warmStreamLen  = 1 << 16 // per client; cycled
	zipfSkew       = 1.1
)

// warmInputs are the 64 statements x 6 environments = 384 cache keys both
// warm workloads request, indexed by popularity rank.
type warmInputs struct {
	stmts   []stmt
	reqs    []lecopt.Request // by rank; pre-parsed form (Query + Cat)
	sqlReqs []lecopt.Request // by rank; SQL-text form
	streams [][]uint16       // per client: ranks in request order
}

func genWarm(seed int64, clients int) (*warmInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	envs, err := standardEnvs()
	if err != nil {
		return nil, err
	}
	in := &warmInputs{}
	for i := 0; i < warmStatements; i++ {
		st, err := genStmt(rng, 2+i%5, shapes[i%len(shapes)], i%3, i%2 == 0)
		if err != nil {
			return nil, err
		}
		in.stmts = append(in.stmts, st)
	}
	// Rank r is statement r%64 under environment (r/64 + r%64)%6: the
	// hottest 64 ranks are 64 different statements with the environments
	// cycling, whatever the seed.
	keys := warmStatements * len(envs)
	for r := 0; r < keys; r++ {
		s := r % warmStatements
		env := envs[(r/warmStatements+s)%len(envs)]
		st := in.stmts[s]
		in.reqs = append(in.reqs, lecopt.Request{Query: st.blk, Cat: st.cat, Env: env, Alg: lecopt.AlgC})
		in.sqlReqs = append(in.sqlReqs, lecopt.Request{SQL: st.sql, Cat: st.cat, Env: env, Alg: lecopt.AlgC})
	}
	pop := newZipf(keys, zipfSkew)
	for c := 0; c < clients; c++ {
		crng := rand.New(rand.NewSource(seed + int64(c+1)*7919))
		stream := make([]uint16, warmStreamLen)
		for i := range stream {
			stream[i] = uint16(pop.draw(crng))
		}
		in.streams = append(in.streams, stream)
	}
	return in, nil
}

// --- cold_plan -------------------------------------------------------------

// The cold mix is laid out over 20-slot patterns so every seed sees the
// same shares: tables 4/6/8/10 at 30/30/25/15 %, lsc-mode 20 %, A 15 %,
// B 5 %, C 45 %, D 15 %.
var (
	coldTables = [20]int{4, 6, 8, 10, 4, 6, 8, 4, 6, 8, 10, 4, 6, 8, 4, 6, 10, 4, 6, 8}
	coldAlgs   = [20]lecopt.Algorithm{
		lecopt.AlgC, lecopt.AlgLSCMode, lecopt.AlgA, lecopt.AlgC, lecopt.AlgD,
		lecopt.AlgC, lecopt.AlgLSCMode, lecopt.AlgC, lecopt.AlgA, lecopt.AlgC,
		lecopt.AlgB, lecopt.AlgC, lecopt.AlgLSCMode, lecopt.AlgD, lecopt.AlgC,
		lecopt.AlgA, lecopt.AlgC, lecopt.AlgLSCMode, lecopt.AlgD, lecopt.AlgC,
	}
)

// coldInputs are distinct (catalog, query, env, algorithm) problems. Each
// client cycles through its own subset, so with a cache far smaller than a
// subset every request misses whatever the interleaving.
type coldInputs struct {
	reqs []lecopt.Request
	// checkEC marks requests whose algorithm guarantees EC <= the LSC
	// plan's EC under the memory laws (A, B, C and LSC itself; D optimizes
	// against selectivity laws too and carries no such guarantee).
	checkEC   []bool
	perClient [][]int32 // request indices owned by each client
}

func coldEnvs() ([]envsim.Env, error) {
	envs, err := standardEnvs()
	if err != nil {
		return nil, err
	}
	fine, err := dist.EquiWidth(64, 4096, 27, func(c float64) float64 { return 1 / c })
	if err != nil {
		return nil, err
	}
	return append(envs, envsim.Env{Mem: fine}), nil
}

func genCold(seed int64, clients, problems int) (*coldInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	envs, err := coldEnvs()
	if err != nil {
		return nil, err
	}
	in := &coldInputs{perClient: make([][]int32, clients)}
	for i := 0; i < problems; i++ {
		tables := coldTables[i%20]
		alg := coldAlgs[(i/20)%20]
		shape := shapes[(i/7)%len(shapes)]
		// Caps that keep the slowest op near 10 ms: dpTopC costs 4 ms at 4
		// tables and 100+ ms at 8; A and D repeat or widen the DP, so they
		// stop at 8 tables; a 10-table clique is 5x a 10-table chain.
		switch {
		case alg == lecopt.AlgB:
			tables = 4
		case (alg == lecopt.AlgA || alg == lecopt.AlgD) && tables > 8:
			tables = 8
		}
		if tables == 10 && shape == wlgen.Clique {
			shape = wlgen.Random
		}
		st, err := genStmt(rng, tables, shape, -1, false)
		if err != nil {
			return nil, err
		}
		req := lecopt.Request{Query: st.blk, Cat: st.cat, Env: envs[i%len(envs)], Alg: alg}
		if alg == lecopt.AlgD {
			if req.SelLaws, err = selLaws(st, 2); err != nil {
				return nil, err
			}
		}
		in.reqs = append(in.reqs, req)
		in.checkEC = append(in.checkEC, alg != lecopt.AlgD)
		in.perClient[i%clients] = append(in.perClient[i%clients], int32(i))
	}
	return in, nil
}

// selLaws puts a three-point selectivity law on the first n join edges.
func selLaws(st stmt, n int) (map[string]dist.Dist, error) {
	laws := make(map[string]dist.Dist, n)
	for _, j := range st.blk.Joins {
		if len(laws) == n {
			break
		}
		point, err := st.cat.JoinPageSelectivity(j.Left.Table, j.Left.Column, j.Right.Table, j.Right.Column)
		if err != nil {
			return nil, err
		}
		if point <= 0 || point > 1 {
			continue
		}
		law, err := catalog.SelectivityDist(point, 3, 0.6)
		if err != nil {
			return nil, err
		}
		laws[optimizer.EdgeKey(j)] = law
	}
	return laws, nil
}

// --- exec_loop --------------------------------------------------------------

const (
	execQueries       = 12
	execTuplesPerPage = 6
	execKeyRange      = 1200
	execIndexFanout   = 16
	execStreamLen     = 512 // per client; one repetition is one cycle
	execMaxPhases     = 3   // joins of the widest query
)

var (
	execTables      = [execQueries]int{2, 3, 4, 3, 2, 4, 3, 2, 4, 3, 2, 4}
	execPages       = [7]int{64, 96, 128, 160, 192, 224, 256}
	execFilterSel   = [4]float64{0.05, 0.2, 0.4, 0.6}
	execShapes      = [3]wlgen.Shape{wlgen.Chain, wlgen.Star, wlgen.Random}
	execDrift       = []float64{0.5, 1, 2}
	execMemLevels   = []float64{6, 12, 24, 96, 288}
	execServingOpts = optimizer.Options{CostModel: cost.ModelEngine}
)

// execTenants are the four memory regimes of the serving mix, scaled so
// the levels straddle the sqrt(S) sort-merge/grace-hash thresholds (8-16
// pages for 64-256 page tables) and the S+2 nested-loop thresholds.
func execTenants() ([]envsim.Env, error) {
	bimodal, err := dist.Bimodal(9, 96, 0.35)
	if err != nil {
		return nil, err
	}
	uniform, err := dist.Uniform(execMemLevels...)
	if err != nil {
		return nil, err
	}
	sticky, err := dist.Sticky(execMemLevels, 0.7)
	if err != nil {
		return nil, err
	}
	volatile, err := dist.RandomWalk(execMemLevels, 0.3, 0.45)
	if err != nil {
		return nil, err
	}
	return []envsim.Env{
		{Mem: dist.Point(96)},
		{Mem: bimodal},
		{Mem: uniform, Chain: sticky},
		{Mem: uniform, Chain: volatile},
	}, nil
}

// execQuery is one query of a client's mix: statistics, text, the
// materialized relations it runs over, and the reference answer size.
type execQuery struct {
	stmt
	store     *storage.Store
	eng       *engine.Engine
	phases    int
	baseNames int                // relations in the store before any execution
	driftCats []*catalog.Catalog // parallel to execDrift
	refRows   int                // naive reference join's row count
}

// execReq is one request of a client's stream. The memory trajectory is
// part of the generated input: a server observes its memory, it does not
// sample it, and the LSC baseline must see the same trajectory.
type execReq struct {
	query, tenant, drift uint8
	mem                  []float64
}

// execClient owns a mix: the engine is single-threaded per store, so each
// client executes against its own relations and catalogs.
type execClient struct {
	queries []*execQuery
	stream  []execReq
}

func genExecClient(seed int64, client, queries int, tenants []envsim.Env) (*execClient, error) {
	rng := rand.New(rand.NewSource(seed + int64(client+1)*104729))
	ec := &execClient{}
	for i := 0; i < queries; i++ {
		q, err := genExecQuery(rng, client, i)
		if err != nil {
			return nil, err
		}
		ec.queries = append(ec.queries, q)
	}
	drift, err := dist.Sticky(execDrift, 0.85)
	if err != nil {
		return nil, err
	}
	factors, err := drift.SampleSeq(rng, dist.Point(1), execStreamLen)
	if err != nil {
		return nil, err
	}
	// Every query gets its exact Zipf share of the stream and every tenant
	// an equal part of it; the seed only shuffles the order. Drawing the
	// queries independently would move pages_per_req by several percent
	// from seed to seed on a 1 024-request stream.
	ec.stream = make([]execReq, 0, execStreamLen)
	for q, n := range apportion(newZipf(queries, zipfSkew), execStreamLen) {
		for k := 0; k < n; k++ {
			ec.stream = append(ec.stream, execReq{query: uint8(q), tenant: uint8(k % len(tenants))})
		}
	}
	rng.Shuffle(len(ec.stream), func(i, j int) { ec.stream[i], ec.stream[j] = ec.stream[j], ec.stream[i] })
	for i := range ec.stream {
		r := &ec.stream[i]
		for d, f := range execDrift {
			if f == factors[i] {
				r.drift = uint8(d)
			}
		}
		if r.mem, err = tenants[r.tenant].Sample(rng, ec.queries[r.query].phases); err != nil {
			return nil, err
		}
	}
	return ec, nil
}

// genExecQuery builds query i of a client's mix. Table names carry the
// client index: the statistics are the same by design, and without it two
// clients would share plan-cache and feedback keys while executing over
// different data.
func genExecQuery(rng *rand.Rand, client, i int) (*execQuery, error) {
	tables := execTables[i]
	cat := catalog.New()
	store := storage.NewStore()
	names := make([]string, tables)
	for j := range names {
		names[j] = fmt.Sprintf("c%dt%d", client, j)
		pages := execPages[(i*3+j*5)%len(execPages)]
		gen := storage.GenSpec{Name: names[j], Pages: pages, TuplesPerPage: execTuplesPerPage, KeyRange: execKeyRange}
		clustered := (i+j)%2 == 0
		generate := storage.Generate
		if clustered {
			generate = storage.GenerateSorted
		}
		rel, err := generate(gen, rng)
		if err != nil {
			return nil, err
		}
		if err := store.Add(rel); err != nil {
			return nil, err
		}
		tab, err := catalog.NewTable(names[j], float64(pages), float64(pages*execTuplesPerPage),
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: execKeyRange, Min: 0, Max: execKeyRange})
		if err != nil {
			return nil, err
		}
		if err := cat.AddTable(tab); err != nil {
			return nil, err
		}
		ixName := "ix_" + names[j] + "_k"
		ix, err := storage.BuildIndex(store, ixName, names[j], "k", clustered, execIndexFanout)
		if err != nil {
			return nil, err
		}
		err = cat.AddIndex(catalog.Index{Name: ixName, Table: names[j], Column: "k", Clustered: clustered, Height: float64(ix.Height())})
		if err != nil {
			return nil, err
		}
	}
	blk := &query.Block{Tables: names}
	join := func(a, b int) {
		blk.Joins = append(blk.Joins, query.Join{
			Left:  query.ColRef{Table: names[a], Column: "k"},
			Right: query.ColRef{Table: names[b], Column: "k"},
		})
	}
	for j := 1; j < tables; j++ {
		switch execShapes[i%len(execShapes)] {
		case wlgen.Chain:
			join(j-1, j)
		case wlgen.Star:
			join(0, j)
		default:
			join(rng.Intn(j), j)
		}
	}
	if i%5 < 2 {
		blk.OrderBy = &query.ColRef{Table: names[i%tables], Column: "k"}
	}
	if i%2 == 0 {
		sel := execFilterSel[(i/2)%len(execFilterSel)]
		blk.Filters = append(blk.Filters, query.Filter{
			Col: query.ColRef{Table: names[(i/2)%tables], Column: "k"}, Op: catalog.OpLe,
			Value: math.Round(sel * execKeyRange),
		})
	}
	if err := blk.Validate(cat); err != nil {
		return nil, err
	}
	q := &execQuery{
		stmt: stmt{cat: cat, blk: blk, sql: blk.String()}, store: store, eng: engine.New(store),
		phases: tables - 1, baseNames: len(store.Names()),
	}
	for _, f := range execDrift {
		dc, err := cat.ScaleDistinct(f)
		if err != nil {
			return nil, err
		}
		q.driftCats = append(q.driftCats, dc)
	}
	var err error
	if q.refRows, err = referenceJoinRows(store, blk); err != nil {
		return nil, err
	}
	return q, nil
}

// --- drift_feedback ---------------------------------------------------------

const (
	driftTenants    = 64
	driftStatements = 16 // per tenant
	driftBatch      = 64 // requests per OptimizeBatch
	driftObserves   = 8  // Observe calls after every batch
	driftLevels     = 9  // drift walk positions: factor 2^((level-4)*driftStep)
	driftStep       = 0.25
	driftStay       = 0.8
	driftDupShare   = 0.3
)

var driftMults = [3]float64{0.5, 1, 2}

// driftStmt is one tenant statement with its catalog at every walk level
// (built lazily: only visited levels are materialized) and the synthetic
// observed sizes Observe is fed, one map per multiplier.
type driftStmt struct {
	stmt
	cats  [driftLevels]*catalog.Catalog
	sizes [len(driftMults)]map[string]float64
}

type driftReq struct {
	stmt  uint16 // tenant*driftStatements + statement
	level uint8
}

type driftObs struct {
	driftReq
	mult uint8
}

// driftInputs is the batch stream: every batch is 64 requests followed by
// 8 observations, all pre-drawn.
type driftInputs struct {
	stmts   []*driftStmt
	envs    []envsim.Env
	batches [][driftBatch]driftReq
	obs     [][driftObserves]driftObs
}

func genDrift(seed int64, batches int) (*driftInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	envs, err := standardEnvs()
	if err != nil {
		return nil, err
	}
	in := &driftInputs{envs: envs}
	for i := 0; i < driftTenants*driftStatements; i++ {
		st, err := genStmt(rng, 3+i%3, shapes[i%len(shapes)], i%2, i%4 == 0)
		if err != nil {
			return nil, err
		}
		in.stmts = append(in.stmts, &driftStmt{stmt: st})
	}
	// Every tenant's statistics walk their own sticky path over the drift
	// levels, one step per batch.
	level := make([]int, driftTenants)
	for t := range level {
		level[t] = rng.Intn(driftLevels)
	}
	// Tenants are equally busy and each prefers its statements Zipf-wise:
	// with Zipf tenants too, the few hottest walks decide the miss share
	// and throughput moves by a quarter from seed to seed.
	stmtPop := newZipf(driftStatements, zipfSkew)
	draw := func() driftReq {
		t := rng.Intn(driftTenants)
		return driftReq{stmt: uint16(t*driftStatements + stmtPop.draw(rng)), level: uint8(level[t])}
	}
	in.batches = make([][driftBatch]driftReq, batches)
	in.obs = make([][driftObserves]driftObs, batches)
	for b := range in.batches {
		for t := range level {
			if rng.Float64() < driftStay {
				continue
			}
			if l := level[t] + 2*rng.Intn(2) - 1; l >= 0 && l < driftLevels {
				level[t] = l
			}
		}
		for i := range in.batches[b] {
			if i > 0 && rng.Float64() < driftDupShare {
				in.batches[b][i] = in.batches[b][rng.Intn(i)]
				continue
			}
			in.batches[b][i] = draw()
		}
		for i := range in.obs[b] {
			in.obs[b][i] = driftObs{driftReq: in.batches[b][rng.Intn(driftBatch)], mult: uint8(rng.Intn(len(driftMults)))}
		}
	}
	for b := range in.batches {
		for _, r := range in.batches[b] {
			if err := in.stmts[r.stmt].materialize(int(r.level)); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

func (s *driftStmt) materialize(level int) error {
	if s.cats[level] != nil {
		return nil
	}
	c, err := s.cat.ScaleDistinct(math.Pow(2, float64(level-driftLevels/2)*driftStep))
	if err != nil {
		return err
	}
	s.cats[level] = c
	return nil
}

// setSizes derives the synthetic observations from the LSC baseline plan's
// own estimate of the full join's size: estimate x {0.5, 1, 2}, keyed by
// lecopt.SizeKey over all the statement's tables.
func (s *driftStmt) setSizes(estimate float64) {
	key := lecopt.SizeKey(s.blk.Tables...)
	for i, m := range driftMults {
		s.sizes[i] = map[string]float64{key: math.Max(1, estimate*m)}
	}
}
