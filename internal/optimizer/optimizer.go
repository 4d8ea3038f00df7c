// Package optimizer implements the paper's query optimization algorithms
// over left-deep plans (Chu, Halpern, Seshadri, PODS 1999):
//
//   - LSC: the classical System R bottom-up dynamic program at one fixed
//     parameter point (Theorem 2.1) — the baseline every LEC variant is
//     measured against.
//   - Algorithm A (§3.2): LSC as a black box, run once per memory bucket;
//     candidates re-costed in expectation.
//   - Algorithm B (§3.3): top-c System R using the Proposition 3.1
//     frontier to combine candidate lists.
//   - Algorithm C (§3.4/§3.5): the LEC dynamic program over expected
//     costs, with static or Markov (per-phase) memory laws.
//   - Algorithm D (§3.6): multi-parameter LEC with per-node size
//     distributions and selectivity laws, propagating the result-size
//     distribution (Figure 1).
//   - Exhaustive: a brute-force left-deep enumerator used as a
//     correctness oracle for Theorems 2.1, 3.3 and 3.4.
//
// Plan-space conventions follow the paper: binary joins, left-deep trees
// only, one join per execution phase, cross products only when the join
// graph leaves no alternative. Order properties are tracked for the
// query's ORDER BY column so a final sort enforcer is costed inside the
// DP (our cost formulas sort inputs internally, so intermediate
// "interesting orders" cannot change join costs; see DESIGN.md).
package optimizer

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/plan"
	"lecopt/internal/query"
)

// Errors.
var (
	ErrNoPlan    = errors.New("optimizer: no plan found")
	ErrBadOpts   = errors.New("optimizer: invalid options")
	ErrLawsShort = errors.New("optimizer: not enough per-phase laws")
)

// Options tunes the plan space every algorithm searches.
type Options struct {
	// Methods are the join algorithms considered; defaults to
	// cost.PaperMethods (sort-merge, grace hash, page nested-loop).
	Methods []cost.JoinMethod
	// DisableIndexes drops index access paths (heap scans only).
	DisableIndexes bool
	// SizeBuckets caps the per-node result-size distribution in
	// Algorithm D (Section 3.6.3 rebucketing); defaults to 27.
	SizeBuckets int
	// SizeHints overrides estimated result sizes (in pages) with observed
	// ones, keyed by feedback.SetKey over the joined tables' names; a
	// single table name keys that table's filtered size. The hints come
	// from executed-size feedback (engine.ExecResult.JoinSizes routed
	// through a feedback.Store). A hinted subset has its observed size, and
	// the hint corrects every superset too: a subset's size is its largest
	// hinted subset's hint times the selectivity product of the tables
	// outside it (LEO's correction), the plain selectivity product with no
	// hint below it. Every search reads one size per subset, so the dynamic
	// programs stay exact under any hint set. Algorithm D's result-size law
	// follows the same rule and collapses to a point on a hinted subset (a
	// realized size is a fact, not a distribution). Keys naming tables
	// outside the query are ignored. At the leaves,
	// Algorithm D's explicit per-table size laws take precedence over
	// single-table hints. Hints change which plan is found, so they
	// are hashed into plan-cache signatures.
	SizeHints map[string]float64
	// CostModel selects which machine the join formulas describe
	// (cost.ModelPaper or cost.ModelEngine). The zero value is ModelPaper
	// — the paper's three-case formulas — so default options, every
	// experiment and every golden table keep their published numbers; the
	// serving path opts into ModelEngine, which charges grace hash with
	// the engine's exact partitioning recursion. The model changes which
	// plan is found, so it is hashed into plan-cache signatures.
	CostModel cost.Model
}

func (o Options) withDefaults() Options {
	if len(o.Methods) == 0 {
		o.Methods = cost.PaperMethods
	}
	if o.SizeBuckets <= 0 {
		o.SizeBuckets = 27
	}
	return o
}

// Normalized returns the options with defaults applied — the form every
// algorithm actually runs with. Cache-key builders hash the normalized
// form so zero-value options and explicitly spelled-out defaults produce
// the same key.
func (o Options) Normalized() Options { return o.withDefaults() }

// Result is an optimization outcome.
type Result struct {
	Plan *plan.Node
	// EC is the score under which the plan was selected: the point cost
	// for LSC, the expected cost for the LEC algorithms.
	EC float64
	// PhaseEC breaks the plan's score down by execution phase under the
	// memory laws the algorithm optimized with (ExpectedCostPhasesModel):
	// element i is the analytic charge attributed to phase i, len equal
	// to Plan.Phases(). For the memory-only algorithms (LSC, A, B, C,
	// C-dynamic) the slice sums to EC; for Algorithm D it is evaluated at
	// the plan's annotated point sizes, so the sum approximates the
	// joint-law EC.
	PhaseEC []float64
	// Candidates is the number of complete plans the algorithm compared
	// at the final selection step (1 for pure DP algorithms).
	Candidates int
	// Probes counts candidate-pair combinations examined by the
	// Proposition 3.1 frontier (Algorithm B only).
	Probes int
}

// EdgeKey canonically names a join edge for selectivity-law maps:
// "a.x=b.y" with the lexicographically smaller side first.
func EdgeKey(j query.Join) string { return string(appendEdgeKey(nil, j)) }

// appendEdgeKey appends EdgeKey(j) to dst.
func appendEdgeKey(dst []byte, j query.Join) []byte {
	var lb, rb [64]byte
	l := append(append(append(lb[:0], j.Left.Table...), '.'), j.Left.Column...)
	r := append(append(append(rb[:0], j.Right.Table...), '.'), j.Right.Column...)
	if bytes.Compare(l, r) > 0 {
		l, r = r, l
	}
	return append(append(append(dst, l...), '='), r...)
}

// --- prepared optimization context --------------------------------------

// accessCand is one access path of a table; its order is node.OutOrder.
type accessCand struct {
	node *plan.Node
	io   float64
}

type tableInfo struct {
	name     string
	sel      float64 // combined local-filter selectivity
	pages    float64 // estimated pages after filters (point)
	accesses []accessCand
	// sizeLaw is the law of the filtered size setSizeLaws installed; zero
	// means Point(pages), which Algorithm D builds for itself (lawScorer).
	sizeLaw dist.Dist
}

// filterSel is one local filter of the table being prepared, with its
// selectivity.
type filterSel struct {
	query.Filter
	sel float64
}

// ctx is one request's prepared optimization state. It comes from ctxPool
// with the storage of an earlier request — tables, access paths with their
// scan nodes and predicates, pair statistics, the size table, the laws the
// algorithm prices with — and prepare refills it in place, so a warm
// prepare allocates nothing. The algorithm entry point that prepared it
// releases it once its Result holds a copy (Clone) of the plan: every
// plan the passes build points at the access nodes here, and a released
// ctx is reused by the next request.
type ctx struct {
	cat       *catalog.Catalog
	blk       *query.Block
	opts      Options
	n         int
	tables    []tableInfo
	sigma     []float64    // pairwise page-selectivity product at i·n+j (1 if no edge)
	adj       []uint64     // join graph: adj[j] has bit i set iff tables i and j share an edge
	ordMask   []uint64     // ordMask[j] has bit i set iff an i–j edge carries an ORDER BY-equivalent column
	sigmaD    []dist.Dist  // per-pair selectivity laws at i·n+j, empty until one is installed (zero Dist ⇒ Point(sigma))
	orderCols []plan.Order // orders that satisfy the query's ORDER BY
	required  plan.Order   // the ORDER BY as a plan.Order (zero if none)
	hints     []sizeHint   // multi-table size hints, largest subset first, then lowest mask
	// size[mask] is the result pages of joining mask's tables: one size per
	// subset, whatever order reaches it (sizeTable). Algorithm D sizes by
	// its per-mask laws instead (sizeLaw).
	size []float64

	// What the tables point into: every access path in table order, its
	// scan node at the same index, and at most one predicate per table;
	// filters is prepareTable's scratch.
	acc     []accessCand
	scans   []plan.Node
	preds   []plan.ScanPred
	filters []filterSel
	// The laws the algorithm prices with: a static law (staticLaws), the point
	// laws of its LSC passes (pointScorer, built in slab), and the memory
	// values those passes probe (bucketPoints).
	law    [1]dist.Dist
	pts    []dist.Dist
	slab   dist.Slab
	points []float64
}

var ctxPool = sync.Pool{New: func() any { return new(ctx) }}

// sizeHint is an observed result size for a subset of the query's tables.
type sizeHint struct {
	mask  uint64
	pages float64
}

// prepare validates the block and precomputes per-table and per-pair
// statistics shared by every algorithm, in a ctx from ctxPool that the
// caller releases.
func prepare(cat *catalog.Catalog, blk *query.Block, opts Options) (*ctx, error) {
	opts = opts.withDefaults()
	for _, m := range opts.Methods {
		if !slices.Contains(cost.Methods, m) {
			return nil, fmt.Errorf("%w: unknown join method %v", ErrBadOpts, m)
		}
	}
	if err := blk.Validate(cat); err != nil {
		return nil, err
	}
	c := ctxPool.Get().(*ctx)
	c.cat, c.blk, c.opts, c.n = cat, blk, opts, len(blk.Tables)
	if blk.OrderBy != nil {
		c.required = plan.Order{Table: blk.OrderBy.Table, Column: blk.OrderBy.Column}
		c.orderCols = append(c.orderCols, c.required)
		// Any column equi-joined (transitively, through the final plan)
		// to the ORDER BY column is equivalent for ordering purposes; we
		// credit direct join partners, which covers the common case of
		// ordering by the join key.
		for _, j := range blk.Joins {
			if j.Left.Table == blk.OrderBy.Table && j.Left.Column == blk.OrderBy.Column {
				c.orderCols = append(c.orderCols, plan.Order{Table: j.Right.Table, Column: j.Right.Column})
			}
			if j.Right.Table == blk.OrderBy.Table && j.Right.Column == blk.OrderBy.Column {
				c.orderCols = append(c.orderCols, plan.Order{Table: j.Left.Table, Column: j.Left.Column})
			}
		}
	}
	// At most one predicate per table: with room for n, no append moves a
	// predicate a scan node points to.
	c.preds = slices.Grow(c.preds, c.n)
	c.tables = grow(c.tables, c.n)
	for i, name := range blk.Tables {
		if err := c.prepareTable(name, i); err != nil {
			c.release()
			return nil, err
		}
	}
	// The scan nodes have stopped moving: link every access path to its
	// node, and every table to its access paths.
	for k := range c.acc {
		c.acc[k].node = &c.scans[k]
	}
	lo := 0
	for i := range c.tables {
		hi := lo + len(c.tables[i].accesses)
		c.tables[i].accesses = c.acc[lo:hi:hi]
		lo = hi
	}
	if err := c.preparePairs(); err != nil {
		c.release()
		return nil, err
	}
	c.applySizeHints()
	c.sizeTable()
	return c, nil
}

// release drops the ctx's references to the request — catalog, query,
// options, names, laws — keeps its storage, trimmed where one wide query
// grew it, and returns it to ctxPool. Nothing built from it may be used
// afterwards.
func (c *ctx) release() {
	clear(c.tables)
	clear(c.scans)
	clear(c.sigmaD)
	clear(c.orderCols)
	clear(c.filters)
	clear(c.preds)
	clear(c.pts)
	*c = ctx{
		tables: c.tables[:0], sigma: c.sigma[:0], adj: c.adj[:0], ordMask: c.ordMask[:0],
		sigmaD: c.sigmaD[:0], orderCols: c.orderCols[:0], hints: c.hints[:0], size: c.size[:0],
		acc: c.acc[:0], scans: c.scans[:0], preds: c.preds[:0], filters: c.filters[:0],
		pts: c.pts[:0], slab: c.slab, points: c.points[:0],
	}
	if cap(c.size) > maxPooledSlots {
		c.size = nil
	}
	c.slab.Reset()
	ctxPool.Put(c)
}

// applySizeHints resolves Options.SizeHints onto the query: single-table
// keys override the leaf's filtered-size estimate; multi-table keys become
// c.hints, which the size rule (peel) reads. Keys naming tables outside the
// query, and non-positive or non-finite sizes, are ignored; where two keys
// name one subset, the smaller size wins.
func (c *ctx) applySizeHints() {
	for key, pages := range c.opts.SizeHints {
		if pages <= 0 || math.IsNaN(pages) || math.IsInf(pages, 0) {
			continue
		}
		mask, resolved := uint64(0), true
		for rest, more := key, true; more && resolved; {
			var name string
			name, rest, more = strings.Cut(rest, "+")
			i := c.blk.TableIndex(name)
			if resolved = i >= 0; resolved {
				mask |= 1 << uint(i)
			}
		}
		if resolved && mask != 0 {
			c.hints = append(c.hints, sizeHint{mask, clampPages(pages)})
		}
	}
	slices.SortFunc(c.hints, func(a, b sizeHint) int {
		if d := bits.OnesCount64(b.mask) - bits.OnesCount64(a.mask); d != 0 {
			return d
		}
		return cmp.Or(cmp.Compare(a.mask, b.mask), cmp.Compare(a.pages, b.pages))
	})
	c.hints = slices.CompactFunc(c.hints, func(a, b sizeHint) bool { return a.mask == b.mask })
	for len(c.hints) > 0 && bits.OnesCount64(c.hints[len(c.hints)-1].mask) == 1 {
		h := c.hints[len(c.hints)-1]
		c.hints = c.hints[:len(c.hints)-1]
		ti := &c.tables[bits.TrailingZeros64(h.mask)]
		ti.pages = h.pages
		for _, ac := range ti.accesses {
			ac.node.OutPages = h.pages
		}
	}
}

// peel is the size rule's split of a mask. Where feedback observed the mask
// itself, h indexes its hint in c.hints (j is then meaningless); otherwise h
// is −1 and j is the table whose join onto mask minus j sizes mask: the
// lowest-numbered table outside S, the mask's largest hinted proper subset
// (ties to the lowest mask; S is empty without one). Peeling down to S, a
// mask's size is then hint(S) times the selectivity product of the tables
// outside it — LEO's correction est₀(mask)·hint(S)/est₀(S) (Stillger et al.,
// VLDB 2001) in exact arithmetic, and the plain selectivity product without
// hints. A leaf peels to itself.
func (c *ctx) peel(mask uint64) (j, h int) {
	var s uint64
	for i, hn := range c.hints {
		if hn.mask&^mask != 0 {
			continue
		}
		if hn.mask == mask {
			return 0, i
		}
		s = hn.mask
		break
	}
	return bits.TrailingZeros64(mask &^ s), -1
}

// sizeTable decides every subset's size once, by peel's rule: a leaf has its
// filtered pages, a hinted mask its hint, any other mask the clamped
// |mask − j|·|j|·σ(j, mask − j). Every search reads the table, so a subset
// is one join input and one join output at one size in every plan that
// covers it — which is what lets the dynamic programs prune by subset
// (Theorems 2.1, 3.3 and 3.4) and agree with the exhaustive oracle.
func (c *ctx) sizeTable() {
	full := fullMask(c.n)
	c.size = grow(c.size, int(full)+1)
	c.size[0] = 0
	for mask := uint64(1); mask <= full; mask++ {
		j, h := c.peel(mask)
		bit := uint64(1) << uint(j)
		switch {
		case h >= 0:
			c.size[mask] = c.hints[h].pages
		case mask == bit:
			c.size[mask] = c.tables[j].pages
		default:
			rest := mask &^ bit
			c.size[mask] = clampPages(c.size[rest] * c.size[bit] * c.sigmaBetween(j, rest))
		}
	}
}

// prepareTable fills c.tables[idx] with the table's filtered size and its
// access paths: their candidates go to c.acc and their scan nodes to
// c.scans, which prepare links once every table is in.
func (c *ctx) prepareTable(name string, idx int) error {
	t, err := c.cat.Table(name)
	if err != nil {
		return err
	}
	// Table's fields stay writable after NewTable, and the cost formulas
	// price a size that is not positive, NaN included, as empty.
	if p, r := t.Pages, t.Rows; !(p > 0 && r > 0) || math.IsInf(p, 0) || math.IsInf(r, 0) {
		return fmt.Errorf("%w: table %s needs positive, finite pages and rows", ErrNoPlan, name)
	}
	ti := &c.tables[idx]
	*ti = tableInfo{name: name, sel: 1}
	c.filters = c.filters[:0]
	for _, f := range c.blk.Filters {
		if f.Col.Table != name {
			continue
		}
		s, err := c.cat.FilterSelectivity(name, f.Col.Column, f.Op, f.Value)
		if err != nil {
			return err
		}
		ti.sel *= s
		c.filters = append(c.filters, filterSel{f, s})
	}
	ti.pages = clampPages(ti.sel * t.Pages)
	pred := c.compilePred()
	first := len(c.acc)

	// Heap scan: read every base page, filter on the fly.
	io := cost.ScanIO(t.Pages)
	c.scans = append(c.scans, plan.Node{Kind: plan.KindScan, Table: name, Access: plan.AccessHeap,
		Sel: ti.sel, Pred: pred, OutPages: ti.pages, IO: io})
	c.acc = append(c.acc, accessCand{io: io})

	if !c.opts.DisableIndexes {
		for _, ix := range c.cat.IndexesOn(name) {
			// Selectivity achieved through this index: the product of the
			// filters on the indexed column.
			ixSel := 1.0
			matched := false
			for _, f := range c.filters {
				if f.Col.Column == ix.Column {
					ixSel *= f.sel
					matched = true
				}
			}
			ord := plan.Order{Table: name, Column: ix.Column}
			if !matched && !slices.Contains(c.orderCols, ord) {
				continue // the index neither filters nor orders usefully
			}
			io := cost.IndexScanIO(ix.Height, ixSel, t.Pages, t.Rows, ix.Clustered)
			c.scans = append(c.scans, plan.Node{Kind: plan.KindScan, Table: name, Access: plan.AccessIndex,
				Index: ix.Name, Sel: ti.sel, Pred: pred, OutPages: ti.pages, OutOrder: ord, IO: io})
			c.acc = append(c.acc, accessCand{io: io})
		}
	}
	ti.accesses = c.acc[first:] // re-pointed by prepare once c.acc stops moving
	return nil
}

// compilePred reduces the local filters of the table being prepared
// (c.filters) to one executable single-column range (plan.ScanPred),
// stored in c.preds. All filters must target the same column and use
// range-expressible operators; anything else returns nil and the scan stays
// estimation-only (the engine then executes the unfiltered physical shape,
// the pre-access-path behavior).
func (c *ctx) compilePred() *plan.ScanPred {
	if len(c.filters) == 0 {
		return nil
	}
	p := plan.ScanPred{Column: c.filters[0].Col.Column}
	setLo := func(v float64, open bool) {
		if !p.HasLo || v > p.Lo || (v == p.Lo && open) {
			p.Lo, p.LoOpen, p.HasLo = v, open, true
		}
	}
	setHi := func(v float64, open bool) {
		if !p.HasHi || v < p.Hi || (v == p.Hi && open) {
			p.Hi, p.HiOpen, p.HasHi = v, open, true
		}
	}
	for _, f := range c.filters {
		if f.Col.Column != p.Column {
			return nil
		}
		switch f.Op {
		case catalog.OpEq:
			setLo(f.Value, false)
			setHi(f.Value, false)
		case catalog.OpLt:
			setHi(f.Value, true)
		case catalog.OpLe:
			setHi(f.Value, false)
		case catalog.OpGt:
			setLo(f.Value, true)
		case catalog.OpGe:
			setLo(f.Value, false)
		default:
			return nil
		}
	}
	c.preds = append(c.preds, p)
	return &c.preds[len(c.preds)-1]
}

// preparePairs builds the per-pair statistics and the join graph as
// bitmasks over FROM positions, so the DP's connectivity and sort-merge
// order questions are one AND each.
func (c *ctx) preparePairs() error {
	n := c.n
	c.sigma = grow(c.sigma, n*n)
	for i := range c.sigma {
		c.sigma[i] = 1
	}
	c.adj = grow(c.adj, n)
	clear(c.adj)
	c.ordMask = grow(c.ordMask, n)
	clear(c.ordMask)
	for _, j := range c.blk.Joins {
		li := c.blk.TableIndex(j.Left.Table)
		ri := c.blk.TableIndex(j.Right.Table)
		s, err := c.cat.JoinPageSelectivity(j.Left.Table, j.Left.Column, j.Right.Table, j.Right.Column)
		if err != nil {
			return err
		}
		c.sigma[li*n+ri] *= s
		c.sigma[ri*n+li] *= s
		c.adj[li] |= 1 << uint(ri)
		c.adj[ri] |= 1 << uint(li)
		if slices.Contains(c.orderCols, plan.Order{Table: j.Left.Table, Column: j.Left.Column}) ||
			slices.Contains(c.orderCols, plan.Order{Table: j.Right.Table, Column: j.Right.Column}) {
			c.ordMask[li] |= 1 << uint(ri)
			c.ordMask[ri] |= 1 << uint(li)
		}
	}
	return nil
}

// setSelLaws installs per-edge selectivity laws (Algorithm D), sizing the
// table on the first. Keys are EdgeKey strings; missing edges keep
// their point estimates. Two edges on one table pair multiply; a product
// past float range is an error.
func (c *ctx) setSelLaws(laws map[string]dist.Dist) error {
	if len(laws) == 0 {
		return nil
	}
	for _, j := range c.blk.Joins {
		var key [128]byte
		law, ok := laws[string(appendEdgeKey(key[:0], j))]
		if !ok || law.IsZero() {
			continue
		}
		if len(c.sigmaD) == 0 {
			c.sigmaD = grow(c.sigmaD, c.n*c.n) // cleared by release
		}
		li := c.blk.TableIndex(j.Left.Table)
		ri := c.blk.TableIndex(j.Right.Table)
		cur := c.sigmaD[li*c.n+ri]
		if !cur.IsZero() {
			var err error
			if law, err = dist.Combine2(cur, law, func(x, y float64) float64 { return x * y }); err != nil {
				return fmt.Errorf("optimizer: selectivity laws on %s: %w", EdgeKey(j), err)
			}
		}
		c.sigmaD[li*c.n+ri], c.sigmaD[ri*c.n+li] = law, law
	}
	return nil
}

// setSizeLaws installs per-table filtered-size laws (Algorithm D).
func (c *ctx) setSizeLaws(laws map[string]dist.Dist) error {
	for i := range c.tables {
		ti := &c.tables[i]
		if law, ok := laws[ti.name]; ok && !law.IsZero() {
			var err error
			if ti.sizeLaw, err = law.Map(clampPages); err != nil {
				return fmt.Errorf("optimizer: size law of %s: %w", ti.name, err)
			}
			ti.pages = ti.sizeLaw.Mean()
			for _, ac := range ti.accesses {
				ac.node.OutPages = ti.pages
			}
		}
	}
	return nil
}

// minPages floors every size estimate: no input or result is smaller
// than one page.
const minPages = 1

func clampPages(p float64) float64 {
	if p < minPages {
		return minPages
	}
	return p
}

// sigmaBetween returns the point page-selectivity product joining table j
// against every table in mask. Only j's neighbours are visited: a pair
// without an edge has selectivity exactly 1, so the product over mask∩adj[j]
// in ascending order is the product over mask, bit for bit.
func (c *ctx) sigmaBetween(j int, mask uint64) float64 {
	s := 1.0
	for m := mask & c.adj[j]; m != 0; m &= m - 1 {
		s *= c.sigma[bits.TrailingZeros64(m)*c.n+j]
	}
	return s
}

// sigmaLawBetween returns the selectivity law joining table j against
// mask: the product of per-pair laws over mask's members in ascending
// order, using point laws where no distribution was installed (all of
// them while the table is nil). Until the
// first installed law the product is a point and is folded as a scalar —
// Combine2 of two points is the point of their product exactly. From there
// on every member is combined, installed law or not: dist.New renormalises
// by a mass sum that need not be exactly 1, so even a Point(1) factor can
// move the last bit of a real law's probabilities. The chain is built in
// sl, which the call resets first.
func (c *ctx) sigmaLawBetween(sl *dist.Slab, j int, mask uint64) (dist.Dist, error) {
	sl.Reset()
	s := 1.0
	var law dist.Dist
	var err error
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		var pair dist.Dist
		if len(c.sigmaD) != 0 {
			pair = c.sigmaD[i*c.n+j]
		}
		switch {
		case law.IsZero() && pair.IsZero():
			s *= c.sigma[i*c.n+j]
			continue
		case law.IsZero():
			law = sl.Point(s)
		case pair.IsZero():
			pair = sl.Point(c.sigma[i*c.n+j])
		}
		if law, err = sl.Combine2(law, pair, func(x, y float64) float64 { return x * y }); err != nil {
			return dist.Dist{}, err
		}
	}
	if law.IsZero() {
		return sl.Point(s), nil
	}
	return law, nil
}

// connects reports whether table j has a join edge into mask.
func (c *ctx) connects(j int, mask uint64) bool { return c.adj[j]&mask != 0 }

// candidatesInto appends to buf (pass buf[:0] to reuse it) the tables j in
// mask eligible as the last join input for mask: those connected to the
// rest, falling back to all members when the remainder is unreachable
// (forced cross product, §2.2's "trivially true predicate").
func (c *ctx) candidatesInto(mask uint64, buf []int) []int {
	for m := mask; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		if rest := mask &^ (1 << uint(j)); rest == 0 || c.connects(j, rest) {
			buf = append(buf, j)
		}
	}
	if len(buf) > 0 {
		return buf
	}
	for m := mask; m != 0; m &= m - 1 {
		buf = append(buf, bits.TrailingZeros64(m))
	}
	return buf
}

// isCandidate reports whether table j is an eligible last join input for
// mask (j must be a member) — membership in candidatesInto(mask) as a bit
// test. Shared by the DP and the exhaustive oracle so both search the
// identical plan space.
func (c *ctx) isCandidate(j int, mask uint64) bool {
	rest := mask &^ (1 << uint(j))
	if rest == 0 || c.connects(j, rest) {
		return true
	}
	// j qualifies only through the cross-product fallback: no member of
	// mask connects to its own remainder.
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if c.connects(i, mask&^(1<<uint(i))) {
			return false
		}
	}
	return true
}

// mergeOrders reports whether a sort-merge join of table j onto a prefix
// covering leftMask satisfies the ORDER BY: sort-merge output is sorted on
// its join columns, so it does iff some edge between j and the prefix
// carries an ORDER BY-equivalent column. It does not depend on the join
// method, so the DPs ask once per (j, prefix).
func (c *ctx) mergeOrders(j int, leftMask uint64) bool { return c.ordMask[j]&leftMask != 0 }

// joinSlot returns the DP slot a join's output lands in (see slotOf)
// without consulting orderCols: nested-loop variants stream the outer, so
// they inherit the left input's slot; an order-imposing method
// (sort-merge) yields the ORDER BY iff merges (mergeOrders) and takes slot
// 1 exactly then; everything else — grace hash, or a merge on columns the
// ORDER BY does not care about — lands unordered in slot 0. prepare has
// rejected unknown methods.
func joinSlot(m cost.JoinMethod, merges bool, leftSlot int) int {
	switch {
	case m == cost.PageNL || m == cost.BlockNL:
		return leftSlot
	case merges && m.OrdersOutput():
		return 1
	}
	return 0
}

// joinOrder returns the order property of that output: the left input's
// order, the ORDER BY, or none, by joinSlot's cases. Only nested-loop
// variants read the left node, which the DP defers until a candidate
// survives its score check.
func (c *ctx) joinOrder(m cost.JoinMethod, merges bool, left *plan.Node) plan.Order {
	switch {
	case m == cost.PageNL || m == cost.BlockNL:
		return left.OutOrder
	case merges && m.OrdersOutput():
		return c.required
	}
	return plan.Order{}
}

// satisfiesOrderBy reports whether an order property meets the block's
// ORDER BY requirement.
func (c *ctx) satisfiesOrderBy(o plan.Order) bool {
	if c.blk.OrderBy == nil {
		return true
	}
	if o.IsNone() {
		return false
	}
	return slices.Contains(c.orderCols, o)
}

// phaseOfMask returns the execution phase of the join that completes mask.
func phaseOfMask(mask uint64) int {
	k := bits.OnesCount64(mask)
	if k < 2 {
		return 0
	}
	return k - 2
}

// lastPhase returns the final phase index of an n-relation plan.
func lastPhase(n int) int {
	if n < 2 {
		return 0
	}
	return n - 2
}

// fullMask returns the bitmask covering all n tables.
func fullMask(n int) uint64 { return (1 << uint(n)) - 1 }

// better reports whether a plan at score beats the incumbent: strictly
// lower score wins, exact ties break on signature order so optimizer output
// is reproducible. Ties are common — whenever both inputs fit in memory
// every join method costs outer+inner — so the order is decided
// structurally (plan.CompareSignature), and only on a tie.
func better(score float64, node *plan.Node, bestScore float64, best *plan.Node) bool {
	if score != bestScore {
		return score < bestScore
	}
	return plan.CompareSignature(node, best) < 0
}

func checkFinite(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: non-finite score", ErrNoPlan)
	}
	return nil
}
