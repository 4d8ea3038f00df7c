package engine

import (
	"errors"
	"fmt"
	"math"

	"lecopt/internal/buffer"
	"lecopt/internal/cost"
	"lecopt/internal/feedback"
	"lecopt/internal/plan"
	"lecopt/internal/storage"
)

// Executor errors.
var (
	errNotLeftDeep = errors.New("engine: executor requires a left-deep plan")
	errShortMems   = errors.New("engine: memory sequence shorter than plan phases")
)

// ExecResult is the outcome of executing a whole plan.
type ExecResult struct {
	// Output is the materialized result, always a temp of the engine's
	// store (a plan that is one unfiltered scan gets an uncharged copy of
	// its table), so dropping it never drops a table. Its tuples are valid
	// until the caller drops it.
	Output *storage.Relation
	Stats  buffer.Stats
	// PhaseIO breaks the physical I/O down by execution phase.
	PhaseIO []int64
	// PhaseMem records the effective memory budget each phase ran with —
	// the sampled memSeq value exactly as the executor consumed it
	// (cost.MemPages: truncated to whole pages, floored at the 3-page
	// operator minimum, unbounded = MaxInt32), one entry per phase,
	// parallel to PhaseIO. Pricing the plan under PhaseMem's point laws
	// (optimizer.ExpectedCostPhasesModel over dist.Points(PhaseMem))
	// conditions the analytic model on the memory trajectory this
	// execution actually saw, isolating formula error from law error.
	PhaseMem []float64
	// JoinSizes records the *observed* page count of every join's
	// materialized output, keyed by feedback.SetKey over the leaf tables
	// the join covers. These are the executed intermediate-result sizes
	// that size-estimation feedback (optimizer.Options.SizeHints, via a
	// feedback.Store) folds into subsequent costing.
	JoinSizes map[string]float64
	// GraceFallbacks counts grace-hash recursions that hit the level cap
	// and degenerated to block nested loop, across all joins of the plan;
	// GraceFallbackIO is the physical I/O those fallbacks charged. A
	// nonzero count means the engine ran a machine neither cost model
	// describes — "engine degenerated", not "model wrong".
	GraceFallbacks  int
	GraceFallbackIO int64
	// GraceLevels is the deepest grace-hash partitioning recursion any
	// join of the plan performed (0: every grace build side fit in
	// memory, or no grace join ran).
	GraceLevels int
}

// ExecutePlan runs a left-deep plan against the store, one join per phase
// with the phase's memory budget, and returns the materialized result and
// the measured physical I/O. Conventions match the analytic cost model:
// each phase's join reads its inputs through a fresh pool of memSeq[phase]
// pages (charged); intermediate results are materialized without charge
// (the pipelined-to-consumer assumption) and the next phase pays to read
// them. The root ORDER BY sort, if present, runs in the final phase.
//
// Scan leaves read base tables; filter predicates are not re-evaluated
// here (the engine executes the physical shape — join order, methods,
// sort — which is what the optimizer chose and what the I/O comparison
// needs). Join columns are resolved by the plan's join edges: each join
// node must carry left/right tables joined on a column named "k", the
// convention of the storage generators; a join on other columns is one
// JoinDetailed call whose JoinSpec names them.
//
// The execution is one unit of row storage (storage.Store.Settle): the
// rows its joins build, the output's and the dropped intermediates' its
// tuples may point into, stay valid until the caller drops the output,
// and then go back to the store for later executions to build rows in. A
// failed execution drops its temps and gives their rows back at once.
func (e *Engine) ExecutePlan(p *plan.Node, memSeq []float64) (ExecResult, error) {
	if err := p.Validate(); err != nil {
		return ExecResult{}, err
	}
	if !p.IsLeftDeep() {
		return ExecResult{}, errNotLeftDeep
	}
	phases := p.Phases()
	if len(memSeq) < phases {
		return ExecResult{}, fmt.Errorf("%w: %d < %d", errShortMems, len(memSeq), phases)
	}
	// One conversion for every operator of the plan, done before any temp
	// exists: a NaN budget is the caller's bug, not a 3-page run.
	phaseMem := make([]float64, phases)
	for i, m := range memSeq[:phases] {
		if math.IsNaN(m) {
			return ExecResult{}, fmt.Errorf("%w: phase %d is NaN", errBadMemory, i)
		}
		phaseMem[i] = float64(cost.MemPages(m))
	}
	ex := &e.exec
	*ex = executor{
		eng: e, mem: phaseMem,
		phaseIO: make([]int64, phases), joinSizes: make(map[string]float64),
		temps: ex.temps[:0], tables: ex.tables[:0],
	}
	rel, err := ex.run(p)
	clear(ex.tables)
	e.store.Settle(rel)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{
		Output: rel, Stats: ex.total, PhaseIO: ex.phaseIO, PhaseMem: phaseMem,
		JoinSizes:      ex.joinSizes,
		GraceFallbacks: ex.detail.GraceFallbacks, GraceFallbackIO: ex.detail.GraceFallbackIO,
		GraceLevels: ex.detail.GraceLevels,
	}, nil
}

// joinCol is the join column every relation of an executed plan shares (the
// storage generators' convention; JoinDetailed takes any other).
const joinCol = "k"

// executor is one ExecutePlan's state. The engine keeps it, so the temps
// and tables stacks keep their arrays from plan to plan.
type executor struct {
	eng       *Engine
	mem       []float64 // pool capacity per phase, whole pages
	total     buffer.Stats
	phaseIO   []int64
	joinSizes map[string]float64
	temps     []string
	// tables is the stack of the leaf tables of the subtrees being
	// evaluated: a subtree's tables are the top of the stack from the
	// position eval returns, the outer's before the inner's.
	tables []string
	detail JoinDetail
}

// run evaluates a subtree and returns its materialized relation. The leaf
// tables covered by each subtree are tracked both to map joins onto phases
// (a join covering k relations runs in phase k-2) and to key the observed
// join-output sizes.
func (ex *executor) run(n *plan.Node) (*storage.Relation, error) {
	rel, _, err := ex.eval(n)
	if err == nil && n.Kind == plan.KindScan && rel.Name == n.Table {
		rel, err = ex.copyBase(rel)
	}
	if err != nil {
		ex.cleanup()
		return nil, err
	}
	// Drop all temporaries except the final output.
	for _, t := range ex.temps {
		if t != rel.Name {
			ex.eng.store.Drop(t)
		}
	}
	clear(ex.temps)
	ex.temps = ex.temps[:0]
	return rel, nil
}

// copyBase gives a plan that is one unfiltered heap scan — which evaluates
// to the base table itself — a temp for its output, so that the caller
// drops a copy, never the table. The copy is uncharged, as the base table
// handed to a consumer is: the scan's read is the caller's. Its tuples are
// the table's rows, which are never recycled.
func (ex *executor) copyBase(rel *storage.Relation) (*storage.Relation, error) {
	out, err := ex.eng.store.NewTemp("scan", rel.Cols, rel.TuplesPerPage)
	if err != nil {
		return nil, err
	}
	ex.temps = append(ex.temps, out.Name)
	storage.Reserve(rel.NumTuples(), out)
	for p := 0; p < rel.NumPages(); p++ {
		page, err := rel.Page(p)
		if err != nil {
			return nil, err
		}
		if err := out.Append(page...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (ex *executor) cleanup() {
	for _, t := range ex.temps {
		ex.eng.store.Drop(t)
	}
	clear(ex.temps)
	ex.temps = ex.temps[:0]
}

// eval evaluates a subtree to its materialized relation and pushes the
// subtree's leaf tables, returning where they start on ex.tables.
func (ex *executor) eval(n *plan.Node) (*storage.Relation, int, error) {
	switch n.Kind {
	case plan.KindScan:
		rel, err := ex.eng.store.Get(n.Table)
		if err != nil {
			return nil, 0, err
		}
		switch {
		case n.Access == plan.AccessIndex:
			// Real index walk: node/leaf/fetch I/O charged through the
			// scan's streaming pool; qualifying tuples materialized
			// (uncharged) for the consuming operator to read.
			out, st, err := ex.eng.IndexScan(n.Index, n.Pred)
			if err != nil {
				return nil, 0, err
			}
			return ex.finishScan(n, out, st)
		case n.Pred != nil:
			// Filtered heap scan: every base page read (charged), the
			// qualifying tuples materialized.
			out, st, err := ex.eng.HeapScanFiltered(n.Table, n.Pred)
			if err != nil {
				return nil, 0, err
			}
			return ex.finishScan(n, out, st)
		}
		// Unfiltered heap scan: hand the base relation to the consumer,
		// which pays the read — the model's ScanIO charge shows up as the
		// consuming operator's input pass.
		ex.tables = append(ex.tables, n.Table)
		return rel, len(ex.tables) - 1, nil
	case plan.KindSort:
		child, start, err := ex.eval(n.Child)
		if err != nil {
			return nil, 0, err
		}
		phase := 0
		if k := len(ex.tables) - start; k >= 2 {
			phase = k - 2
		}
		mem := int(ex.mem[phase])
		// In-memory sorts are free in the model; still read the input if
		// it's an unmaterialized base table (materialized inputs — join
		// outputs and filtered/index scan temps — were already charged).
		if child.NumPages() <= mem && (n.Child.Kind != plan.KindScan || child.Name != n.Child.Table) {
			sorted, err := ex.materializeSorted(child)
			if err != nil {
				return nil, 0, err
			}
			return sorted, start, nil
		}
		out, st, err := ex.eng.sortRelation(child.Name, ex.colFor(child), mem)
		if err != nil {
			return nil, 0, err
		}
		ex.charge(phase, st)
		ex.temps = append(ex.temps, out.Name)
		return out, start, nil
	case plan.KindJoin:
		left, start, err := ex.eval(n.Left)
		if err != nil {
			return nil, 0, err
		}
		right, _, err := ex.eval(n.Right)
		if err != nil {
			return nil, 0, err
		}
		tables := ex.tables[start:]
		phase := len(tables) - 2
		out, st, err := ex.joinRels(n.Method, left, right, int(ex.mem[phase]))
		if err != nil {
			return nil, 0, err
		}
		ex.charge(phase, st)
		ex.joinSizes[ex.eng.setKey(n, tables)] = float64(out.NumPages())
		ex.temps = append(ex.temps, out.Name)
		return out, start, nil
	default:
		return nil, 0, fmt.Errorf("engine: unknown plan node kind %v", n.Kind)
	}
}

// finishScan books a materialized access path: its I/O lands in phase 0
// (the convention single-table sorts already follow — the model's scan
// charges carry no phase attribution, only the total must agree), its
// observed post-filter size feeds the executed-size loop under the
// single-table feedback key, and the temp is tracked for cleanup.
func (ex *executor) finishScan(n *plan.Node, out *storage.Relation, st buffer.Stats) (*storage.Relation, int, error) {
	ex.charge(0, st)
	ex.joinSizes[feedback.SetKey(n.Table)] = float64(out.NumPages())
	ex.temps = append(ex.temps, out.Name)
	ex.tables = append(ex.tables, n.Table)
	return out, len(ex.tables) - 1, nil
}

func (ex *executor) charge(phase int, st buffer.Stats) {
	ex.total.Reads += st.Reads
	ex.total.Writes += st.Writes
	ex.total.Hits += st.Hits
	if phase >= 0 && phase < len(ex.phaseIO) {
		ex.phaseIO[phase] += st.IO()
	}
}

// colFor returns the join column's name within a relation: base tables use
// the configured join column; join outputs carry the outer side's column
// first, prefixed "o.".
func (ex *executor) colFor(rel *storage.Relation) string {
	for _, c := range rel.Cols {
		if c == joinCol {
			return c
		}
	}
	// Join outputs qualify columns; prefer the outer-side key.
	for _, c := range rel.Cols {
		if c == "o."+joinCol || c == "i."+joinCol {
			return c
		}
	}
	// Fall back to the shortest qualified key ("o.o.k", ...).
	suffix := "." + joinCol
	best := ""
	for _, c := range rel.Cols {
		if len(c) > len(suffix) && c[len(c)-len(suffix):] == suffix {
			if best == "" || len(c) < len(best) {
				best = c
			}
		}
	}
	if best != "" {
		return best
	}
	return rel.Cols[0]
}

// joinRels dispatches a join between two materialized relations on the
// configured key column, folding the join's execution-shape detail into
// the plan-level counters.
func (ex *executor) joinRels(method cost.JoinMethod, outer, inner *storage.Relation, mem int) (*storage.Relation, buffer.Stats, error) {
	out, st, det, err := ex.eng.joinDetailed(JoinSpec{
		Method:   method,
		Outer:    outer.Name,
		Inner:    inner.Name,
		OuterCol: ex.colFor(outer),
		InnerCol: ex.colFor(inner),
	}, mem)
	ex.detail.GraceFallbacks += det.GraceFallbacks
	ex.detail.GraceFallbackIO += det.GraceFallbackIO
	if det.GraceLevels > ex.detail.GraceLevels {
		ex.detail.GraceLevels = det.GraceLevels
	}
	return out, st, err
}

// materializeSorted copies a relation sorted in memory (uncharged: the
// model's "fits in memory" case).
func (ex *executor) materializeSorted(rel *storage.Relation) (*storage.Relation, error) {
	out, err := ex.eng.store.NewTemp("memsort", rel.Cols, rel.TuplesPerPage)
	if err != nil {
		return nil, err
	}
	ex.temps = append(ex.temps, out.Name)
	ci, err := rel.ColIndex(ex.colFor(rel))
	if err != nil {
		return nil, err
	}
	batch := ex.eng.batch[:0]
	for p := 0; p < rel.NumPages(); p++ {
		page, err := rel.Page(p)
		if err != nil {
			return nil, err
		}
		batch = append(batch, page...)
	}
	ex.eng.batch = batch
	storage.Reserve(len(batch), out)
	err = out.Append(ex.eng.sorter.sort(batch, ci)...)
	ex.eng.release()
	if err != nil {
		return nil, err
	}
	return out, nil
}
