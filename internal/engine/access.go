// Access paths: the physical operators that read base tables. Until this
// layer existed the executor had exactly one access path — hand the base
// relation to the consuming join — so index plans could not execute and
// the serving loop had to keep them out of its plan space. Now the engine
// and the cost model describe the same machine:
//
//	cost.ScanIO(pages)                 <-> heapScan: every base page read
//	cost.IndexScanIO(h, sel, P, R, cl) <-> indexScan: h root-to-leaf node
//	                                       pages + the covering leaf pages
//	                                       + one data-page fetch per
//	                                       qualifying row (unclustered) or
//	                                       per qualifying page (clustered,
//	                                       entries in storage order)
//
// Both materialize their qualifying tuples into an uncharged temp (the
// pipelined-to-consumer convention join outputs already follow); the
// consuming operator then pays to read the filtered result, exactly as the
// analytic formulas charge the join over the post-filter sizes.
//
// Scans stream: they read through a fixed handful of pool frames
// (scanFrames) regardless of the phase's memory budget, because the
// analytic scan formulas are memory-independent — an index scan that
// silently cached its fetches in a large pool would realize far less I/O
// than the model prices, re-opening the engine/model gap this layer closes.
package engine

import (
	"errors"
	"fmt"

	"lecopt/internal/buffer"
	"lecopt/internal/plan"
	"lecopt/internal/storage"
)

// Access-path errors.
var (
	errStaleIndex = errors.New("engine: index is stale for its relation")
	errPredColumn = errors.New("engine: predicate column not in relation")
)

// scanFrames is the streaming pool capacity of an access path: one frame
// per concurrently-open page kind (index node, leaf, data).
const scanFrames = 3

// HeapScanFiltered reads every page of a base table through a streaming
// pool (charged: exactly NumPages reads, cost.ScanIO's |A|) and
// materializes the tuples matching pred into an uncharged temp relation.
func (e *Engine) HeapScanFiltered(table string, pred *plan.ScanPred) (*storage.Relation, buffer.Stats, error) {
	rel, err := e.store.Get(table)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	m, err := newMatcher(rel, pred)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	pool, err := e.resetPool(scanFrames)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	out, err := e.store.NewTemp("scan", rel.Cols, rel.TuplesPerPage)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	for p := 0; p < rel.NumPages(); p++ {
		page, err := pool.ReadRel(rel, p)
		if err != nil {
			e.store.Drop(out.Name)
			return nil, pool.Stats(), err
		}
		for _, t := range page {
			if m.match(t) {
				if err := out.Append(t); err != nil {
					e.store.Drop(out.Name)
					return nil, pool.Stats(), err
				}
			}
		}
	}
	return out, pool.Stats(), nil
}

// IndexScan walks the named index over pred's key range and materializes
// the qualifying tuples, in index-key order, into an uncharged temp
// relation. Charged I/O is the walk itself: height node pages, the
// covering leaf pages, and the data-page fetches — each through the
// streaming pool, so a clustered index (entries in storage order) fetches
// each qualifying data page once while an unclustered one pays per row,
// minus whatever the few frames keep resident. pred may be nil (full
// range: an index scan used for its order) and may target a column other
// than the indexed one (the walk covers the full range and the predicate
// filters residually).
func (e *Engine) IndexScan(name string, pred *plan.ScanPred) (*storage.Relation, buffer.Stats, error) {
	ix, err := e.store.Index(name)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	rel, err := e.store.Get(ix.Table)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	if !ix.Fresh(e.store) {
		return nil, buffer.Stats{}, fmt.Errorf("%w: %s over %s", errStaleIndex, name, ix.Table)
	}
	m, err := newMatcher(rel, pred)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	lo, hi := int64(minKey), int64(maxKey)
	if pred != nil && pred.Column == ix.Column {
		lo, hi = pred.KeyRange()
	}
	pool, err := e.resetPool(scanFrames)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	out, err := e.store.NewTemp("ixscan", rel.Cols, rel.TuplesPerPage)
	if err != nil {
		return nil, buffer.Stats{}, err
	}
	err = ix.WalkRange(pool.Read, lo, hi, func(_ int64, page, slot int) error {
		data, err := pool.ReadRel(rel, page)
		if err != nil {
			return err
		}
		t := data[slot]
		if m.match(t) {
			return out.Append(t)
		}
		return nil
	})
	if err != nil {
		e.store.Drop(out.Name)
		return nil, pool.Stats(), err
	}
	return out, pool.Stats(), nil
}

// minKey/maxKey are the unbounded walk limits.
const (
	minKey = -(1 << 62)
	maxKey = 1 << 62
)

// matcher is a predicate compiled against a relation's schema; a nil pred
// matches every tuple.
type matcher struct {
	pred *plan.ScanPred
	col  int
}

func newMatcher(rel *storage.Relation, pred *plan.ScanPred) (matcher, error) {
	if pred == nil {
		return matcher{}, nil
	}
	ci, err := rel.ColIndex(pred.Column)
	if err != nil {
		return matcher{}, fmt.Errorf("%w: %s.%s", errPredColumn, rel.Name, pred.Column)
	}
	return matcher{pred: pred, col: ci}, nil
}

func (m matcher) match(t storage.Tuple) bool {
	return m.pred == nil || m.pred.Match(float64(t[m.col]))
}
