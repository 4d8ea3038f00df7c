// Package feedback is the executed-size feedback store: it remembers the
// *observed* page counts of intermediate join results from real engine
// executions and serves them back to the optimizer as size hints for
// subsequent optimizations of the same query.
//
// The cost model's weakest input is the estimated intermediate-result
// size: nested-loop joins charge outer·inner, so a 3x size misestimate
// becomes a ~10x cost misestimate (the 16x-vs-3.5x band split documented
// by the serving package's model-agreement property). The executed sizes
// are exact — the engine materializes every intermediate — and they are
// order-independent (joining {a,b,c} yields the same logical result pages
// in any join order), so one observation corrects every plan prefix that
// covers the same table set, and the optimizer scales the estimate of
// every superset by it too (optimizer.Options.SizeHints).
//
// Observations are folded with an exponential moving average and rounded
// to two significant figures at Observe time: rounding makes a converged
// hint a *stable* value, so plan-cache keys (which hash the hints) stop
// churning once the store has settled. Each query's rounded hints are
// published as an immutable snapshot, rebuilt only when a rounded value
// moves or a new set key arrives, so a read is one sharded map lookup and
// a converged query republishes nothing. All methods are safe for
// concurrent use.
package feedback

import (
	"hash/maphash"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// defaultAlpha is the EWMA weight of a new observation.
const defaultAlpha = 0.5

// SetKey canonically names a set of joined tables: sorted names joined by
// "+". A single name keys a base table's filtered size. It is the key
// vocabulary shared by the engine's observed sizes (engine.ExecResult) and
// the optimizer's size hints (optimizer.Options.SizeHints).
func SetKey(tables ...string) string {
	var stack [setKeyStack]string
	s := append(stack[:0], tables...)
	slices.Sort(s)
	return strings.Join(s, "+")
}

// setKeyStack is how many names SetKey sorts without a heap copy: as many
// as a query may join (query.MaxTables).
const setKeyStack = 24

// shardCount must be a power of two; shards are selected by the low bits
// of the query key's hash, the same layout as the sharded plan cache.
const shardCount = 16

// Store accumulates executed-size observations per query. Queries are
// identified by an opaque key chosen by the caller (the Optimizer service
// uses canonical query shape + catalog fingerprint).
//
// The store is sharded by query-key hash: an Observe for one query only
// contends with readers and writers of queries in the same shard, so the
// engine-in-the-loop serving pattern — every executed request Observes
// while every optimization reads hints — does not serialize on one
// RWMutex. Each query keeps its running averages beside the rounded
// snapshot readers get; Observe replaces the snapshot under the shard lock
// when, and only when, a rounded value changes or a set key is added, and
// never writes into a published one. The observation count is a
// store-global atomic, which gives the serving layer a lock-free "has
// anything been observed yet?" gate.
type Store struct {
	alpha  float64
	seed   maphash.Seed
	obs    atomic.Uint64
	shards [shardCount]storeShard
}

type storeShard struct {
	mu      sync.RWMutex
	queries map[string]*entry
}

// entry is one query's observations.
type entry struct {
	ewma map[string]float64 // set key -> ewma pages; guarded by the shard lock
	// hints is ewma rounded by roundSig: published under the shard lock,
	// never mutated after.
	hints map[string]float64
}

// NewStore returns an empty store. alpha is the EWMA weight of each new
// observation; 0 uses the default, 0.5.
func NewStore(alpha float64) *Store {
	if alpha <= 0 || alpha > 1 {
		alpha = defaultAlpha
	}
	s := &Store{alpha: alpha, seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].queries = make(map[string]*entry)
	}
	return s
}

// shard maps a query key's hash to its shard. maphash.Bytes and
// maphash.String agree on equal bytes, so both key forms pick one shard.
func (s *Store) shard(h uint64) *storeShard { return &s.shards[h&(shardCount-1)] }

// ObserveBytes folds one execution's observed sizes (SetKey -> pages) into
// the query's running averages and republishes its hints if a rounded value
// changed. Non-positive and non-finite sizes are ignored. The key is copied
// only when the query is registered, so observing a known query allocates
// nothing unless its hints move.
func (s *Store) ObserveBytes(query []byte, sizes map[string]float64) {
	observe(s, maphash.Bytes(s.seed, query), query, sizes)
}

// Observe is ObserveBytes for a string key.
func (s *Store) Observe(query string, sizes map[string]float64) {
	observe(s, maphash.String(s.seed, query), query, sizes)
}

// observe is the body of Observe and ObserveBytes; h is the key's hash.
func observe[K string | []byte](s *Store, h uint64, query K, sizes map[string]float64) {
	if len(sizes) == 0 {
		return
	}
	sh := s.shard(h)
	folded := uint64(0)
	moved := false
	sh.mu.Lock()
	e := sh.queries[string(query)]
	for k, v := range sizes {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if e == nil { // registered only once a size folds
			e = &entry{ewma: make(map[string]float64, len(sizes))}
			sh.queries[string(query)] = e
		}
		old, ok := e.ewma[k]
		if ok {
			v = s.alpha*v + (1-s.alpha)*old
		}
		e.ewma[k] = v
		moved = moved || !ok || roundSig(v) != roundSig(old)
		folded++
	}
	if moved {
		hints := make(map[string]float64, len(e.ewma))
		for k, v := range e.ewma {
			hints[k] = roundSig(v)
		}
		e.hints = hints
	}
	sh.mu.Unlock()
	if folded > 0 {
		s.obs.Add(folded)
	}
}

// HintsBytes returns the query's observed sizes rounded to two significant
// figures, or nil when nothing was observed. The map is the store's shared
// snapshot: it must not be modified, and it stays valid (and unchanged)
// after later observations publish a new one. The lookup allocates
// nothing.
func (s *Store) HintsBytes(query []byte) map[string]float64 {
	sh := s.shard(maphash.Bytes(s.seed, query))
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.queries[string(query)]; e != nil {
		return e.hints
	}
	return nil
}

// Hints is HintsBytes for a string key, returning a fresh map the caller
// owns (nil when nothing was observed).
func (s *Store) Hints(query string) map[string]float64 {
	sh := s.shard(maphash.String(s.seed, query))
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.queries[query]; e != nil {
		return maps.Clone(e.hints)
	}
	return nil
}

// Queries returns the number of distinct queries with observations.
func (s *Store) Queries() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.queries)
		sh.mu.RUnlock()
	}
	return n
}

// Observations returns the total number of folded size observations. It is
// lock-free, so hot paths can use it to skip per-request hint lookups
// (and their query-key construction) until something has been observed.
func (s *Store) Observations() uint64 {
	return s.obs.Load()
}

// roundSig rounds a positive value to two significant decimal figures
// (1234 -> 1200, 0.037 -> 0.037); non-positive values pass through, and so
// do values at the ends of the float range, where the rounding scale would
// be subnormal (values below 1e-306) or the rounded value would overflow:
// a positive finite size never rounds to 0 or +Inf.
func roundSig(v float64) float64 {
	if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	scale := math.Pow(10, math.Floor(math.Log10(v))-1)
	r := math.Round(v/scale) * scale
	if scale < 0x1p-1022 || math.IsInf(r, 0) {
		return v
	}
	return r
}
