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
// Observations are folded with an exponential moving average and exported
// rounded to two significant figures: rounding makes a converged hint a
// *stable* value, so plan-cache keys (which hash the hints) stop churning
// once the store has settled. All methods are safe for concurrent use.
package feedback

import (
	"hash/maphash"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultAlpha is the EWMA weight of a new observation.
const DefaultAlpha = 0.5

// SetKey canonically names a set of joined tables: sorted names joined by
// "+". A single name keys a base table's filtered size. It is the key
// vocabulary shared by the engine's observed sizes (engine.ExecResult) and
// the optimizer's size hints (optimizer.Options.SizeHints).
func SetKey(tables ...string) string {
	s := append([]string(nil), tables...)
	sort.Strings(s)
	return strings.Join(s, "+")
}

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
// while every optimization reads Hints — no longer serializes on one
// RWMutex. The observation count is a store-global atomic, which gives
// the serving layer a lock-free "has anything been observed yet?" gate.
type Store struct {
	alpha  float64
	seed   maphash.Seed
	obs    atomic.Uint64
	shards [shardCount]storeShard
}

type storeShard struct {
	mu      sync.RWMutex
	queries map[string]map[string]float64 // query key -> set key -> ewma pages
}

// NewStore returns an empty store. alpha is the EWMA weight of each new
// observation; 0 uses DefaultAlpha.
func NewStore(alpha float64) *Store {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	s := &Store{alpha: alpha, seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].queries = make(map[string]map[string]float64)
	}
	return s
}

func (s *Store) shardOf(query string) *storeShard {
	return &s.shards[maphash.String(s.seed, query)&(shardCount-1)]
}

// Observe folds one execution's observed sizes (SetKey -> pages) into the
// query's running averages. Non-positive and non-finite sizes are ignored.
func (s *Store) Observe(query string, sizes map[string]float64) {
	if len(sizes) == 0 {
		return
	}
	sh := s.shardOf(query)
	folded := uint64(0)
	sh.mu.Lock()
	m := sh.queries[query]
	for k, v := range sizes {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if m == nil { // registered only once a size folds
			m = make(map[string]float64, len(sizes))
			sh.queries[query] = m
		}
		if old, ok := m[k]; ok {
			m[k] = s.alpha*v + (1-s.alpha)*old
		} else {
			m[k] = v
		}
		folded++
	}
	sh.mu.Unlock()
	if folded > 0 {
		s.obs.Add(folded)
	}
}

// Hints returns the query's observed sizes rounded to two significant
// figures (a fresh map; nil when nothing was observed). The rounding keeps
// hints — and therefore plan-cache keys that hash them — stable once the
// EWMA has converged.
func (s *Store) Hints(query string) map[string]float64 {
	sh := s.shardOf(query)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m := sh.queries[query]
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = RoundSig(v)
	}
	return out
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
// lock-free, so hot paths can use it to skip per-request Hints lookups
// (and their query-key construction) until something has been observed.
func (s *Store) Observations() uint64 {
	return s.obs.Load()
}

// RoundSig rounds a positive value to two significant decimal figures
// (1234 -> 1200, 0.037 -> 0.037); non-positive values pass through, and so
// do values at the ends of the float range, where the rounding scale would
// be subnormal (values below 1e-306) or the rounded value would overflow:
// a positive finite size never rounds to 0 or +Inf.
func RoundSig(v float64) float64 {
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
