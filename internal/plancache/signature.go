package plancache

import (
	"encoding/binary"
	"math"
	"slices"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/query"
)

// KeyLen is a key-buffer capacity that fits typical cache keys: a 2–5
// table query under a point or few-bucket memory law keys in 100–500
// bytes. Keys have no fixed length — a key is its preimage (AppendKey) —
// so a longer one grows its buffer, and a caller that keeps the grown
// buffer for the next key (as Cache.GetBytes/ProbeBytes callers do)
// allocates only until it has seen its longest key.
const KeyLen = 512

// AppendKey appends to dst the cache key covering everything an
// optimization's outcome depends on, and returns the extended slice:
//
//   - the catalog fingerprint — exact when driftBand <= 1, or the
//     drift-banded fingerprint (distinct counts bucketed into geometric
//     bands of base driftBand; see catalog.BandedFingerprint) otherwise,
//     so statistics drifting within a band keep hitting the same entry,
//   - the query's canonical shape (tables, predicates, ORDER BY — order
//     insensitive),
//   - the environment laws (memory distribution plus the full Markov
//     transition matrix when dynamic),
//   - the Algorithm D selectivity and size laws,
//   - the plan-space options — including executed-size feedback hints,
//     which change which plan is optimal — the algorithm's code alg and
//     Algorithm B's top-c.
//
// The key is those inputs' encoding itself, not a digest of it: two
// scenarios share a key exactly when their normalized inputs are equal, so
// a cache keyed on it can never serve one scenario another's plan. With an
// exact fingerprint, two scenarios that key equal are optimized
// identically, so memoized PlanReports can be shared; with a banded
// fingerprint they are optimized *equivalently up to in-band drift* — the
// deliberate approximation that lets drifting tenants share plans.
//
// margin offsets the catalog's distinct-count bands by that many band units
// (catalog.AppendFingerprint) — the band-edge hysteresis probe key.
// Everything outside the catalog digest encodes identically to margin 0,
// so a statistics state sitting within |margin| of a band boundary
// produces, under the matching-signed margin, the very key its
// across-the-boundary neighbor was cached under. Margin only applies to
// banded keys (driftBand > 1); with exact keys it is ignored.
//
// The encoding is binary, with no text formatting on the path. Fields come
// in a fixed order; floats are their 8 IEEE-754 bytes, counts and small
// codes are uvarints, strings carry a length prefix, and every
// variable-length sequence (law, chain, law map, hints, methods) opens with
// its element count — so distinct scenarios never encode to the same bytes,
// whatever their strings contain, and no key is a proper prefix of
// another. The catalog enters as its memoized 32-byte digest, hashed once
// per catalog version, and the query as its memoized canonical shape. When
// dst has room for the key the call performs zero heap allocations (up to
// 16 hints or Algorithm D laws per map).
func AppendKey(dst []byte, cat *catalog.Catalog, blk *query.Block, env envsim.Env,
	selLaws, sizeLaws map[string]dist.Dist, opts optimizer.Options, topC int,
	alg uint8, driftBand, margin float64) []byte {
	opts = opts.Normalized() // zero-value and explicit defaults key equal
	if !(driftBand > 1) {
		driftBand = 0 // every exact-key spelling keys equal
	}
	dst = append(dst, alg)
	dst = binary.AppendUvarint(dst, uint64(topC))
	dst = cat.AppendFingerprint(dst, driftBand, margin)
	dst = appendFloat(dst, driftBand)
	dst = appendString(dst, blk.Canonical())
	dst = appendDist(dst, env.Mem)
	if env.Chain == nil {
		dst = append(dst, 0)
	} else {
		n := env.Chain.Len()
		dst = binary.AppendUvarint(dst, uint64(n))
		for i := 0; i < n; i++ {
			dst = appendFloat(dst, env.Chain.State(i))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dst = appendFloat(dst, env.Chain.Prob(i, j))
			}
		}
	}
	dst = appendLawMap(dst, selLaws)
	dst = appendLawMap(dst, sizeLaws)
	dst = appendHints(dst, opts.SizeHints)
	dst = binary.AppendUvarint(dst, uint64(len(opts.Methods)))
	for _, m := range opts.Methods {
		dst = append(dst, byte(m))
	}
	dst = binary.AppendUvarint(dst, uint64(opts.SizeBuckets))
	return append(dst, byte(opts.CostModel))
}

// appendFloat appends v's IEEE-754 bits. Every NaN encodes alike, as every
// NaN prints alike.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) {
		v = math.NaN()
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendString appends s behind its length.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendDist appends a distribution's bucket count, then each bucket's
// support value and probability.
func appendDist(b []byte, d dist.Dist) []byte {
	n := d.Len()
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		b = appendFloat(b, d.Value(i))
		b = appendFloat(b, d.Prob(i))
	}
	return b
}

// keyScratch is the stack room for a map's sorted keys; larger maps spill
// to the heap.
type keyScratch [16]string

// sortedKeys returns m's keys in ascending order, in scratch's backing
// array when they fit.
func sortedKeys[V any](scratch *keyScratch, m map[string]V) []string {
	keys := scratch[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendHints appends the executed-size feedback hints: their count, then
// each (key, pages) entry in sorted key order.
func appendHints(b []byte, hints map[string]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(hints)))
	if len(hints) == 0 {
		return b
	}
	var scratch keyScratch
	for _, k := range sortedKeys(&scratch, hints) {
		b = appendString(b, k)
		b = appendFloat(b, hints[k])
	}
	return b
}

// appendLawMap appends a law map: its count, then each (key, law) entry in
// sorted key order.
func appendLawMap(b []byte, laws map[string]dist.Dist) []byte {
	b = binary.AppendUvarint(b, uint64(len(laws)))
	if len(laws) == 0 {
		return b
	}
	var scratch keyScratch
	for _, k := range sortedKeys(&scratch, laws) {
		b = appendString(b, k)
		b = appendDist(b, laws[k])
	}
	return b
}
