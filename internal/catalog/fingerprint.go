package catalog

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Fingerprint returns a stable hex digest of the catalog's full statistical
// content: every table (pages, rows, columns with type/distinct/domain)
// and every index. Tables, columns and indexes are hashed
// in name order, so two catalogs with identical statistics produce identical
// fingerprints regardless of registration order and the fingerprint can key
// caches of optimization results — any statistics change (updated row
// count, distinct count or domain, added index) changes the digest and naturally
// invalidates stale cached plans.
//
// The digest is computed once and memoized until the next AddTable/AddIndex;
// serving workloads therefore pay the hash per catalog version, not per
// query — a memoized read is one atomic load, with no lock shared between
// the catalog's readers. Callers that revise a registered *Table's
// statistics in place must call InvalidateFingerprint afterwards, or stale
// plan-cache keys will keep serving plans optimized for the old statistics.
func (c *Catalog) Fingerprint() string { return c.digest(0, 0).hex }

// BandedFingerprint is Fingerprint with every column's distinct count
// quantized into a geometric band of the given base before hashing: the
// digest covers floor(log_base(min(distinct, rows))), not the exact value.
// Two catalogs that differ only by statistics drift *within* a band —
// e.g. an ANALYZE-time distinct count and its 2x-drifted descendant —
// therefore hash equal, which is what lets a drift-banded plan cache keep
// serving a drifting tenant from cache. Pages, rows, domains and
// indexes stay exact: the band absorbs the drift axis only.
//
// base must exceed 1; any other value falls back to the exact Fingerprint.
// Digests are memoized per base until the next mutation.
func (c *Catalog) BandedFingerprint(base float64) string {
	return c.digest(base, 0).hex
}

// AppendFingerprint appends the raw sha256.Size digest bytes — the
// fixed-width form plan-cache keys embed — of the banded fingerprint with
// every band index offset by margin (in band units) before flooring: the
// probe digest of band-edge hysteresis. A catalog whose distinct counts sit
// within |margin| of a band boundary hashes, under the matching-signed
// margin, identically to a neighbor on the boundary's other side: a small
// drift step that happens to cross a floor(log_base) boundary can therefore
// be recognized as the in-band neighbor it really is, instead of splitting
// the plan cache. Margin 0 is the plain BandedFingerprint digest, a
// non-finite margin counts as 0, and base <= 1 is the exact Fingerprint
// whatever the margin. Digests are memoized per (base, margin) until the
// next mutation.
func (c *Catalog) AppendFingerprint(dst []byte, base, margin float64) []byte {
	return append(dst, c.digest(base, margin).sum[:]...)
}

// AppendSchemaDigest appends the sha256.Size raw bytes of the catalog's
// schema digest: table names in sorted order, each with its column names
// (sorted) and types — and no statistic. That is everything name resolution
// reads, so a statement validated against one catalog is valid against
// every catalog with the same schema digest, and statistics drift
// (ScaleDistinct, a re-ANALYZE) leaves the digest alone. It is memoized and
// invalidated with the fingerprints.
func (c *Catalog) AppendSchemaDigest(dst []byte) []byte {
	return append(dst, c.memoized(schemaBase, 0).sum[:]...)
}

// schemaBase is the fpDigest.base under which the schema digest is
// memoized; digest normalizes every caller-supplied base to 0 or > 1, so
// it cannot collide with a fingerprint.
const schemaBase = -1

// fpDigest is one memoized digest: the exact fingerprint (base 0), the
// banded one for (base, margin), or the schema digest (schemaBase).
type fpDigest struct {
	base, margin float64
	sum          [sha256.Size]byte
	hex          string
}

// digest returns the memoized digest for (base, margin), computing and
// publishing it on first use. Snapshots are immutable, so the returned
// pointer stays valid across later publications and invalidations.
func (c *Catalog) digest(base, margin float64) *fpDigest {
	if !(base > 1) {
		base, margin = 0, 0
	} else if math.IsNaN(margin) || math.IsInf(margin, 0) {
		margin = 0 // NaN never equals its own memo entry; ±Inf has no band
	}
	return c.memoized(base, margin)
}

// memoized is digest past argument normalization, shared with the schema
// digest.
func (c *Catalog) memoized(base, margin float64) *fpDigest {
	if d := findDigest(c.fpMemo.Load(), base, margin); d != nil {
		return d
	}
	c.fpMu.Lock()
	defer c.fpMu.Unlock()
	old := c.fpMemo.Load()
	if d := findDigest(old, base, margin); d != nil {
		return d // a concurrent first computation published it
	}
	var next []fpDigest
	if old != nil {
		next = make([]fpDigest, len(*old), len(*old)+1)
		copy(next, *old)
	}
	next = append(next, c.computeDigest(base, margin))
	c.fpMemo.Store(&next)
	return &next[len(next)-1]
}

// findDigest scans a snapshot; a handful of (base, margin) pairs is all a
// catalog ever sees, so a linear scan beats hashing float keys.
func findDigest(memo *[]fpDigest, base, margin float64) *fpDigest {
	if memo == nil {
		return nil
	}
	for i := range *memo {
		if d := &(*memo)[i]; d.base == base && d.margin == margin {
			return d
		}
	}
	return nil
}

// InvalidateFingerprint drops the memoized digests. AddTable/AddIndex call
// it automatically; it is exported for callers that mutate registered table
// statistics in place, which the memo cannot observe.
func (c *Catalog) InvalidateFingerprint() {
	// Under fpMu so the nil lands after any in-flight first computation has
	// published, never before it.
	c.fpMu.Lock()
	c.fpMemo.Store(nil)
	c.fpMu.Unlock()
}

// computeDigest hashes the catalog for one memo entry: names and types only
// for schemaBase, the full statistical content otherwise.
func (c *Catalog) computeDigest(base, margin float64) fpDigest {
	var stack [2048]byte // the preimage of a catalog of a few dozen columns
	var pre []byte
	if base == schemaBase {
		pre = c.appendSchema(stack[:0])
	} else {
		pre = c.appendStats(stack[:0], base, margin)
	}
	d := fpDigest{base: base, margin: margin, sum: sha256.Sum256(pre)}
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], d.sum[:])
	d.hex = string(hx[:])
	return d
}

// appendStats appends the fingerprint preimage: for each table
// "table NAME pages=P rows=R\n" and per column "col NAME type=T D min=MIN
// max=MAX\n", then per index "index NAME on=TABLE.COLUMN clustered=B
// height=H\n", all in name order. D is "distinct=N" exact (base 0), or
// "dband=N" quantized into geometric bands of the given base, offset by
// margin band units (hysteresis probes). Floats render as %v does
// (shortest 'g'), integers as %d.
func (c *Catalog) appendStats(b []byte, base, margin float64) []byte {
	var tstack [16]*Table
	var cstack [64]*Column
	tables, cols := c.sortedTables(tstack[:0], cstack[:0])
	for _, t := range tables {
		b = append(b, "table "...)
		b = append(b, t.Name...)
		b = append(b, " pages="...)
		b = strconv.AppendFloat(b, t.Pages, 'g', -1, 64)
		b = append(b, " rows="...)
		b = strconv.AppendFloat(b, t.Rows, 'g', -1, 64)
		b = append(b, '\n')
		for _, col := range cols[:len(t.columns)] {
			b = append(b, "col "...)
			b = append(b, col.Name...)
			b = append(b, " type="...)
			b = strconv.AppendInt(b, int64(col.Type), 10)
			if base > 1 {
				b = append(b, " dband="...)
				b = strconv.AppendInt(b, int64(distinctBand(col.Distinct, t.Rows, base, margin)), 10)
			} else {
				b = append(b, " distinct="...)
				b = strconv.AppendFloat(b, col.Distinct, 'g', -1, 64)
			}
			b = append(b, " min="...)
			b = strconv.AppendFloat(b, col.Min, 'g', -1, 64)
			b = append(b, " max="...)
			b = strconv.AppendFloat(b, col.Max, 'g', -1, 64)
			b = append(b, '\n')
		}
		cols = cols[len(t.columns):]
	}
	var istack [16]*Index
	ixs := istack[:0]
	for _, ix := range c.indexes {
		ixs = append(ixs, ix)
	}
	slices.SortFunc(ixs, func(a, b *Index) int { return strings.Compare(a.Name, b.Name) })
	for _, ix := range ixs {
		b = append(b, "index "...)
		b = append(b, ix.Name...)
		b = append(b, " on="...)
		b = append(b, ix.Table...)
		b = append(b, '.')
		b = append(b, ix.Column...)
		b = append(b, " clustered="...)
		b = strconv.AppendBool(b, ix.Clustered)
		b = append(b, " height="...)
		b = strconv.AppendFloat(b, ix.Height, 'g', -1, 64)
		b = append(b, '\n')
	}
	return b
}

// distinctBand quantizes a distinct count: the effective value is clamped
// to [1, rows] (a distinct count beyond the row count is statistically
// meaningless and is exactly what multiplicative drift produces), then
// bucketed geometrically, with the band index offset by margin before
// flooring (0 for the canonical band; ± a fraction for hysteresis probes).
// The floored band is clamped to ±maxBand, NaN to −maxBand, before it
// becomes an int: Go leaves the conversion of an out-of-range float
// implementation-defined, and a base just above 1 or a huge margin reaches
// it.
func distinctBand(distinct, rows, base, margin float64) int {
	eff := distinct
	if rows > 0 && eff > rows {
		eff = rows
	}
	if eff < 1 {
		eff = 1
	}
	band := math.Floor(math.Log(eff)/math.Log(base) + margin)
	switch {
	case band > maxBand:
		band = maxBand
	case !(band >= -maxBand):
		band = -maxBand
	}
	return int(band)
}

// maxBand bounds a distinct band's magnitude: 2³⁰ fits an int on every
// target, 32-bit ones included.
const maxBand = 1 << 30

// appendSchema appends the schema digest's preimage: "table NAME\n" per
// table and "col NAME type=T\n" per column, in name order. Names are
// quoted so no choice of names can make two schemas render alike.
func (c *Catalog) appendSchema(b []byte) []byte {
	var tstack [16]*Table
	var cstack [64]*Column
	tables, cols := c.sortedTables(tstack[:0], cstack[:0])
	for _, t := range tables {
		b = append(b, "table "...)
		b = strconv.AppendQuote(b, t.Name)
		b = append(b, '\n')
		for _, col := range cols[:len(t.columns)] {
			b = append(b, "col "...)
			b = strconv.AppendQuote(b, col.Name)
			b = append(b, " type="...)
			b = strconv.AppendInt(b, int64(col.Type), 10)
			b = append(b, '\n')
		}
		cols = cols[len(t.columns):]
	}
	return b
}

// sortedTables appends the catalog's tables in name order to tables, and
// their columns to cols: each table's in name order, table after table.
func (c *Catalog) sortedTables(tables []*Table, cols []*Column) ([]*Table, []*Column) {
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	slices.SortFunc(tables, func(a, b *Table) int { return strings.Compare(a.Name, b.Name) })
	for _, t := range tables {
		start := len(cols)
		for i := range t.columns {
			cols = append(cols, &t.columns[i])
		}
		slices.SortFunc(cols[start:], func(a, b *Column) int { return strings.Compare(a.Name, b.Name) })
	}
	return tables, cols
}
