// Package catalog is a leclint fixture shadowing lecopt/internal/catalog:
// the fppurity analyzer roots its call graph at Fingerprint/
// BandedFingerprint by import-path suffix, so the impure helpers reachable
// from them are seeded violations while unreachable twins stay silent.
package catalog

import (
	"fmt"
	"sort"
	"time"
)

// salt is package-level mutable state; reading it from a digest makes two
// identical catalogs hash differently across processes.
var salt = "s0"

// Catalog is a minimal stand-in.
type Catalog struct {
	tables map[string]int
}

// Fingerprint is a purity entry point: everything it reaches is checked.
func (c *Catalog) Fingerprint() string {
	return c.hashTables() + stamped() + c.emitUnsorted()
}

// BandedFingerprint is the second entry point; its helper is clean.
func (c *Catalog) BandedFingerprint(base float64) string {
	return c.emitSorted()
}

// AppendSchemaDigest is the statement memo's entry point: a schema digest
// that varies between processes would never alias, one that reads mutable
// state could alias two schemas.
func (c *Catalog) AppendSchemaDigest(dst []byte) []byte {
	return append(dst, c.schemaNames()...)
}

// schemaNames is reachable only from AppendSchemaDigest.
func (c *Catalog) schemaNames() string {
	return salt + c.emitSorted() // want `package-level mutable state`
}

// hashTables reads package-level mutable state from inside the digest.
func (c *Catalog) hashTables() string {
	return salt // want `package-level mutable state`
}

// stamped consults the clock from inside the digest.
func stamped() string {
	return time.Now().String() // want `clock`
}

// emitUnsorted writes map-iteration-order-dependent bytes.
func (c *Catalog) emitUnsorted() string {
	out := ""
	for name, pages := range c.tables {
		out += fmt.Sprint(name, pages) // want `map-iteration-order`
	}
	return out
}

// emitSorted is the canonical collect-then-sort digest loop. True
// negative.
func (c *Catalog) emitSorted() string {
	names := make([]string, 0, len(c.tables))
	for name := range c.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ""
	for _, name := range names {
		out += fmt.Sprint(name, c.tables[name])
	}
	return out
}

// unreachableClock is identical to stamped but never called from an entry
// point: purity rules do not apply. True negative.
func unreachableClock() string {
	return time.Now().String()
}
