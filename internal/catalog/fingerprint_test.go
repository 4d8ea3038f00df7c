package catalog

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"
)

func fingerprintCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	if err := c.AddTable(MustTable("t", 100, 10_000, col("k", 600, 0, 1e6))); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBandedFingerprintNonFiniteMargin: NaN never equals itself, so a NaN
// margin used to miss its own memo entry — every call recomputed the digest
// and left another entry behind. A non-finite margin is margin 0.
func TestBandedFingerprintNonFiniteMargin(t *testing.T) {
	c := fingerprintCatalog(t)
	want := c.BandedFingerprint(2)
	for _, margin := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 100; i++ {
			if got := hex.EncodeToString(c.AppendFingerprint(nil, 2, margin)); got != want {
				t.Fatalf("margin %v: digest %s, want the margin-0 digest %s", margin, got, want)
			}
		}
	}
	if n := len(*c.fpMemo.Load()); n != 1 {
		t.Fatalf("300 non-finite-margin calls left %d memo entries, want 1", n)
	}
}

// TestAppendFingerprintIsTheRawDigest ties the binary form plan-cache keys
// embed to the hex form every other caller sees.
func TestAppendFingerprintIsTheRawDigest(t *testing.T) {
	c := fingerprintCatalog(t)
	for _, tc := range []struct {
		base, margin float64
		want         string
	}{
		{0, 0, c.Fingerprint()},
		{1, 0.25, c.Fingerprint()}, // base <= 1 is exact, margin ignored
		{2, 0, c.BandedFingerprint(2)},
		{2, -0.25, c.digest(2, -0.25).hex},
	} {
		raw := c.AppendFingerprint([]byte("x"), tc.base, tc.margin)
		if got := hex.EncodeToString(raw[1:]); raw[0] != 'x' || got != tc.want {
			t.Fatalf("AppendFingerprint(%v, %v) = %q, want x + %s", tc.base, tc.margin, raw, tc.want)
		}
	}
}

// TestSchemaDigest: the schema digest covers table names, column names and
// column types — what name resolution reads — and nothing else: statistics,
// indexes and registration order leave it alone, so a statement
// validated against one catalog is valid for every catalog that shares it.
func TestSchemaDigest(t *testing.T) {
	build := func(tabs ...*Table) *Catalog {
		c := New()
		for _, tab := range tabs {
			if err := c.AddTable(tab); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	typed := func(name string, typ ColumnType) Column {
		return Column{Name: name, Type: typ, Distinct: 5, Min: 0, Max: 5}
	}
	base := build(MustTable("a", 100, 10_000, col("k", 600, 0, 1e6), col("v", 50, 0, 99)), MustTable("b", 10, 100, col("k", 5, 0, 5)))
	want := base.AppendSchemaDigest(nil)
	if len(want) != 32 {
		t.Fatalf("schema digest is %d bytes, want 32", len(want))
	}

	drifted, err := base.ScaleDistinct(4)
	if err != nil {
		t.Fatal(err)
	}
	indexed := build(MustTable("a", 100, 10_000, col("k", 600, 0, 1e6), col("v", 50, 0, 99)), MustTable("b", 10, 100, col("k", 5, 0, 5)))
	if err := indexed.AddIndex(Index{Name: "ix", Table: "a", Column: "k", Height: 2}); err != nil {
		t.Fatal(err)
	}
	same := map[string]*Catalog{
		"ScaleDistinct copy": drifted,
		"index added":        indexed,
		"other statistics, columns and tables in another order": build(
			MustTable("b", 77, 7_000, col("k", 9, -3, 3)), MustTable("a", 1, 10, col("v", 2, 0, 1), col("k", 3, 0, 2))),
	}
	for label, c := range same {
		if got := c.AppendSchemaDigest(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: schema digest changed", label)
		}
		if c.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s: control — the statistics fingerprint should differ", label)
		}
	}

	different := map[string]*Catalog{
		"column renamed": build(MustTable("a", 100, 10_000, col("k", 600, 0, 1e6), col("w", 50, 0, 99)), MustTable("b", 10, 100, col("k", 5, 0, 5))),
		"column dropped": build(MustTable("a", 100, 10_000, col("k", 600, 0, 1e6)), MustTable("b", 10, 100, col("k", 5, 0, 5))),
		"column retyped": build(MustTable("a", 100, 10_000, col("k", 600, 0, 1e6), typed("v", TypeString)), MustTable("b", 10, 100, col("k", 5, 0, 5))),
		"table renamed":  build(MustTable("a", 100, 10_000, col("k", 600, 0, 1e6), col("v", 50, 0, 99)), MustTable("c", 10, 100, col("k", 5, 0, 5))),
		"table dropped":  build(MustTable("a", 100, 10_000, col("k", 600, 0, 1e6), col("v", 50, 0, 99))),
		"column moved to the other table": build(
			MustTable("a", 100, 10_000, col("k", 600, 0, 1e6)), MustTable("b", 10, 100, col("k", 5, 0, 5), col("v", 50, 0, 99))),
		// One column whose name spells out base's two-column rendering.
		"name that renders like two columns unquoted": build(
			MustTable("a", 100, 10_000, col("k type=0\ncol v", 600, 0, 1e6)), MustTable("b", 10, 100, col("k", 5, 0, 5))),
	}
	seen := map[string]string{string(want): "base"}
	for label, c := range different {
		got := string(c.AppendSchemaDigest(nil))
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: schema digest equals that of %s", label, prev)
		}
		seen[got] = label
	}

	// AddTable changes the schema and must drop the memoized digest.
	if err := base.AddTable(MustTable("c", 10, 100, col("k", 5, 0, 5))); err != nil {
		t.Fatal(err)
	}
	if got := base.AppendSchemaDigest([]byte("x")); got[0] != 'x' || bytes.Equal(got[1:], want) {
		t.Error("AddTable left the old schema digest in place")
	}
}

// TestFingerprintMemoConcurrent hammers the memo from readers that race
// each other and InvalidateFingerprint while a writer keeps registering
// tables. Catalog mutation is the caller's to serialize against reads (the
// tables map is unsynchronized), so AddTable takes the test's write lock;
// the memo itself gets no such help. Every digest served must equal a
// fresh computation over the tables registered at that moment.
func TestFingerprintMemoConcurrent(t *testing.T) {
	c := fingerprintCatalog(t)
	var tables sync.RWMutex
	var wg sync.WaitGroup
	const readers, rounds, added = 8, 300, 20
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			margins := []float64{0, -0.25, 0.25}
			for i := 0; i < rounds; i++ {
				margin := margins[(g+i)%len(margins)]
				tables.RLock()
				got := c.digest(2, margin).hex
				want := c.computeDigest(2, margin).hex
				exact, wantExact := c.Fingerprint(), c.computeDigest(0, 0).hex
				schema, wantSchema := c.AppendSchemaDigest(nil), c.computeDigest(schemaBase, 0).sum
				tables.RUnlock()
				if got != want || exact != wantExact || !bytes.Equal(schema, wantSchema[:]) {
					t.Errorf("reader %d round %d: memo served a digest that a fresh computation does not reproduce", g, i)
					return
				}
				if i%7 == g%7 {
					c.InvalidateFingerprint()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < added; i++ {
			tab := MustTable(fmt.Sprintf("u%d", i), 10, 100, col("k", 5, 0, 5))
			tables.Lock()
			err := c.AddTable(tab)
			tables.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestDistinctBandClamped pins the band of the extreme cases: a band
// past ±2³⁰ — a base just above 1, a huge margin — and a NaN band clamp
// before they become an int, where Go leaves an out-of-range conversion
// to the target (amd64, arm64 and 386 each give a different int).
func TestDistinctBandClamped(t *testing.T) {
	const lim = 1 << 30
	for _, tc := range []struct {
		distinct, rows, base, margin float64
		want                         int
	}{
		{1000, 1e6, 2, 0, 9},                // an ordinary band is unchanged
		{1000, 1e6, 2, -0.25, 9},            // a probe margin still floors
		{1e6, 1e9, 1.0000001, 0, 138155112}, // fine bands stay under the clamp
		{1e6, 1e9, 1.0000001, 1e300, lim},   // the margin overflows int
		{1e6, 1e9, 1.0000001, -1e300, -lim}, // and underflows it
		{1e6, 1e9, 1 + 0x1p-52, 0, lim},     // the base alone overflows
		{math.NaN(), 1e9, 2, 0, -lim},       // NaN has no band
		{1e6, 1e9, 2, math.MaxFloat64, lim}, // the largest finite margin
		{1, 1e9, 1.0000001, -math.MaxFloat64, -lim},
	} {
		if got := distinctBand(tc.distinct, tc.rows, tc.base, tc.margin); got != tc.want {
			t.Errorf("distinctBand(%v, %v, %v, %v) = %d, want %d", tc.distinct, tc.rows, tc.base, tc.margin, got, tc.want)
		}
		if got := refBand(tc.distinct, tc.rows, tc.base, tc.margin); got != tc.want {
			t.Errorf("refBand(%v, %v, %v, %v) = %d, want %d", tc.distinct, tc.rows, tc.base, tc.margin, got, tc.want)
		}
	}
}
