package catalog

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"
)

// refStats is the fingerprint preimage as fmt renders it: the reference
// the strconv rendering must reproduce byte for byte.
func refStats(c *Catalog, h io.Writer, base, margin float64) {
	for _, name := range c.TableNames() { // sorted
		t := c.tables[name]
		fmt.Fprintf(h, "table %s pages=%v rows=%v\n", t.Name, t.Pages, t.Rows)
		cols := append([]Column(nil), t.columns...)
		sort.Slice(cols, func(i, j int) bool { return cols[i].Name < cols[j].Name })
		for _, col := range cols {
			if base > 1 {
				fmt.Fprintf(h, "col %s type=%d dband=%d min=%v max=%v\n",
					col.Name, col.Type, refBand(col.Distinct, t.Rows, base, margin), col.Min, col.Max)
			} else {
				fmt.Fprintf(h, "col %s type=%d distinct=%v min=%v max=%v\n",
					col.Name, col.Type, col.Distinct, col.Min, col.Max)
			}
		}
	}
	ixNames := make([]string, 0, len(c.indexes))
	for name := range c.indexes {
		ixNames = append(ixNames, name)
	}
	sort.Strings(ixNames)
	for _, name := range ixNames {
		ix := c.indexes[name]
		fmt.Fprintf(h, "index %s on=%s.%s clustered=%v height=%v\n",
			ix.Name, ix.Table, ix.Column, ix.Clustered, ix.Height)
	}
}

// refBand is the distinct band the reference preimage renders, clamped
// to ±2³⁰ (NaN to −2³⁰) before it becomes an int.
func refBand(distinct, rows, base, margin float64) int {
	eff := distinct
	if rows > 0 && eff > rows {
		eff = rows
	}
	if eff < 1 {
		eff = 1
	}
	band := math.Floor(math.Log(eff)/math.Log(base) + margin)
	if math.IsNaN(band) {
		return -1 << 30
	}
	return int(math.Max(-1<<30, math.Min(band, 1<<30)))
}

// refSchema is the schema digest's preimage as fmt renders it.
func refSchema(c *Catalog, w io.Writer) {
	for _, name := range c.TableNames() { // sorted
		fmt.Fprintf(w, "table %q\n", name)
		cols := append([]Column(nil), c.tables[name].columns...)
		sort.Slice(cols, func(i, j int) bool { return cols[i].Name < cols[j].Name })
		for _, col := range cols {
			fmt.Fprintf(w, "col %q type=%d\n", col.Name, col.Type)
		}
	}
}

// digestFloats are the values a fuzzed statistic is drawn from, beside
// raw bit patterns: the ones whose rendering has a special form or sits
// at a switch of %v's notation.
var digestFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, 2.2250738585072014e-308 / 3, // subnormals
	1e21, 1e20, 1e-7, 1e-4, 1 << 53, 1<<53 + 2, 9007199254740993,
	1, 1.5, 2, 100, 600, 1e6, -1, 0.1, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// digestDraw reads a fuzz input as a stream of choices; an exhausted
// stream reads zeros.
type digestDraw []byte

func (d *digestDraw) byte() byte {
	if len(*d) == 0 {
		return 0
	}
	v := (*d)[0]
	*d = (*d)[1:]
	return v
}

// float draws a palette value or, past the palette, eight raw bytes.
func (d *digestDraw) float() float64 {
	k := int(d.byte())
	if k < len(digestFloats) {
		return digestFloats[k]
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = d.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

// name draws up to five raw bytes: quotes, newlines, spaces and invalid
// UTF-8 included.
func (d *digestDraw) name() string {
	b := make([]byte, d.byte()%6)
	for i := range b {
		b[i] = d.byte()
	}
	return string(b)
}

// catalog builds a catalog straight from the draw, past NewTable's
// validation, so the statistics may be anything a float holds.
func (d *digestDraw) catalog() *Catalog {
	c := New()
	for nt := d.byte() % 5; nt > 0; nt-- {
		t := &Table{Name: d.name(), Pages: d.float(), Rows: d.float(), byName: map[string]int{}}
		for nc := d.byte() % 5; nc > 0; nc-- {
			col := Column{Name: d.name(), Type: ColumnType(d.byte() % 4), Distinct: d.float(), Min: d.float(), Max: d.float()}
			if _, dup := t.byName[col.Name]; !dup {
				t.byName[col.Name] = len(t.columns)
				t.columns = append(t.columns, col)
			}
		}
		if _, dup := c.tables[t.Name]; !dup {
			c.tables[t.Name] = t
		}
	}
	for ni := d.byte() % 4; ni > 0; ni-- {
		ix := &Index{Name: d.name(), Table: d.name(), Column: d.name(), Clustered: d.byte()%2 == 1, Height: d.float()}
		if _, dup := c.indexes[ix.Name]; !dup {
			c.indexes[ix.Name] = ix
		}
	}
	return c
}

// FuzzDigestRendering: the strconv rendering of every digest preimage is
// the fmt rendering byte for byte, whatever the names, statistics, base
// and margin, and every memoized digest hashes that preimage.
func FuzzDigestRendering(f *testing.F) {
	f.Add([]byte{}, 2.0, 0.0)
	f.Add([]byte{2, 1, 'a', 15, 22, 2, 1, 'k', 0, 19, 4, 20, 1, 'v', 2, 0, 11, 12, 1, 1, 'b', 1, 2, 1, 1, 'k', 1, 8, 9, 10,
		1, 2, 'i', 'x', 1, 'a', 1, 'k', 1, 3}, 2.0, 0.25)
	f.Add([]byte{1, 3, 'a', '"', '\n', 0, 1, 1, 3, 'k', ' ', 0xff, 3, 2, 3, 4}, 1.0, -0.25)
	f.Add([]byte{3, 1, 'c', 5, 6, 1, 0, 0, 7, 12, 13, 1, 'a', 13, 21, 1, 0, 0, 5, 6, 7, 1, 'b', 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0},
		1.0000001, 1e300)
	f.Fuzz(func(t *testing.T, data []byte, base, margin float64) {
		d := digestDraw(data)
		c := d.catalog()

		var want bytes.Buffer
		refSchema(c, &want)
		if got := c.appendSchema(nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("schema preimage\n got %q\nwant %q", got, want.Bytes())
		}
		wantSum := sha256.Sum256(want.Bytes())
		if got := c.AppendSchemaDigest(nil); !bytes.Equal(got, wantSum[:]) {
			t.Fatal("schema digest does not hash its preimage")
		}

		for _, in := range [][2]float64{{0, 0}, {base, margin}, {base, 0}} {
			// digest's normalization: base <= 1 (or NaN) is exact, and a
			// non-finite margin is margin 0.
			b, m := in[0], in[1]
			if !(b > 1) {
				b, m = 0, 0
			} else if math.IsNaN(m) || math.IsInf(m, 0) {
				m = 0
			}
			want.Reset()
			refStats(c, &want, b, m)
			if got := c.appendStats(nil, b, m); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("statistics preimage (base %v, margin %v)\n got %q\nwant %q", b, m, got, want.Bytes())
			}
			wantSum := sha256.Sum256(want.Bytes())
			if got := c.AppendFingerprint(nil, in[0], in[1]); !bytes.Equal(got, wantSum[:]) {
				t.Fatalf("digest (base %v, margin %v) does not hash its preimage", in[0], in[1])
			}
		}
	})
}

// digestBenchCatalog is 5 tables of 4 columns each, and 2 indexes.
func digestBenchCatalog(b *testing.B) *Catalog {
	c := New()
	for i := range 5 {
		name := fmt.Sprintf("t%d", i)
		cols := make([]Column, 4)
		for j := range cols {
			cols[j] = Column{Name: fmt.Sprintf("c%d", 3-j), Distinct: float64(100 + 37*i + 11*j), Min: float64(-j), Max: 1e6 + float64(i)}
		}
		if err := c.AddTable(MustTable(name, 100+float64(i)*17.5, 10_000+float64(i)*1_250, cols...)); err != nil {
			b.Fatal(err)
		}
	}
	for _, ix := range []Index{{Name: "ix1", Table: "t1", Column: "c0", Height: 2}, {Name: "ix0", Table: "t0", Column: "c1", Clustered: true, Height: 3}} {
		if err := c.AddIndex(ix); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkCatalogDigest times one fresh digest of a catalog version:
// the first exact one, the first banded one, and the −margin probe of a
// version whose exact, banded and +margin digests are already memoized,
// which also copies those three into the snapshot it publishes.
func BenchmarkCatalogDigest(b *testing.B) {
	c := digestBenchCatalog(b)
	b.Run("first-exact", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			c.InvalidateFingerprint()
			c.Fingerprint()
		}
	})
	b.Run("first-banded", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			c.InvalidateFingerprint()
			c.BandedFingerprint(2)
		}
	})
	b.Run("further-margin", func(b *testing.B) {
		c.InvalidateFingerprint()
		c.Fingerprint()
		c.BandedFingerprint(2)
		c.AppendFingerprint(nil, 2, 0.25)
		memo := c.fpMemo.Load()
		buf := make([]byte, 0, sha256.Size)
		b.ReportAllocs()
		for b.Loop() {
			// Snapshots are never written once published, so republishing
			// this one drops the previous iteration's −margin entry.
			c.fpMemo.Store(memo)
			buf = c.AppendFingerprint(buf[:0], 2, -0.25)
		}
	})
}
