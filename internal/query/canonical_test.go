package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lecopt/internal/catalog"
)

// refFilter is Filter.String as fmt renders it: the reference the
// appending rendering must reproduce byte for byte.
func refFilter(f Filter) string {
	return fmt.Sprintf("%s %s %s", f.Col, f.Op, strconv.FormatFloat(f.Value, 'f', -1, 64))
}

// refCanonical is the block signature as sorting and joining one string
// per term renders it.
func refCanonical(b *Block) string {
	tables := append([]string(nil), b.Tables...)
	sort.Strings(tables)
	joins := make([]string, len(b.Joins))
	for i, j := range b.Joins {
		l, r := j.Left.String(), j.Right.String()
		if l > r {
			l, r = r, l
		}
		joins[i] = l + "=" + r
	}
	sort.Strings(joins)
	filters := make([]string, len(b.Filters))
	for i, f := range b.Filters {
		filters[i] = refFilter(f)
	}
	sort.Strings(filters)
	sig := strings.Join(tables, ",") + "|" + strings.Join(joins, "&") + "|" + strings.Join(filters, "&")
	if b.OrderBy != nil {
		sig += "|order=" + b.OrderBy.String()
	}
	return sig
}

// canonicalFloats are the filter values drawn beside raw bit patterns.
var canonicalFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324,
	1e21, 1e-7, 1 << 53, 1<<53 + 2, 0.1, 500, -3.25, math.MaxFloat64,
}

// FuzzCanonicalRendering: Join.String, Filter.String and Canonical render
// what their one-string-per-term references render, for any names (the
// same few drawn often, so terms tie and share prefixes), operators
// (invalid ones included), values and term counts.
func FuzzCanonicalRendering(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 2, 0, 1, 1, 2, 2, 3, 0, 4, 1, 0, 1, 1, 2, 0, 9, 1})
	f.Add([]byte{30, 5, 5, 5, 5, 5, 5, 5, 5, 7, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return v
		}
		names := []string{"a", "b", "ab", "a.b", "", "é", "a&b", "x|y", "\xff", "b=a"}
		name := func() string { return names[int(next())%len(names)] }
		col := func() ColRef { return ColRef{name(), name()} }
		value := func() float64 {
			k := int(next())
			if k < len(canonicalFloats) {
				return canonicalFloats[k]
			}
			var raw [8]byte
			for i := range raw {
				raw[i] = next()
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		}
		b := &Block{}
		for n := next() % 40; n > 0; n-- {
			b.Tables = append(b.Tables, name())
		}
		for n := next() % 40; n > 0; n-- {
			j := Join{Left: col(), Right: col()}
			if got, want := j.String(), j.Left.String()+" = "+j.Right.String(); got != want {
				t.Fatalf("Join.String = %q, want %q", got, want)
			}
			b.Joins = append(b.Joins, j)
		}
		for n := next() % 40; n > 0; n-- {
			f := Filter{Col: col(), Op: catalog.CmpOp(next() % 7), Value: value()}
			if got, want := f.String(), refFilter(f); got != want {
				t.Fatalf("Filter.String = %q, want %q", got, want)
			}
			b.Filters = append(b.Filters, f)
		}
		if next()%2 == 1 {
			ob := col()
			b.OrderBy = &ob
		}
		if got, want := b.Canonical(), refCanonical(b); got != want {
			t.Fatalf("Canonical\n got %q\nwant %q", got, want)
		}
	})
}
