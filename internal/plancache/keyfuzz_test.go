package plancache

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/query"
	"lecopt/internal/workload"
)

// keyInputs is one AppendKey call's arguments.
type keyInputs struct {
	cat          *catalog.Catalog
	blk          *query.Block
	env          envsim.Env
	sel, size    map[string]dist.Dist
	opts         optimizer.Options
	topC         int
	alg          uint8
	band, margin float64
}

func (in keyInputs) key(dst []byte) []byte {
	return AppendKey(dst, in.cat, in.blk, in.env, in.sel, in.size, in.opts, in.topC, in.alg, in.band, in.margin)
}

// fuzzBytes hands out fuzz input, zeros once it runs out.
type fuzzBytes []byte

func (r *fuzzBytes) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// float is the next eight bytes' IEEE-754 value: any bit pattern, NaN
// payloads and negative zero included.
func (r *fuzzBytes) float() float64 {
	var b [8]byte
	for i := range b {
		b[i] = r.next()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// str is a short string of raw bytes — length-prefix and count bytes
// included, so map keys can mimic the framing around them.
func (r *fuzzBytes) str() string {
	b := make([]byte, r.next()%6)
	for i := range b {
		b[i] = r.next()
	}
	return string(b)
}

// law is a valid distribution of one to three buckets; inputs dist.New
// refuses become a point law.
func (r *fuzzBytes) law() dist.Dist {
	n := 1 + int(r.next()%3)
	vals, weights := make([]float64, n), make([]float64, n)
	for i := range vals {
		vals[i], weights[i] = float64(r.next()), float64(1+r.next()%3)
	}
	if d, err := dist.New(vals, weights); err == nil {
		return d
	}
	return dist.Point(vals[0])
}

func (r *fuzzBytes) lawMap() map[string]dist.Dist {
	n := int(r.next() % 3)
	if n == 0 {
		return nil
	}
	m := make(map[string]dist.Dist, n)
	for range n {
		m[r.str()] = r.law()
	}
	return m
}

// inputs decodes one AppendKey call over the given catalogs and blocks.
func (r *fuzzBytes) inputs(cats []*catalog.Catalog, blks []*query.Block) keyInputs {
	in := keyInputs{
		cat:    cats[int(r.next())%len(cats)],
		blk:    blks[int(r.next())%len(blks)],
		alg:    r.next() % 8,
		topC:   int(r.next() % 4),
		band:   [...]float64{0, 1, 2, 1.5}[r.next()%4],
		margin: [...]float64{0, -0.25, 0.25, 0.5}[r.next()%4],
	}
	in.env.Mem = r.law()
	if r.next()%2 == 1 {
		levels := []float64{float64(r.next()), float64(r.next())}
		if chain, err := dist.Sticky(levels, float64(r.next()%5)/4); err == nil {
			in.env.Chain = chain
		}
	}
	in.sel, in.size = r.lawMap(), r.lawMap()
	if n := int(r.next() % 4); n > 0 {
		in.opts.SizeHints = make(map[string]float64, n)
		for range n {
			in.opts.SizeHints[r.str()] = r.float()
		}
	}
	for range r.next() % 4 {
		in.opts.Methods = append(in.opts.Methods, cost.JoinMethod(r.next()%5))
	}
	in.opts.SizeBuckets = [...]int{0, 27, 9}[r.next()%3]
	in.opts.CostModel = cost.Model(r.next() % 2)
	return in
}

// sameFloat is float equality as keys see it: bit for bit, every NaN alike.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameLaw(a, b dist.Dist) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !sameFloat(a.Value(i), b.Value(i)) || !sameFloat(a.Prob(i), b.Prob(i)) {
			return false
		}
	}
	return true
}

func sameChain(a, b *dist.Chain) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !sameFloat(a.State(i), b.State(i)) {
			return false
		}
		for j := 0; j < a.Len(); j++ {
			if !sameFloat(a.Prob(i, j), b.Prob(i, j)) {
				return false
			}
		}
	}
	return true
}

// exactBand is the band base a key carries: every base <= 1 is exact.
func exactBand(band float64) float64 {
	if band > 1 {
		return band
	}
	return 0
}

// sameInputs is the oracle: the two calls' inputs are equal once
// normalized as a key normalizes them — default options spelled out, every
// exact band alike, maps as sets of entries, floats by their bits. The
// catalog counts as its (band, margin) digest, the one catalog input a key
// holds.
func sameInputs(a, b keyInputs) bool {
	na, nb := a.opts.Normalized(), b.opts.Normalized()
	ba, bb := exactBand(a.band), exactBand(b.band)
	return a.alg == b.alg && a.topC == b.topC && ba == bb &&
		bytes.Equal(a.cat.AppendFingerprint(nil, ba, a.margin), b.cat.AppendFingerprint(nil, bb, b.margin)) &&
		a.blk.Canonical() == b.blk.Canonical() &&
		sameLaw(a.env.Mem, b.env.Mem) && sameChain(a.env.Chain, b.env.Chain) &&
		maps.EqualFunc(a.sel, b.sel, sameLaw) && maps.EqualFunc(a.size, b.size, sameLaw) &&
		maps.EqualFunc(na.SizeHints, nb.SizeHints, sameFloat) &&
		slices.Equal(na.Methods, nb.Methods) && na.SizeBuckets == nb.SizeBuckets && na.CostModel == nb.CostModel
}

// FuzzCacheKey: a plan-cache key is the encoding of its inputs, so the
// cache serves a plan for exactly the inputs it was computed for only if
// two calls key equal when, and only when, their normalized inputs are
// equal. Each fuzz input decodes to two AppendKey calls — raw-byte map
// keys that can spell length prefixes and counts, laws, chains, hints with
// any float bits, Algorithm D's law maps, bands and margins — over two
// generated catalogs and queries. It also checks that a key is
// deterministic (map order), appends to dst, and is no proper prefix of a
// different key.
func FuzzCacheKey(f *testing.F) {
	var cats []*catalog.Catalog
	var blks []*query.Block
	for seed := int64(1); seed <= 2; seed++ {
		sc, err := workload.Generate(workload.DefaultSpec(3, workload.Chain), rand.New(rand.NewSource(seed)))
		if err != nil {
			f.Fatal(err)
		}
		cats, blks = append(cats, sc.Cat), append(blks, sc.Block)
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 4, 1, 2, 1, 1, 200, 2}, []byte{0, 0, 4, 1, 2, 1, 1, 200, 2})
	f.Add([]byte{1, 1, 2, 3, 2, 3, 2, 10, 20, 1, 2, 1, 7, 9, 3, 1, 2, 'a', 0, 1, 5, 0, 2, 1, 'b', 'c'},
		[]byte{1, 1, 2, 3, 2, 2, 2, 10, 20, 1, 2, 1, 7, 9, 3, 1, 2, 'a', 0, 1, 5, 0, 2, 1, 'b', 'c'})
	// Hints "a"/"bc" and "ab"/"c" whose values shift a byte across the
	// key boundary.
	hints := func(k1, k2 string, v1 float64) []byte {
		// catalog, block, AlgC, top-c, band, margin; a one-bucket law;
		// no chain, no law maps; two hints.
		b := []byte{0, 0, 4, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, byte(len(k1))}
		b = append(b, k1...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v1))
		b = append(b, byte(len(k2)))
		b = append(b, k2...)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(7))
	}
	f.Add(hints("a", "bc", math.Float64frombits('b')), hints("ab", "c", math.Float64frombits('b'<<56)))
	f.Add(hints("a", "b", math.NaN()), hints("a", "b", math.Float64frombits(0x7ff8000000000001)))
	f.Fuzz(func(t *testing.T, x, y []byte) {
		rx, ry := fuzzBytes(x), fuzzBytes(y)
		a, b := rx.inputs(cats, blks), ry.inputs(cats, blks)
		ka, kb := a.key(nil), b.key(nil)
		if again := a.key([]byte("dst")); string(again) != "dst"+string(ka) {
			t.Fatalf("a second key for the same inputs differs or lost dst:\n%x\n%x", ka, again)
		}
		same := sameInputs(a, b)
		if keysEqual := bytes.Equal(ka, kb); keysEqual != same {
			t.Fatalf("keys equal %v, normalized inputs equal %v:\n%+v\n%+v\n%x\n%x", keysEqual, same, a, b, ka, kb)
		}
		if !same && (bytes.HasPrefix(ka, kb) || bytes.HasPrefix(kb, ka)) {
			t.Fatalf("one key is a proper prefix of the other:\n%x\n%x", ka, kb)
		}
	})
}
