package plan

import (
	"math/rand"
	"strings"
	"testing"

	"lecopt/internal/cost"
)

// sigNames are table, index and column names chosen to collide with the
// signature syntax: prefixes of one another, and the delimiters themselves.
var sigNames = []string{"t", "t1", "t10", "t1 ", "(", "t[ix:", "]", ")", " ", "", "sort<", "none", "a.b", ">(", "t1 sort-merge"}

// picker abstracts the randomness behind genSigTree so the seeded oracle
// and the fuzzer share one generator.
type picker interface{ pick(n int) int }

type randPicker struct{ *rand.Rand }

func (r randPicker) pick(n int) int { return r.Intn(n) }

// bytePicker draws from fuzz input; exhausted input picks 0, which
// genSigTree maps to a leaf so generation always terminates.
type bytePicker struct {
	data []byte
	pos  int
}

func (b *bytePicker) pick(n int) int {
	if b.pos >= len(b.data) {
		return 0
	}
	v := int(b.data[b.pos]) % n
	b.pos++
	return v
}

// genSigTree builds a random scan/join/sort tree. Built nodes go into pool
// and are sometimes reused, so a pair of trees from one pool shares
// subtrees by pointer.
func genSigTree(p picker, depth int, pool *[]*Node) *Node {
	if len(*pool) > 0 && p.pick(5) == 4 {
		return (*pool)[p.pick(len(*pool))]
	}
	kind := p.pick(4)
	if depth == 0 {
		kind = 0
	}
	var n *Node
	switch kind {
	case 0, 1:
		n = genScan(p)
	case 2:
		l := genSigTree(p, depth-1, pool)
		r := genSigTree(p, depth-1, pool)
		n = NewJoin(cost.Methods[p.pick(len(cost.Methods))], l, r, 1, Order{})
	default:
		var o Order
		if p.pick(3) > 0 {
			o = Order{Table: sigNames[p.pick(len(sigNames))], Column: sigNames[p.pick(len(sigNames))]}
		}
		n = NewSort(genSigTree(p, depth-1, pool), o)
	}
	*pool = append(*pool, n)
	return n
}

// genScan builds a heap or index scan over colliding names.
func genScan(p picker) *Node {
	if p.pick(3) == 2 {
		return NewScan(sigNames[p.pick(len(sigNames))], AccessIndex, sigNames[p.pick(len(sigNames))], 1, 1)
	}
	return NewScan(sigNames[p.pick(len(sigNames))], AccessHeap, "", 1, 1)
}

// sigMethods are the four join methods plus three out-of-range ones whose
// names ("JoinMethod(10)", "JoinMethod(100)") nearly prefix one another.
var sigMethods = append(append([]cost.JoinMethod(nil), cost.Methods...), 1+cost.BlockNL, 10, 100)

// joinPair builds two joins with random methods that share both children
// (compareSignature's fast path: only the methods can differ), the left
// child only (the DP's other case), the right child only, or neither —
// all of which must fall through the fast path to the walk.
func joinPair(p picker, pool *[]*Node) (a, b *Node) {
	l, r := genSigTree(p, 2, pool), genSigTree(p, 2, pool)
	bl, br := l, r
	switch p.pick(4) {
	case 1:
		br = genSigTree(p, 1, pool)
	case 2:
		bl = genSigTree(p, 1, pool)
	case 3:
		bl, br = genSigTree(p, 1, pool), genSigTree(p, 1, pool)
	}
	a = NewJoin(sigMethods[p.pick(len(sigMethods))], l, r, 1, Order{})
	b = NewJoin(sigMethods[p.pick(len(sigMethods))], bl, br, 1, Order{})
	return a, b
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

func checkCompare(t testing.TB, a, b *Node) {
	t.Helper()
	want := strings.Compare(a.Signature(), b.Signature())
	if got := compareSignature(a, b); got != want {
		t.Fatalf("compareSignature = %d, strings.Compare = %d\n a: %q\n b: %q", got, want, a.Signature(), b.Signature())
	}
}

// TestCompareSignatureOracle pins the comparator against the strings it
// stands in for on 200 000 random pairs, shared subtrees included.
func TestCompareSignatureOracle(t *testing.T) {
	pairs := 200000
	if testing.Short() {
		pairs = 20000
	}
	rng := randPicker{rand.New(rand.NewSource(1))}
	var pool []*Node
	equal := 0
	for i := 0; i < pairs; i++ {
		if i%64 == 0 {
			pool = pool[:0]
		}
		a := genSigTree(rng, 1+rng.pick(5), &pool)
		b := genSigTree(rng, 1+rng.pick(5), &pool)
		if rng.pick(4) == 0 {
			// The DP's cases: two joins sharing both inputs, one, or none.
			a, b = joinPair(rng, &pool)
		}
		checkCompare(t, a, b)
		checkCompare(t, b, a)
		if a.Signature() == b.Signature() {
			equal++
		}
	}
	if equal == 0 || equal == pairs {
		t.Fatalf("degenerate corpus: %d of %d pairs equal", equal, pairs)
	}
}

// TestCompareSignatureOrderLaws checks antisymmetry and transitivity on a
// sample — what sorted insertion and the DP's tie-breaks rely on.
func TestCompareSignatureOrderLaws(t *testing.T) {
	rng := randPicker{rand.New(rand.NewSource(2))}
	var pool []*Node
	nodes := make([]*Node, 60)
	for i := range nodes {
		nodes[i] = genSigTree(rng, 1+rng.pick(4), &pool)
	}
	for _, a := range nodes {
		if compareSignature(a, a.Clone()) != 0 {
			t.Fatalf("a clone compares unequal: %q", a.Signature())
		}
		for _, b := range nodes {
			ab := compareSignature(a, b)
			if ba := compareSignature(b, a); sign(ab) != -sign(ba) {
				t.Fatalf("not antisymmetric: %d vs %d for %q, %q", ab, ba, a.Signature(), b.Signature())
			}
			for _, c := range nodes {
				if ab <= 0 && compareSignature(b, c) <= 0 && compareSignature(a, c) > 0 {
					t.Fatalf("not transitive: %q ≤ %q ≤ %q", a.Signature(), b.Signature(), c.Signature())
				}
			}
		}
	}
}

// leftDeep builds a left-deep plan over n tables under a root sort — at
// n = 24 the deepest tree the optimizer can emit.
func leftDeep(n int, last cost.JoinMethod, lastTable string) *Node {
	p := NewScan("t0", AccessHeap, "", 1, 1)
	for i := 1; i < n; i++ {
		m, name := cost.Methods[i%len(cost.Methods)], "t"+string(rune('a'+i))
		if i == n-1 {
			m, name = last, lastTable
		}
		p = NewJoin(m, p, NewScan(name, AccessIndex, "ix", 1, 1), 1, Order{})
	}
	return NewSort(p, Order{Table: "t0", Column: "k"})
}

func TestCompareSignatureDeepestPlan(t *testing.T) {
	a := leftDeep(24, cost.SortMerge, "z")
	for _, b := range []*Node{
		leftDeep(24, cost.SortMerge, "z"),
		leftDeep(24, cost.GraceHash, "z"),
		leftDeep(24, cost.SortMerge, "z1"),
		leftDeep(23, cost.SortMerge, "z"),
		a.Child,
	} {
		checkCompare(t, a, b)
		checkCompare(t, b, a)
	}
	twin := leftDeep(24, cost.SortMerge, "z")
	allocs := testing.AllocsPerRun(100, func() {
		if compareSignature(a, twin) != 0 {
			t.Fatal("equal 24-table plans compare unequal")
		}
	})
	if allocs != 0 {
		t.Fatalf("24-table comparison allocates %.1f/op, want 0", allocs)
	}
	// Past the comparator's stack it falls back to the strings.
	checkCompare(t, leftDeep(40, cost.PageNL, "z"), leftDeep(40, cost.PageNL, "y"))
	checkCompare(t, leftDeep(40, cost.PageNL, "z"), a)
}

// TestCompareSignatureZeroAllocs gates the trap ISSUE 20 records: a walk
// that holds a slice into its own stack array escapes to the heap.
func TestCompareSignatureZeroAllocs(t *testing.T) {
	rng := randPicker{rand.New(rand.NewSource(3))}
	var pool []*Node
	var pairs [][2]*Node
	for i := 0; i < 200; i++ {
		pairs = append(pairs, [2]*Node{genSigTree(rng, 5, &pool), genSigTree(rng, 5, &pool)})
	}
	sink := 0
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range pairs {
			sink += compareSignature(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Fatalf("compareSignature allocates %.2f per 200 comparisons, want 0 (sink %d)", allocs, sink)
	}
}

// FuzzCompareSignature drives the oracle from fuzz input: the bytes pick
// the shapes and names of two trees that share a node pool.
func FuzzCompareSignature(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 8+rng.Intn(56))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &bytePicker{data: data}
		var pool []*Node
		a := genSigTree(p, 6, &pool)
		b := genSigTree(p, 6, &pool)
		if p.pick(3) == 2 {
			a, b = joinPair(p, &pool)
		}
		checkCompare(t, a, b)
		checkCompare(t, b, a)
	})
}

// genChain builds a left-deep plan of joins joins over random scans, on
// top of below where that is non-nil, else of one more scan.
func genChain(p picker, joins int, below *Node) *Node {
	n := below
	if n == nil {
		n = genScan(p)
	}
	for range joins {
		n = NewJoin(sigMethods[p.pick(len(sigMethods))], n, genScan(p), 1, Order{})
	}
	return n
}

// leftDeepParts lists a's and b's joins top down in lock-step, down to a
// left input both share or to where either has no join left, as the
// optimizer hands its entries to CompareLeftDeep.
func leftDeepParts(a, b *Node) (la, lb *Node, ma, mb []cost.JoinMethod, ra, rb []*Node) {
	for a.Kind == KindJoin && b.Kind == KindJoin {
		ma, ra = append(ma, a.Method), append(ra, a.Right)
		mb, rb = append(mb, b.Method), append(rb, b.Right)
		if a.Left == b.Left {
			return nil, nil, ma, mb, ra, rb
		}
		a, b = a.Left, b.Left
	}
	return a, b, ma, mb, ra, rb
}

// TestCompareLeftDeepOracle pins CompareLeftDeep against the strings on
// random pairs of left-deep plans over colliding names, some sharing the
// plan below their joins, mostly of as many joins under one root sort or
// none: given by parts, what it tells must be the strings' order, and most
// pairs must be told; given whole, every pair is.
func TestCompareLeftDeepOracle(t *testing.T) {
	pairs := 100000
	if testing.Short() {
		pairs = 10000
	}
	rng := randPicker{rand.New(rand.NewSource(5))}
	orders := []Order{{}, {Table: "t", Column: "a.b"}, {Table: "t", Column: "a"}}
	sortOf := func() *Order {
		if i := rng.pick(len(orders) + 1); i < len(orders) {
			return &orders[i]
		}
		return nil
	}
	told := 0
	for range pairs {
		var below *Node
		if rng.pick(2) == 0 {
			below = genChain(rng, rng.pick(3), nil)
		}
		// Mostly as in one DP cell: as many joins, and one root sort or none.
		ja, jb := rng.pick(4), rng.pick(4)
		sa, sb := sortOf(), sortOf()
		if rng.pick(4) > 0 {
			jb, sb = ja, sa
		}
		a, b := genChain(rng, ja, below), genChain(rng, jb, below)
		wa, wb := a, b
		if sa != nil {
			wa = NewSort(a, *sa)
		}
		if sb != nil {
			wb = NewSort(b, *sb)
		}
		want := strings.Compare(wa.Signature(), wb.Signature())
		la, lb, ma, mb, ra, rb := leftDeepParts(a, b)
		if got, ok := CompareLeftDeep(sa, sb, la, lb, ma, mb, ra, rb); ok {
			told++
			if got != want {
				t.Fatalf("by parts: %d, strings.Compare %d\n a: %q\n b: %q", got, want, wa.Signature(), wb.Signature())
			}
		}
		if got, ok := CompareLeftDeep(nil, nil, wa, wb, nil, nil, nil, nil); !ok || got != want {
			t.Fatalf("whole: %d (%v), strings.Compare %d\n a: %q\n b: %q", got, ok, want, wa.Signature(), wb.Signature())
		}
	}
	if told < pairs/2 {
		t.Fatalf("only %d of %d pairs told by parts", told, pairs)
	}
}

func BenchmarkCompareSignature(b *testing.B) {
	left := leftDeep(8, cost.SortMerge, "z").Child
	x := NewJoin(cost.PageNL, left, NewScan("u", AccessHeap, "", 1, 1), 1, Order{})
	y := NewJoin(cost.PageNL, left, NewScan("v", AccessHeap, "", 1, 1), 1, Order{})
	b.Run("structural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compareSignature(x, y)
		}
	})
	b.Run("strings", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			strings.Compare(x.Signature(), y.Signature())
		}
	})
}
