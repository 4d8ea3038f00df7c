package engine

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/query"
	"lecopt/internal/storage"
)

// The engine's contract under optimisation is "faster, never different":
// every I/O counter and every output relation, tuple for tuple in order,
// stays what it was. This file holds the two oracles that pin it.
//
//   - Row content: the output multiset of every join and every executed
//     plan equals an in-test reference nested-loop join (order-insensitive
//     hash — a sum of per-row hashes — so it is cheap enough for tier-1).
//   - Ordered digest: per case, one SHA-256 over the I/O side (Reads,
//     Writes, Hits, grace shape, phase I/O, observed sizes, output page
//     layout) and one over every output tuple in order, compared with
//     testdata/engine_digest.golden. The golden was recorded before the
//     engine's hot path was rewritten; `-update-digest` re-records it and is
//     only legitimate for a change that means to alter what the engine reads
//     or emits.

var updateDigest = flag.Bool("update-digest", false, "re-record testdata/engine_digest.golden")

const digestGolden = "engine_digest.golden"

// digest is the ordered hash: every value is fed as 8 little-endian bytes.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// caseDigest is one golden case: what the engine read and wrote (io) and
// what it emitted, in order (rows).
type caseDigest struct{ io, rows *digest }

func newCaseDigest() caseDigest { return caseDigest{io: newDigest(), rows: newDigest()} }

// rel feeds a relation's page layout to io and every tuple, in stored
// order, to rows.
func (c caseDigest) rel(r *storage.Relation) {
	c.io.ints(int64(r.NumPages()))
	for p := 0; p < r.NumPages(); p++ {
		page, _ := r.Page(p)
		c.io.ints(int64(len(page)))
		for _, t := range page {
			c.rows.ints(int64(len(t)))
			c.rows.ints(t...)
		}
	}
}

func (c caseDigest) put(g *goldenDigests, name string) {
	g.put(name+"/io", c.io.sum())
	g.put(name+"/rows", c.rows.sum())
}

// rowHash mixes one row into 64 bits; multisets compare by the wrapping sum
// of their rows' hashes plus the row count.
func rowHash(parts ...storage.Tuple) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, t := range parts {
		for _, v := range t {
			x ^= uint64(v)
			x *= 0xff51afd7ed558ccd
			x ^= x >> 29
		}
		x = x*31 + uint64(len(t))
	}
	return x
}

type multiset struct {
	rows int
	sum  uint64
}

func (m *multiset) add(parts ...storage.Tuple) {
	m.rows++
	m.sum += rowHash(parts...)
}

// goldenDigests collects name → digest lines and checks or rewrites the
// golden file once the test function has produced them all.
type goldenDigests struct {
	names []string
	sums  map[string]string
}

func (g *goldenDigests) put(name, sum string) {
	if g.sums == nil {
		g.sums = map[string]string{}
	}
	g.names = append(g.names, name)
	g.sums[name] = sum
}

// check compares the lines recorded under prefix with the golden file (or
// rewrites that section of it under -update-digest).
func (g *goldenDigests) check(t *testing.T, prefix string) {
	t.Helper()
	path := filepath.Join("testdata", digestGolden)
	want := map[string]string{}
	var order []string
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			name, sum, ok := strings.Cut(sc.Text(), " ")
			if ok {
				want[name] = sum
				order = append(order, name)
			}
		}
		f.Close()
	} else if !*updateDigest {
		t.Fatalf("missing golden: %v", err)
	}
	if *updateDigest {
		var b strings.Builder
		for _, name := range order {
			if !strings.HasPrefix(name, prefix) {
				fmt.Fprintf(&b, "%s %s\n", name, want[name])
			}
		}
		for _, name := range g.names {
			fmt.Fprintf(&b, "%s %s\n", name, g.sums[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	seen := 0
	for _, name := range order {
		if strings.HasPrefix(name, prefix) {
			seen++
			if _, ok := g.sums[name]; !ok {
				t.Errorf("golden case %s no longer produced", name)
			}
		}
	}
	if seen == 0 {
		t.Fatalf("golden has no %q cases", prefix)
	}
	for _, name := range g.names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: not in golden (re-record only if the engine is meant to read or emit differently)", name)
		case w != g.sums[name]:
			t.Errorf("%s: ordered digest %s..., golden %s... — changed", name, g.sums[name][:12], w[:12])
		}
	}
}

// oraclePair is one seeded pair of relations A, B joined on "k".
type oraclePair struct {
	seed           int64
	pagesA, pagesB int
	tpp            int
	keyRange       int64 // 1<<40: no matches; small: many matches per key
	payload        int
}

var oraclePairs = []oraclePair{
	{seed: 101, pagesA: 12, pagesB: 7, tpp: 8, keyRange: 60},
	{seed: 102, pagesA: 6, pagesB: 6, tpp: 10, keyRange: 3, payload: 1},
	{seed: 103, pagesA: 9, pagesB: 14, tpp: 6, keyRange: 1 << 40, payload: 1},
	{seed: 104, pagesA: 20, pagesB: 5, tpp: 4, keyRange: 25},
	{seed: 105, pagesA: 16, pagesB: 16, tpp: 5, keyRange: 200, payload: 2},
	{seed: 106, pagesA: 3, pagesB: 18, tpp: 7, keyRange: 10, payload: 1},
}

func (p oraclePair) load(t *testing.T) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(p.seed))
	s := storage.NewStore()
	for _, spec := range []storage.GenSpec{
		{Name: "A", Pages: p.pagesA, TuplesPerPage: p.tpp, KeyRange: p.keyRange, PayloadCols: p.payload},
		{Name: "B", Pages: p.pagesB, TuplesPerPage: p.tpp, KeyRange: p.keyRange, PayloadCols: p.payload},
	} {
		rel, err := storage.Generate(spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	return New(s)
}

// memories returns every budget from the 3-page floor to three pages past
// the larger input — which puts one page either side of every S+2
// residency threshold and every GraceFanOut step of both inputs — plus a
// few ample ones.
func (p oraclePair) memories() []int {
	var out []int
	for m := 3; m <= max(p.pagesA, p.pagesB)+3; m++ {
		out = append(out, m)
	}
	return append(out, 33, 70, 200)
}

// refNestedLoop is the reference join: every (outer, inner) pair with equal
// keys, as a multiset.
func refNestedLoop(outer, inner *storage.Relation) multiset {
	var m multiset
	for _, ot := range outer.AllTuples() {
		for _, it := range inner.AllTuples() {
			if ot[0] == it[0] {
				m.add(ot, it)
			}
		}
	}
	return m
}

// TestJoinOracle drives all four methods in both orientations over every
// memory budget of every pair and checks rows against the reference join
// and (I/O, rows, order) against the golden digest.
func TestJoinOracle(t *testing.T) {
	var golden goldenDigests
	for pi, p := range oraclePairs {
		e := p.load(t)
		base := len(e.Store().Names())
		for _, orient := range [][2]string{{"A", "B"}, {"B", "A"}} {
			outer, _ := e.Store().Get(orient[0])
			inner, _ := e.Store().Get(orient[1])
			want := refNestedLoop(outer, inner)
			for _, m := range cost.Methods {
				d := newCaseDigest()
				for _, mem := range p.memories() {
					res, st, det, err := e.JoinDetailed(JoinSpec{Method: m, Outer: orient[0], Inner: orient[1], OuterCol: "k", InnerCol: "k"}, mem)
					if err != nil {
						t.Fatalf("pair %d %v %s⋈%s mem %d: %v", pi, m, orient[0], orient[1], mem, err)
					}
					var got multiset
					w := len(outer.Cols)
					for _, row := range res.AllTuples() {
						got.add(row[:w], row[w:])
					}
					if got != want {
						t.Fatalf("pair %d %v %s⋈%s mem %d: %d rows (hash %x), reference %d rows (hash %x)",
							pi, m, orient[0], orient[1], mem, got.rows, got.sum, want.rows, want.sum)
					}
					d.io.ints(int64(mem), st.Reads, st.Writes, st.Hits, int64(det.GraceLevels), int64(det.GraceFallbacks), det.GraceFallbackIO)
					d.rel(res)
					e.Store().Drop(res.Name)
					if n := len(e.Store().Names()); n != base {
						t.Fatalf("pair %d %v mem %d: leaked temps: %v", pi, m, mem, e.Store().Names())
					}
				}
				d.put(&golden, fmt.Sprintf("join/p%d/%v/%s%s", pi, m, orient[0], orient[1]))
			}
		}
	}
	golden.check(t, "join/")
}

// TestSortOracle: external sort output is an ordered permutation of the
// input at every memory, and its I/O and rows match the golden digest.
func TestSortOracle(t *testing.T) {
	var golden goldenDigests
	for pi, p := range oraclePairs {
		e := p.load(t)
		rel, _ := e.Store().Get("A")
		var wantSet multiset
		for _, tp := range rel.AllTuples() {
			wantSet.add(tp)
		}
		d := newCaseDigest()
		for _, mem := range []int{3, 4, 5, 9, 64} {
			out, st, err := e.SortRelation("A", "k", mem)
			if err != nil {
				t.Fatalf("pair %d mem %d: %v", pi, mem, err)
			}
			var got multiset
			all := out.AllTuples()
			for i, tp := range all {
				got.add(tp)
				if i > 0 && all[i-1][0] > tp[0] {
					t.Fatalf("pair %d mem %d: row %d out of order", pi, mem, i)
				}
			}
			if got != wantSet {
				t.Fatalf("pair %d mem %d: sorted output is not a permutation of the input", pi, mem)
			}
			d.io.ints(int64(mem), st.Reads, st.Writes, st.Hits)
			d.rel(out)
			e.Store().Drop(out.Name)
			if names := e.Store().Names(); len(names) != 2 {
				t.Fatalf("pair %d mem %d: leaked temps: %v", pi, mem, names)
			}
		}
		d.put(&golden, fmt.Sprintf("sort/p%d", pi))
	}
	golden.check(t, "sort/")
}

// oracleQuery is a 3–4-table query over materialised data with the
// catalog the optimizer's plan enumerator needs.
type oracleQuery struct {
	eng   *Engine
	cat   *catalog.Catalog
	blk   *query.Block
	width map[string]int
}

func loadOracleQuery(t *testing.T, seed int64, pages []int, keyRange int64, orderBy bool) *oracleQuery {
	t.Helper()
	const tpp = 5
	rng := rand.New(rand.NewSource(seed))
	q := &oracleQuery{cat: catalog.New(), blk: &query.Block{}, width: map[string]int{}}
	store := storage.NewStore()
	for j, pg := range pages {
		name := fmt.Sprintf("T%d", j)
		clustered := j%2 == 0
		gen := storage.Generate
		if clustered {
			gen = storage.GenerateSorted
		}
		rel, err := gen(storage.GenSpec{Name: name, Pages: pg, TuplesPerPage: tpp, KeyRange: keyRange, PayloadCols: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Add(rel); err != nil {
			t.Fatal(err)
		}
		q.width[name] = len(rel.Cols)
		tab, err := catalog.NewTable(name, float64(pg), float64(pg*tpp),
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: float64(keyRange), Min: 0, Max: float64(keyRange)})
		if err != nil {
			t.Fatal(err)
		}
		if err := q.cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		ix, err := storage.BuildIndex(store, "ix_"+name, name, "k", clustered, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.cat.AddIndex(catalog.Index{Name: "ix_" + name, Table: name, Column: "k", Clustered: clustered, Height: float64(ix.Height())}); err != nil {
			t.Fatal(err)
		}
		q.blk.Tables = append(q.blk.Tables, name)
		if j > 0 {
			q.blk.Joins = append(q.blk.Joins, query.Join{
				Left:  query.ColRef{Table: fmt.Sprintf("T%d", j-1), Column: "k"},
				Right: query.ColRef{Table: name, Column: "k"},
			})
		}
	}
	q.blk.Filters = []query.Filter{{Col: query.ColRef{Table: "T1", Column: "k"}, Op: catalog.OpLe, Value: float64(keyRange * 2 / 3)}}
	if orderBy {
		q.blk.OrderBy = &query.ColRef{Table: "T0", Column: "k"}
	}
	if err := q.blk.Validate(q.cat); err != nil {
		t.Fatal(err)
	}
	q.eng = New(store)
	return q
}

// reference joins the filtered tables on the shared key by brute force,
// canonicalising each row to the block's table order.
func (q *oracleQuery) reference(t *testing.T) multiset {
	t.Helper()
	rows := [][]storage.Tuple{nil}
	for _, name := range q.blk.Tables {
		rel, err := q.eng.Store().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var next [][]storage.Tuple
		for _, row := range rows {
		tuples:
			for _, tp := range rel.AllTuples() {
				for _, f := range q.blk.FiltersOn(name) {
					if float64(tp[0]) > f.Value { // every oracle filter is k <= v
						continue tuples
					}
				}
				if len(row) > 0 && row[0][0] != tp[0] {
					continue
				}
				next = append(next, append(append([]storage.Tuple(nil), row...), tp))
			}
		}
		rows = next
	}
	var m multiset
	for _, row := range rows {
		m.add(row...)
	}
	return m
}

// leaves returns the plan's scan tables in output-column order.
func leaves(n *plan.Node) []string {
	switch n.Kind {
	case plan.KindScan:
		return []string{n.Table}
	case plan.KindSort:
		return leaves(n.Child)
	default:
		return append(leaves(n.Left), leaves(n.Right)...)
	}
}

// TestExecutePlanOracle: every left-deep plan the enumerator produces
// (strided down to 24) under a 3-page, a varying and an ample memory
// trajectory returns the reference multiset, leaks no temp, honours ORDER
// BY, and matches the golden digest.
func TestExecutePlanOracle(t *testing.T) {
	var golden goldenDigests
	queries := []*oracleQuery{
		loadOracleQuery(t, 201, []int{9, 6, 12}, 40, false),
		loadOracleQuery(t, 202, []int{7, 10, 4, 8}, 30, true),
	}
	for qi, q := range queries {
		want := q.reference(t)
		if want.rows == 0 {
			t.Fatalf("query %d: reference join is empty", qi)
		}
		plans, err := optimizer.AllLeftDeepPlans(q.cat, q.blk, optimizer.Options{Methods: cost.Methods})
		if err != nil {
			t.Fatal(err)
		}
		phases := len(q.blk.Tables) - 1
		trajectories := [][]float64{{3, 3, 3}, {6, 17, 4}, {1000, 1000, 1000}}
		base := len(q.eng.Store().Names())
		const planCap = 24
		stride := max(1, len(plans)/planCap)
		d := newCaseDigest()
		for pi := 0; pi < len(plans) && pi/stride < planCap; pi += stride {
			p := plans[pi]
			order := leaves(p)
			for _, mem := range trajectories {
				res, err := q.eng.ExecutePlan(p, mem[:phases])
				if err != nil {
					t.Fatalf("query %d plan %s mem %v: %v", qi, p.Signature(), mem, err)
				}
				var got multiset
				byTable := make(map[string]storage.Tuple, len(order))
				all := res.Output.AllTuples()
				sortCol, ordered := 0, true
				for i, row := range all {
					off := 0
					for _, name := range order {
						if q.blk.OrderBy != nil && name == q.blk.OrderBy.Table {
							sortCol = off
						}
						byTable[name] = row[off : off+q.width[name]]
						off += q.width[name]
					}
					canon := make([]storage.Tuple, len(q.blk.Tables))
					for j, name := range q.blk.Tables {
						canon[j] = byTable[name]
					}
					got.add(canon...)
					if q.blk.OrderBy != nil && i > 0 && all[i-1][sortCol] > row[sortCol] && ordered {
						ordered = false
						t.Errorf("query %d plan %s mem %v: row %d breaks ORDER BY", qi, p.Signature(), mem, i)
					}
				}
				if got != want {
					t.Fatalf("query %d plan %s mem %v: %d rows (hash %x), reference %d rows (hash %x)",
						qi, p.Signature(), mem, got.rows, got.sum, want.rows, want.sum)
				}
				d.io.ints(res.Stats.Reads, res.Stats.Writes, res.Stats.Hits, int64(res.GraceLevels), int64(res.GraceFallbacks), res.GraceFallbackIO)
				d.io.ints(res.PhaseIO...)
				keys := make([]string, 0, len(res.JoinSizes))
				for k := range res.JoinSizes {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					d.io.h.Write([]byte(k))
					d.io.ints(int64(res.JoinSizes[k]))
				}
				d.rel(res.Output)
				q.eng.Store().Drop(res.Output.Name)
				if n := len(q.eng.Store().Names()); n != base {
					t.Fatalf("query %d plan %s mem %v: leaked temps: %v", qi, p.Signature(), mem, q.eng.Store().Names())
				}
			}
		}
		d.put(&golden, fmt.Sprintf("plan/q%d", qi))
	}
	golden.check(t, "plan/")
}
