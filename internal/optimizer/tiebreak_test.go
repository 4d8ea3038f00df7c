package optimizer

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/expcost"
	"lecopt/internal/plan"
	"lecopt/internal/query"
	"lecopt/internal/workload"
)

// The tie-heavy identity suite. Score ties are the common case under the
// paper's footnote-2 formulas: once both inputs fit in memory, grace hash,
// page-NL and block-NL all cost outer+inner, and with equal-size tables
// every join order costs the same too. So which plan comes out is decided
// almost entirely by the tie-break — and by the join graph and the DP
// slot rule that feed it. The references below are the dynamic programs
// as they were written before the miss path went structural: ties broken
// on the built Signature() strings, join order read off the block's join
// list, slots looked up through orderCols. The optimizer must reproduce
// their plans and scores exactly.

// tieScenario builds n equal-size tables whose key joins preserve size, so
// every join input and output is the same 1 000 pages.
func tieScenario(t *testing.T, n int, clique, orderBy bool) (*catalog.Catalog, *query.Block) {
	t.Helper()
	cat := catalog.New()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		tab := catalog.MustTable(names[i], 1000, 50_000,
			catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 50_000, Min: 0, Max: 1e9})
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			if err := cat.AddIndex(catalog.Index{Name: "ix_" + names[i], Table: names[i], Column: "k", Height: 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	blk := &query.Block{Tables: names}
	edge := func(a, b int) {
		blk.Joins = append(blk.Joins, query.Join{
			Left:  query.ColRef{Table: names[a], Column: "k"},
			Right: query.ColRef{Table: names[b], Column: "k"},
		})
	}
	for i := 1; i < n; i++ {
		if clique {
			for j := 0; j < i; j++ {
				edge(j, i)
			}
		} else {
			edge(0, i) // star
		}
	}
	if orderBy {
		blk.OrderBy = &query.ColRef{Table: names[1], Column: "k"}
	}
	return cat, blk
}

func refBetter(score float64, sig string, bestScore float64, bestSig string) bool {
	if score != bestScore {
		return score < bestScore
	}
	return sig < bestSig
}

// refJoinOrder is the join-output order rule read straight off the block.
func refJoinOrder(c *ctx, m cost.JoinMethod, j int, leftMask uint64, leftOrder plan.Order) plan.Order {
	switch m {
	case cost.PageNL, cost.BlockNL:
		return leftOrder
	case cost.SortMerge:
		if c.blk.OrderBy == nil {
			return plan.Order{}
		}
		for _, e := range c.blk.Joins {
			other, ok := joinOther(e, c.blk.Tables[j])
			if !ok {
				continue
			}
			if oi := c.blk.TableIndex(other.Table); oi < 0 || leftMask&(1<<uint(oi)) == 0 {
				continue
			}
			for _, col := range []query.ColRef{e.Left, e.Right} {
				if slices.Contains(c.orderCols, plan.Order{Table: col.Table, Column: col.Column}) {
					return plan.Order{Table: c.blk.OrderBy.Table, Column: c.blk.OrderBy.Column}
				}
			}
		}
	}
	return plan.Order{}
}

// refCandidates is ctx.candidatesInto over the block's join list.
func refCandidates(c *ctx, mask uint64) []int {
	var out, all []int
	for j := 0; j < c.n; j++ {
		if mask&(1<<uint(j)) == 0 {
			continue
		}
		all = append(all, j)
		rest := mask &^ (1 << uint(j))
		linked := rest == 0
		for _, e := range c.blk.Joins {
			if other, ok := joinOther(e, c.blk.Tables[j]); ok {
				if oi := c.blk.TableIndex(other.Table); oi >= 0 && rest&(1<<uint(oi)) != 0 {
					linked = true
				}
			}
		}
		if linked {
			out = append(out, j)
		}
	}
	if len(out) == 0 {
		return all
	}
	return out
}

// refEntry is a retained subplan as the references keep it: the built
// plan and its score. ent is the kernel entry it was built from, where
// there is one.
type refEntry struct {
	node  *plan.Node
	score float64
	ent   entry
}

// refList is the top-c list as it was: append, merge duplicates by
// signature string, re-sort everything, truncate.
type refList struct{ entries []refEntry }

func (l *refList) add(e refEntry, topC int) {
	sig := e.node.Signature()
	for i, cur := range l.entries {
		if cur.node.Signature() == sig {
			if e.score < cur.score {
				l.entries[i] = e
				l.sort()
			}
			return
		}
	}
	l.entries = append(l.entries, e)
	l.sort()
	if len(l.entries) > topC {
		l.entries = l.entries[:topC]
	}
}

func (l *refList) sort() {
	sort.Slice(l.entries, func(a, b int) bool {
		return refBetter(l.entries[a].score, l.entries[a].node.Signature(),
			l.entries[b].score, l.entries[b].node.Signature())
	})
}

func (l *refList) scores() []float64 {
	out := make([]float64, len(l.entries))
	for i, e := range l.entries {
		out[i] = e.score
	}
	return out
}

// refTopC is the string-tie-break top-c System R pass. With topC = 1 it is
// the single-plan DP (LSC over a point law, Algorithm C over memory
// laws); with topC > 1 it is Algorithm B's inner pass.
func refTopC(c *ctx, s scorer, topC int) ([]refEntry, int) {
	full := fullMask(c.n)
	dp := make([][2]refList, full+1)
	for j := 0; j < c.n; j++ {
		for _, e := range refLeaves(c, j) {
			dp[1<<uint(j)][c.slotOf(e.node.OutOrder)].add(e, topC)
		}
	}
	probes := 0
	for mask := uint64(1); mask <= full; mask++ { // numeric order visits subsets first
		if mask&(mask-1) == 0 {
			continue
		}
		phase := phaseOfMask(mask)
		for _, j := range refCandidates(c, mask) {
			bit := uint64(1) << uint(j)
			rest := mask &^ bit
			for ls := 0; ls < 2; ls++ {
				left := &dp[rest][ls]
				for rs := 0; rs < 2; rs++ {
					right := &dp[bit][rs]
					if len(left.entries) == 0 || len(right.entries) == 0 {
						continue
					}
					for _, m := range c.opts.Methods {
						jc := s.law(phase).ExpectF(func(v float64) float64 { return cost.JoinIOModel(s.model, m, c.size[rest], c.size[bit], v) })
						pairs, pr := TopCCombine(left.scores(), right.scores(), topC)
						probes += pr
						for _, p := range pairs {
							le, re := left.entries[p[0]], right.entries[p[1]]
							order := refJoinOrder(c, m, j, rest, le.node.OutOrder)
							node := plan.NewJoin(m, le.node, re.node, c.size[mask], order)
							dp[mask][c.slotOf(order)].add(refEntry{node: node, score: le.score + re.score + jc}, topC)
						}
					}
				}
			}
		}
	}
	var out []refEntry
	for sl := 0; sl < 2; sl++ {
		for _, e := range dp[full][sl].entries {
			cand := e
			if c.blk.OrderBy != nil && sl == 0 {
				cand.score += refEnforcerScore(c, s, e)
				cand.node = plan.NewSort(e.node, c.required)
			}
			out = append(out, cand)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		return refBetter(out[a].score, out[a].node.Signature(), out[b].score, out[b].node.Signature())
	})
	if len(out) > topC {
		out = out[:topC]
	}
	return out, probes
}

// refLeaves lists a table's access-path entries.
func refLeaves(c *ctx, j int) []refEntry {
	var out []refEntry
	for _, ac := range c.tables[j].accesses {
		out = append(out, refEntry{node: ac.node, score: leafScore(ac)})
	}
	return out
}

// refEnforcerScore is the root sort's price over e: the sort of the
// query's result, plus the base read of an unmaterialized heap scan it
// consumes directly.
func refEnforcerScore(c *ctx, s scorer, e refEntry) float64 {
	price := c.sortPrice(s)
	if e.node.Kind == plan.KindScan && !e.node.Materialized() {
		price += e.node.AccessIO()
	}
	return price
}

// refSizeLaws builds Algorithm D's per-mask size laws on the heap by the
// size rule, its hinted subset found by brute force over every proper
// subset: a hinted mask is its hint as a point; any other mask joins the
// lowest-numbered table outside its largest hinted proper subset (ties to
// the lowest mask) onto the rest.
func refSizeLaws(t *testing.T, c *ctx) []dist.Dist {
	t.Helper()
	hint := map[uint64]float64{}
	for _, h := range c.hints {
		hint[h.mask] = h.pages
	}
	full := fullMask(c.n)
	laws := make([]dist.Dist, full+1)
	for mask := uint64(1); mask <= full; mask++ {
		if v, ok := hint[mask]; ok {
			laws[mask] = dist.Point(v)
			continue
		}
		var s uint64
		for sub := (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask {
			if _, ok := hint[sub]; ok && (bits.OnesCount64(sub) > bits.OnesCount64(s) ||
				bits.OnesCount64(sub) == bits.OnesCount64(s) && sub < s) {
				s = sub
			}
		}
		j := bits.TrailingZeros64(mask &^ s)
		bit := uint64(1) << uint(j)
		if mask == bit {
			if laws[mask] = c.tables[j].sizeLaw; laws[mask].IsZero() {
				laws[mask] = dist.Point(c.tables[j].pages)
			}
			continue
		}
		sigma, err := refSigmaLawBetween(c, j, mask&^bit)
		if err != nil {
			t.Fatal(err)
		}
		law, err := expcost.ResultSizeDist(laws[mask&^bit], laws[bit], sigma, c.opts.SizeBuckets)
		if err != nil {
			t.Fatal(err)
		}
		if laws[mask], err = law.Map(clampPages); err != nil {
			t.Fatal(err)
		}
	}
	return laws
}

// refDist is Algorithm D's dynamic program with string tie-breaks, every
// law built on the heap.
func refDist(t *testing.T, c *ctx, mem dist.Dist) refEntry {
	t.Helper()
	laws := refSizeLaws(t, c)
	full := fullMask(c.n)
	dp := make([][2]*refEntry, full+1)
	keep := func(mask uint64, e refEntry) {
		sl := c.slotOf(e.node.OutOrder)
		cur := dp[mask][sl]
		if cur == nil || refBetter(e.score, e.node.Signature(), cur.score, cur.node.Signature()) {
			dp[mask][sl] = &e
		}
	}
	for j := 0; j < c.n; j++ {
		for _, e := range refLeaves(c, j) {
			keep(1<<uint(j), e)
		}
	}
	for mask := uint64(1); mask <= full; mask++ {
		if mask&(mask-1) == 0 {
			continue
		}
		for _, j := range refCandidates(c, mask) {
			bit := uint64(1) << uint(j)
			rest := mask &^ bit
			for _, left := range dp[rest] {
				for _, right := range dp[bit] {
					if left == nil || right == nil {
						continue
					}
					for _, m := range c.opts.Methods {
						jc := expcost.JoinECModel(c.opts.CostModel, m, laws[rest], laws[bit], mem)
						order := refJoinOrder(c, m, j, rest, left.node.OutOrder)
						node := plan.NewJoin(m, left.node, right.node, laws[mask].Mean(), order)
						keep(mask, refEntry{node: node, score: left.score + right.score + jc})
					}
				}
			}
		}
	}
	var best refEntry
	bestSig := ""
	for sl, e := range dp[full] {
		if e == nil {
			continue
		}
		cand := *e
		if c.blk.OrderBy != nil && sl == 0 {
			cand.score += expcost.SortEC(laws[full], mem)
			cand.node = plan.NewSort(e.node, c.required)
		}
		if sig := cand.node.Signature(); best.node == nil || refBetter(cand.score, sig, best.score, bestSig) {
			best, bestSig = cand, sig
		}
	}
	return best
}

func TestTieHeavyPlansMatchStringReference(t *testing.T) {
	// Memory above every input and every intermediate result.
	mem := dist.MustNew([]float64{1e6, 4e6}, []float64{1, 3})
	opts := Options{Methods: cost.Methods}
	// The premise: with both inputs resident, three of the four methods tie.
	for si, s := range []scorer{{laws: []dist.Dist{dist.Point(mem.Mean())}, model: cost.ModelPaper}, {laws: []dist.Dist{mem}, model: cost.ModelPaper}} {
		var card [cost.BlockNL + 1]float64
		cost.JoinCard(&card, s.model, cost.Methods, 1000, 1000, s.law(0))
		for _, m := range []cost.JoinMethod{cost.GraceHash, cost.PageNL, cost.BlockNL} {
			if got := card[m]; got != 2000 {
				t.Fatalf("scorer %d: %v costs %v on 1000+1000 pages, want outer+inner", si, m, got)
			}
		}
	}
	for n := 4; n <= 8; n++ {
		for _, clique := range []bool{false, true} {
			for _, orderBy := range []bool{false, true} {
				name := fmt.Sprintf("n=%d clique=%v orderBy=%v", n, clique, orderBy)
				cat, blk := tieScenario(t, n, clique, orderBy)
				c, err := prepare(cat, blk, opts)
				if err != nil {
					t.Fatal(err)
				}
				same := func(alg string, got, want refEntry) {
					t.Helper()
					if got.node.Signature() != want.node.Signature() || got.score != want.score {
						t.Fatalf("%s %s:\n got  %v %s\n want %v %s", name, alg, got.score, got.node.Signature(), want.score, want.node.Signature())
					}
				}

				point := c.pointScorer(mem.Mean())
				law := scorer{laws: []dist.Dist{mem}, model: c.opts.CostModel}
				wantLSC, _ := refTopC(c, point, 1)
				wantC, _ := refTopC(c, law, 1)
				lsc, err := LSC(cat, blk, opts, mem.Mean())
				if err != nil {
					t.Fatal(err)
				}
				same("LSC", refEntry{node: lsc.Plan, score: lsc.EC}, wantLSC[0])
				ac, err := AlgorithmC(cat, blk, opts, mem)
				if err != nil {
					t.Fatal(err)
				}
				same("C", refEntry{node: ac.Plan, score: ac.EC}, wantC[0])

				if n > 6 {
					continue // B's and D's references re-sort strings per add; keep them small
				}
				const topC = 3
				scB := getScratch(keepTopC, topC, c.n)
				c.run(scB, point, math.Inf(1))
				gotB, gotProbes := c.topRoots(scB, point, topC), scB.probes
				wantB, wantProbes := refTopC(c, point, topC)
				if len(gotB) != len(wantB) || gotProbes != wantProbes {
					t.Fatalf("%s B: %d entries / %d probes, want %d / %d", name, len(gotB), gotProbes, len(wantB), wantProbes)
				}
				for i := range gotB {
					same(fmt.Sprintf("B[%d]", i), refEntry{node: c.tree(scB, point, &gotB[i]), score: gotB[i].score}, wantB[i])
				}
				scB.release()
				gotD, err := c.dpLaws(mem)
				if err != nil {
					t.Fatal(err)
				}
				same("D", refEntry{node: gotD.Plan, score: gotD.EC}, refDist(t, c, mem))
			}
		}
	}
}

// TestIsCandidateMatchesCandidates pins the bit-test form against the
// enumerated form on connected and disconnected graphs.
func TestIsCandidateMatchesCandidates(t *testing.T) {
	cat, blk := tieScenario(t, 6, false, false)
	blk.Joins = blk.Joins[:3] // t4 and t5 fall off the star: cross products
	c, err := prepare(cat, blk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(1); mask <= fullMask(c.n); mask++ {
		want := map[int]bool{}
		for _, j := range refCandidates(c, mask) {
			want[j] = true
		}
		got := c.candidatesInto(mask, nil)
		if len(got) != len(want) {
			t.Fatalf("mask %b: candidatesInto = %v, reference %v", mask, got, want)
		}
		for j := 0; j < c.n; j++ {
			if mask&(1<<uint(j)) != 0 && c.isCandidate(j, mask) != want[j] {
				t.Fatalf("mask %b: isCandidate(%d) = %v, reference %v", mask, j, !want[j], want[j])
			}
		}
	}
}

// TestUnknownJoinMethodRejected: a join method outside the cost formulas
// used to reach cost.JoinIOModel's panic; prepare now turns it away with a typed
// error on every entry point, before any DP runs.
func TestUnknownJoinMethodRejected(t *testing.T) {
	cat, blk := tieScenario(t, 3, false, true)
	opts := Options{Methods: []cost.JoinMethod{cost.GraceHash, 99}}
	mem := dist.MustNew([]float64{100, 1000}, []float64{1, 1})
	chain, err := dist.Sticky([]float64{100, 1000}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func() error{
		"LSC": func() error { _, err := LSC(cat, blk, opts, 500); return err },
		"A":   func() error { _, err := AlgorithmA(cat, blk, opts, mem); return err },
		"B":   func() error { _, err := AlgorithmB(cat, blk, opts, mem, 2); return err },
		"C":   func() error { _, err := AlgorithmC(cat, blk, opts, mem); return err },
		"C-dynamic": func() error {
			_, err := AlgorithmCDynamic(cat, blk, opts, mem, chain)
			return err
		},
		"D":          func() error { _, err := AlgorithmD(cat, blk, opts, mem, nil, nil); return err },
		"exhaustive": func() error { _, err := ExhaustiveLSC(cat, blk, opts, 500); return err },
		"refined":    func() error { _, _, err := AlgorithmCRefined(cat, blk, opts, mem, 1, 1); return err },
	}
	for name, call := range calls {
		err := call()
		if !errors.Is(err, ErrBadOpts) || !strings.Contains(err.Error(), "JoinMethod(99)") {
			t.Errorf("%s: err = %v, want ErrBadOpts naming JoinMethod(99)", name, err)
		}
	}
}

// TestTopListMatchesResort drives the sorted-insertion list and the
// append-and-re-sort list it replaced with the same random entries of one
// cell — score ties, duplicate signatures at equal, cheaper and dearer
// scores — and requires identical contents after every add. The entries
// join a random table's access paths, by two methods, onto random entries
// of a filled top-c table; the reference holds their built plans.
func TestTopListMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cat, blk := tieScenario(t, 4, true, true)
	c, err := prepare(cat, blk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	s := c.pointScorer(1e6)
	sc := getScratch(keepTopC, 5, c.n)
	defer sc.release()
	c.run(sc, s, math.Inf(1))
	full := fullMask(c.n)
	by := sigOrder{c, sc}
	random := func() entry {
		for {
			j := rng.Intn(c.n)
			lk := cell(full&^(1<<uint(j)), rng.Intn(2))
			if held := sc.held[lk]; held > 0 {
				return entry{score: float64(rng.Intn(4)), left: uint32(lk*sc.depth + rng.Intn(held)),
					access: uint16(rng.Intn(len(c.tables[j].accesses))), table: uint8(j), op: opJoin | entryOp(cost.Methods[rng.Intn(2)])}
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		topC := 1 + rng.Intn(5)
		got, want := &topList{}, &refList{}
		for step := 0; step < 40; step++ {
			e := random()
			got.add(e, topC, by)
			want.add(refEntry{node: c.tree(sc, s, &e), score: e.score, ent: e}, topC)
			if len(got.entries) != len(want.entries) {
				t.Fatalf("trial %d step %d: %d entries, want %d", trial, step, len(got.entries), len(want.entries))
			}
			for i := range got.entries {
				if got.entries[i] != want.entries[i].ent {
					t.Fatalf("trial %d step %d: entry %d is %v %s, want %v %s", trial, step, i,
						got.entries[i].score, c.tree(sc, s, &got.entries[i]).Signature(), want.entries[i].score, want.entries[i].node.Signature())
				}
			}
		}
	}
}

// joinOther returns the column on the opposite side of table, and whether
// the predicate touches table at all.
func joinOther(j query.Join, table string) (query.ColRef, bool) {
	switch table {
	case j.Left.Table:
		return j.Right, true
	case j.Right.Table:
		return j.Left, true
	}
	return query.ColRef{}, false
}

// entryTree is entry e's plan built by plan's constructors from the table
// it lives in: the reference the comparator is held to. Output orders are
// left out; no signature renders them below the root sort.
func entryTree(c *ctx, sc *dpScratch, e *entry) *plan.Node {
	n := c.scan(e)
	if e.op.join() {
		n = plan.NewJoin(e.op.method(), entryTree(c, sc, &sc.ents[e.left]), n, 1, plan.Order{})
	}
	if e.op.sorted() {
		n = plan.NewSort(n, c.required)
	}
	return n
}

// hostileNames renames sc's tables and indexes to names that are prefixes
// of one another and hold the bytes a signature delimits with, so that two
// renderings can end early on the very byte the other goes on with.
func hostileNames(t *testing.T, sc workload.Scenario, rng *rand.Rand) workload.Scenario {
	t.Helper()
	tables := []string{"a", "a ", "a(", "a)", "a[", "a[ix:", "ab", "sort<", "sort<a.k>(", "("}
	indexes := []string{"i", "i]", "i)", "i ", "i]]", "j", "ix", "i("}
	rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	rng.Shuffle(len(indexes), func(i, j int) { indexes[i], indexes[j] = indexes[j], indexes[i] })
	name := map[string]string{}
	cat := catalog.New()
	for i, old := range sc.Block.Tables {
		name[old] = tables[i]
		tab, err := sc.Cat.Table(old)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(catalog.MustTable(tables[i], tab.Pages, tab.Rows, tab.Columns()...)); err != nil {
			t.Fatal(err)
		}
		for _, ix := range sc.Cat.IndexesOn(old) {
			ix.Name, ix.Table = indexes[i], tables[i]
			if err := cat.AddIndex(ix); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := func(r query.ColRef) query.ColRef { return query.ColRef{Table: name[r.Table], Column: r.Column} }
	blk := &query.Block{}
	for _, old := range sc.Block.Tables {
		blk.Tables = append(blk.Tables, name[old])
	}
	for _, j := range sc.Block.Joins {
		blk.Joins = append(blk.Joins, query.Join{Left: ref(j.Left), Right: ref(j.Right)})
	}
	for _, f := range sc.Block.Filters {
		f.Col = ref(f.Col)
		blk.Filters = append(blk.Filters, f)
	}
	if sc.Block.OrderBy != nil {
		o := ref(*sc.Block.OrderBy)
		blk.OrderBy = &o
	}
	return workload.Scenario{Cat: cat, Block: blk}
}

// FuzzEntryOrder holds the tie-break comparator to the signature strings:
// a top-c pass over 2–8 tables of any shape, with or without an ORDER BY,
// random size hints and, on demand, table and index names built to end
// renderings early; then for every pair of entries in one cell, and every
// pair in the completed root list, the comparator's sign must be that of
// strings.Compare over the signatures of the two plans built by plan's
// constructors. A root entry's built plan must render as that reference
// does.
func FuzzEntryOrder(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(int64(i), uint8(i), i%2 == 0, i%3 == 0, i%4 == 1)
	}
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	f.Fuzz(func(t *testing.T, seed int64, size uint8, orderBy, hinted, hostile bool) {
		rng := rand.New(rand.NewSource(seed))
		spec := workload.DefaultSpec(2+int(size)%7, shapes[int(size/7)%len(shapes)])
		spec.OrderByProb, spec.IndexProb = 0, 0.5
		if orderBy {
			spec.OrderByProb = 1
		}
		sc, err := workload.Generate(spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		if hostile {
			sc = hostileNames(t, sc, rng)
		}
		opts := Options{Methods: cost.Methods}
		if hinted {
			opts.SizeHints = randomHints(rng, sc.Block.Tables)
		}
		c, err := prepare(sc.Cat, sc.Block, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.release()
		s := c.pointScorer(float64(int(16) << rng.Intn(12)))
		scr := getScratch(keepTopC, 1+rng.Intn(6), c.n)
		defer scr.release()
		c.run(scr, s, math.Inf(1))
		by := sigOrder{c, scr}
		check := func(where string, list []entry) {
			t.Helper()
			sigs := make([]string, len(list))
			for i := range list {
				sigs[i] = entryTree(c, scr, &list[i]).Signature()
			}
			for i := range list {
				for j := range list {
					got, want := by.compare(&list[i], &list[j]), strings.Compare(sigs[i], sigs[j])
					if (got > 0) != (want > 0) || (got < 0) != (want < 0) {
						t.Fatalf("%s: compare(%s, %s) = %d, strings.Compare %d", where, sigs[i], sigs[j], got, want)
					}
				}
			}
		}
		for mask := uint64(1); mask <= fullMask(c.n); mask++ {
			for slot := range 2 {
				check(fmt.Sprintf("cell %b/%d", mask, slot), scr.list(cell(mask, slot)))
			}
		}
		c.complete(scr, s)
		check("root", scr.root)
		for i := range scr.root {
			if got, want := c.tree(scr, s, &scr.root[i]).Signature(), entryTree(c, scr, &scr.root[i]).Signature(); got != want {
				t.Fatalf("root %d builds %s, want %s", i, got, want)
			}
		}
	})
}
