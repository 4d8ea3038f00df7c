package optimizer

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/expcost"
	"lecopt/internal/plan"
	"lecopt/internal/query"
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
			other, ok := e.Other(c.blk.Tables[j])
			if !ok {
				continue
			}
			if oi := c.blk.TableIndex(other.Table); oi < 0 || leftMask&(1<<uint(oi)) == 0 {
				continue
			}
			for _, col := range []query.ColRef{e.Left, e.Right} {
				if c.orderCols[plan.Order{Table: col.Table, Column: col.Column}] {
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
			if other, ok := e.Other(c.blk.Tables[j]); ok {
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

// refList is the top-c list as it was: append, merge duplicates by
// signature string, re-sort everything, truncate.
type refList struct{ entries []entry }

func (l *refList) add(e entry, topC int) {
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
func refTopC(c *ctx, s scorer, topC int) ([]entry, int) {
	full := fullMask(c.n)
	dp := make([][2]refList, full+1)
	for j := 0; j < c.n; j++ {
		for _, e := range c.leafEntries(c.tables[j]) {
			dp[1<<uint(j)][c.slotOf(e.order)].add(e, topC)
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
			sigma := c.sigmaBetween(j, rest)
			for ls := 0; ls < 2; ls++ {
				left := &dp[rest][ls]
				for rs := 0; rs < 2; rs++ {
					right := &dp[bit][rs]
					if len(left.entries) == 0 || len(right.entries) == 0 {
						continue
					}
					for _, m := range c.opts.Methods {
						jc := s.joinScore(m, left.entries[0].pages, right.entries[0].pages, phase)
						pairs, pr := TopCCombine(left.scores(), right.scores(), topC)
						probes += pr
						for _, p := range pairs {
							le, re := left.entries[p[0]], right.entries[p[1]]
							outPages := c.joinOutPages(mask, c.clampPages(le.pages*re.pages*sigma))
							order := refJoinOrder(c, m, j, rest, le.order)
							node := plan.NewJoin(m, le.node, re.node, outPages, order)
							dp[mask][c.slotOf(order)].add(entry{node: node, score: le.score + re.score + jc, pages: outPages, order: order}, topC)
						}
					}
				}
			}
		}
	}
	var out []entry
	for sl := 0; sl < 2; sl++ {
		for _, e := range dp[full][sl].entries {
			cand := e
			if c.blk.OrderBy != nil && sl == 0 {
				cand.score += enforcerScore(s, e, lastPhase(c.n))
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

// refDist is Algorithm D's dynamic program with string tie-breaks.
func refDist(t *testing.T, c *ctx, mem dist.Dist) entry {
	t.Helper()
	full := fullMask(c.n)
	dp := make([][2]*distEntry, full+1)
	keep := func(mask uint64, e distEntry) {
		sl := c.slotOf(e.order)
		cur := dp[mask][sl]
		if cur == nil || refBetter(e.score, e.node.Signature(), cur.score, cur.node.Signature()) {
			dp[mask][sl] = &e
		}
	}
	for j := 0; j < c.n; j++ {
		for _, e := range c.leafEntries(c.tables[j]) {
			keep(1<<uint(j), distEntry{entry: e, law: c.tables[j].sizeLaw})
		}
	}
	for mask := uint64(1); mask <= full; mask++ {
		if mask&(mask-1) == 0 {
			continue
		}
		for _, j := range refCandidates(c, mask) {
			bit := uint64(1) << uint(j)
			rest := mask &^ bit
			sigmaLaw := c.sigmaLawBetween(j, rest)
			for _, left := range dp[rest] {
				for _, right := range dp[bit] {
					if left == nil || right == nil {
						continue
					}
					outLaw, err := expcost.ResultSizeDist(left.law, right.law, sigmaLaw, c.opts.SizeBuckets)
					if err != nil {
						t.Fatal(err)
					}
					outLaw = outLaw.Map(c.clampPages)
					for _, m := range c.opts.Methods {
						jc := expcost.JoinECModel(c.opts.CostModel, m, left.law, right.law, mem)
						order := refJoinOrder(c, m, j, rest, left.order)
						node := plan.NewJoin(m, left.node, right.node, outLaw.Mean(), order)
						keep(mask, distEntry{
							entry: entry{node: node, score: left.score + right.score + jc, pages: outLaw.Mean(), order: order},
							law:   outLaw,
						})
					}
				}
			}
		}
	}
	var best entry
	bestSig := ""
	for sl, e := range dp[full] {
		if e == nil {
			continue
		}
		cand := e.entry
		if c.blk.OrderBy != nil && sl == 0 {
			cand.score += expcost.SortEC(e.law, mem)
			cand.node = plan.NewSort(e.node, c.required)
		}
		if sig := cand.node.Signature(); best.node == nil || refBetter(cand.score, sig, best.score, bestSig) {
			best, bestSig = cand, sig
		}
	}
	return best
}

func TestTieHeavyPlansMatchStringReference(t *testing.T) {
	old := dpParallelMinMasks
	dpParallelMinMasks = 2 // every rank of every query takes the chunked path at workers > 1
	defer func() { dpParallelMinMasks = old }()

	// Memory above every input and every intermediate result.
	mem := dist.MustNew([]float64{1e6, 4e6}, []float64{1, 3})
	opts := Options{Methods: cost.Methods}
	// The premise: with both inputs resident, three of the four methods tie.
	for si, s := range []scorer{pointScorer(mem.Mean(), cost.ModelPaper), {[]dist.Dist{mem}, cost.ModelPaper}} {
		for _, m := range []cost.JoinMethod{cost.GraceHash, cost.PageNL, cost.BlockNL} {
			if got := s.joinScore(m, 1000, 1000, 0); got != 2000 {
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
				same := func(alg string, got Result, want entry) {
					t.Helper()
					if got.Plan.Signature() != want.node.Signature() || got.EC != want.score {
						t.Fatalf("%s %s:\n got  %v %s\n want %v %s", name, alg, got.EC, got.Plan.Signature(), want.score, want.node.Signature())
					}
				}

				point := pointScorer(mem.Mean(), c.opts.CostModel)
				law := scorer{staticLaws(mem, c.n), c.opts.CostModel}
				wantLSC, _ := refTopC(c, point, 1)
				wantC, _ := refTopC(c, law, 1)
				for _, workers := range []int{1, 4, 8} {
					o := opts
					o.Workers = workers
					lsc, err := LSC(cat, blk, o, mem.Mean())
					if err != nil {
						t.Fatal(err)
					}
					same(fmt.Sprintf("LSC workers=%d", workers), lsc, wantLSC[0])
					ac, err := AlgorithmC(cat, blk, o, mem)
					if err != nil {
						t.Fatal(err)
					}
					same(fmt.Sprintf("C workers=%d", workers), ac, wantC[0])
				}

				if n > 6 {
					continue // B's and D's references re-sort strings per add; keep them small
				}
				const topC = 3
				gotB, gotProbes, err := c.dpTopC(point, topC)
				if err != nil {
					t.Fatal(err)
				}
				wantB, wantProbes := refTopC(c, point, topC)
				if len(gotB) != len(wantB) || gotProbes != wantProbes {
					t.Fatalf("%s B: %d entries / %d probes, want %d / %d", name, len(gotB), gotProbes, len(wantB), wantProbes)
				}
				for i := range gotB {
					same(fmt.Sprintf("B[%d]", i), Result{Plan: gotB[i].node, EC: gotB[i].score}, wantB[i])
				}
				gotD, err := c.dpDist(mem)
				if err != nil {
					t.Fatal(err)
				}
				same("D", gotD, refDist(t, c, mem))
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
// append-and-re-sort list it replaced with the same random entries —
// score ties, duplicate signatures at equal, cheaper and dearer scores —
// and requires identical contents after every add.
func TestTopListMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scans := make([]*plan.Node, 5)
	for i := range scans {
		scans[i] = plan.NewScan(fmt.Sprintf("t%d", i), plan.AccessHeap, "", 1, 1)
	}
	for trial := 0; trial < 300; trial++ {
		topC := 1 + rng.Intn(5)
		got, want := &topList{}, &refList{}
		for step := 0; step < 40; step++ {
			node := plan.NewJoin(cost.Methods[rng.Intn(2)], scans[rng.Intn(len(scans))], scans[rng.Intn(2)], 1, plan.Order{})
			e := entry{node: node, score: float64(rng.Intn(4))}
			got.add(e, topC)
			want.add(e, topC)
			if len(got.entries) != len(want.entries) {
				t.Fatalf("trial %d step %d: %d entries, want %d", trial, step, len(got.entries), len(want.entries))
			}
			for i := range got.entries {
				if got.entries[i].node != want.entries[i].node || got.entries[i].score != want.entries[i].score {
					t.Fatalf("trial %d step %d: entry %d is %v %s, want %v %s", trial, step, i,
						got.entries[i].score, got.entries[i].node.Signature(), want.entries[i].score, want.entries[i].node.Signature())
				}
			}
		}
	}
}
