package experiments

import (
	"math"

	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/query"
)

// jointEval computes the EXACT expected cost of a left-deep plan under
// joint uncertainty: base-size laws per table, selectivity laws per join
// edge and a memory law, all independent. It enumerates every realization
// of the size/selectivity variables (exponential in their count — only for
// small scenarios) and, per realization, derives each intermediate size
// bottom-up and takes the expectation over memory. It is the oracle that
// experiment E10 scores Algorithm D against, entirely independent of the
// DP's incremental scoring and of the rebucketed propagation.
type jointEval struct {
	blk      *query.Block
	sizeLaws map[string]dist.Dist // per-table filtered size (Point if absent)
	selLaws  map[string]dist.Dist // per-EdgeKey selectivity (Point if absent)
	mem      dist.Dist
}

// ec evaluates the plan.
func (je *jointEval) ec(p *plan.Node) float64 {
	tables, edges := je.variables(p)
	total := 0.0
	var rec func(i int, prob float64, sizes map[string]float64, sels map[string]float64)
	rec = func(i int, prob float64, sizes map[string]float64, sels map[string]float64) {
		if i < len(tables) {
			law := je.sizeLaws[tables[i]]
			for k := 0; k < law.Len(); k++ {
				sizes[tables[i]] = law.Value(k)
				rec(i+1, prob*law.Prob(k), sizes, sels)
			}
			return
		}
		ei := i - len(tables)
		if ei < len(edges) {
			law := je.selLaws[edges[ei]]
			for k := 0; k < law.Len(); k++ {
				sels[edges[ei]] = law.Value(k)
				rec(i+1, prob*law.Prob(k), sizes, sels)
			}
			return
		}
		total += prob * je.costUnder(p, sizes, sels)
	}
	rec(0, 1, map[string]float64{}, map[string]float64{})
	return total
}

// variables lists the plan's tables and the edge keys it can realize,
// defaulting absent laws to point estimates taken from the plan's
// annotations.
func (je *jointEval) variables(p *plan.Node) (tables []string, edges []string) {
	for _, t := range p.Relations() {
		if _, ok := je.sizeLaws[t]; !ok {
			je.sizeLaws[t] = dist.Point(leafPages(p, t))
		}
		tables = append(tables, t)
	}
	for _, j := range je.blk.Joins {
		key := optimizer.EdgeKey(j)
		if _, ok := je.selLaws[key]; !ok {
			je.selLaws[key] = dist.Point(sigmaOf(je, j))
		}
		edges = append(edges, key)
	}
	return tables, edges
}

func leafPages(p *plan.Node, table string) float64 {
	pages := 1.0
	p.Walk(func(n *plan.Node) {
		if n.Kind == plan.KindScan && n.Table == table {
			pages = n.OutPages
		}
	})
	return pages
}

// sigmaOf is only used when no selectivity law was provided; the caller's
// scenarios always provide laws for the edges under study, so a neutral
// estimate suffices for the remainder.
func sigmaOf(_ *jointEval, _ query.Join) float64 { return 1 }

// costUnder computes E_M[C(P, sizes, sels, M)] for one realization: the
// evaluator under the memory law, over a copy of the plan whose output
// sizes are the realized ones, derived bottom-up. Scans keep the access
// charge of the plan as annotated.
func (je *jointEval) costUnder(p *plan.Node, sizes map[string]float64, sels map[string]float64) float64 {
	var realize func(n *plan.Node)
	realize = func(n *plan.Node) {
		switch n.Kind {
		case plan.KindScan:
			n.IO = n.AccessIO()
			n.OutPages = sizes[n.Table]
		case plan.KindSort:
			realize(n.Child)
			n.OutPages = n.Child.OutPages
		default: // join
			realize(n.Left)
			realize(n.Right)
			n.OutPages = math.Max(1, n.Left.OutPages*n.Right.OutPages*je.sigmaBetween(n, sels))
		}
	}
	q := p.Clone()
	realize(q)
	ec, err := paperCost(q, []dist.Dist{je.mem})
	if err != nil {
		return math.NaN()
	}
	return ec
}

// sigmaBetween multiplies the realized selectivities of every edge between
// the join's right table and the left subtree's tables.
func (je *jointEval) sigmaBetween(n *plan.Node, sels map[string]float64) float64 {
	rightTables := map[string]bool{}
	for _, t := range n.Right.Relations() {
		rightTables[t] = true
	}
	leftTables := map[string]bool{}
	for _, t := range n.Left.Relations() {
		leftTables[t] = true
	}
	s := 1.0
	for _, j := range je.blk.Joins {
		lT, rT := j.Left.Table, j.Right.Table
		spans := (leftTables[lT] && rightTables[rT]) || (leftTables[rT] && rightTables[lT])
		if spans {
			s *= sels[optimizer.EdgeKey(j)]
		}
	}
	return s
}
