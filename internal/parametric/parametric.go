// Package parametric implements the paper's proposed combination of LEC
// optimization with parametric query optimization [INSS92] (Sections 3.2
// and 3.4): "we can precompute the best expected plan under a number of
// possible distributions (ones that give good coverage of what we expect
// to encounter at run-time), and store these expected plans, for use at
// query execution time."
//
// A Cache holds one LEC plan per anticipated memory law. At start-up time,
// when the actual law becomes known, either
//
//   - Nearest: a "simple table lookup" — return the plan precomputed for
//     the anticipated law closest (1-Wasserstein) to the actual law; or
//   - SelectByEC: re-cost every cached plan under the actual law and
//     return the best — still far cheaper than re-optimizing, because the
//     cached candidate set is tiny compared to the plan space.
//
// SelectByEC is exactly Algorithm A run over the cached plans instead of
// per-bucket LSC plans; Nearest is the constant-time variant.
package parametric

import (
	"errors"
	"fmt"
	"math"

	"lecopt/internal/catalog"
	"lecopt/internal/cost"
	"lecopt/internal/dist"
	"lecopt/internal/optimizer"
	"lecopt/internal/plan"
	"lecopt/internal/query"
)

// Errors.
var (
	errEmptyCache = errors.New("parametric: no laws to precompute")
	ErrNoEntry    = errors.New("parametric: empty cache lookup")
)

// Entry is one precomputed plan.
type Entry struct {
	Law  dist.Dist
	Plan *plan.Node
	// EC is the plan's expected cost under its own anticipated law.
	EC float64
}

// Cache holds the precomputed plans for one query.
type Cache struct {
	entries []Entry
	// distinct plans by signature, for SelectByEC.
	planSet []*plan.Node
	// model is the cost model the plans were precomputed under; SelectByEC
	// re-costs with the same model so selection and precomputation agree.
	model cost.Model
}

// Model returns the cost model the cache's plans were precomputed under.
func (c *Cache) Model() cost.Model { return c.model }

// Precompute runs Algorithm C once per anticipated law and stores the
// results. Duplicate plans (several laws mapping to the same plan — the
// common case) are stored once in the candidate set.
func Precompute(cat *catalog.Catalog, blk *query.Block, opts optimizer.Options, laws []dist.Dist) (*Cache, error) {
	if len(laws) == 0 {
		return nil, errEmptyCache
	}
	c := &Cache{model: opts.CostModel}
	seen := map[string]bool{}
	for _, law := range laws {
		res, err := optimizer.AlgorithmC(cat, blk, opts, law)
		if err != nil {
			return nil, fmt.Errorf("parametric: precompute: %w", err)
		}
		c.entries = append(c.entries, Entry{Law: law, Plan: res.Plan, EC: res.EC})
		sig := res.Plan.Signature()
		if !seen[sig] {
			seen[sig] = true
			c.planSet = append(c.planSet, res.Plan)
		}
	}
	return c, nil
}

// Len returns the number of anticipated laws.
func (c *Cache) Len() int { return len(c.entries) }

// Plans returns the number of distinct cached plans.
func (c *Cache) Plans() int { return len(c.planSet) }

// Entries returns a copy of the cache contents.
func (c *Cache) Entries() []Entry {
	return append([]Entry(nil), c.entries...)
}

// Nearest returns the entry whose anticipated law is closest to the actual
// law in 1-Wasserstein distance — the paper's "simple table lookup".
func (c *Cache) Nearest(actual dist.Dist) (Entry, error) {
	if len(c.entries) == 0 {
		return Entry{}, ErrNoEntry
	}
	best := 0
	bestD := math.Inf(1)
	for i, e := range c.entries {
		if d := dist.Wasserstein1(e.Law, actual); d < bestD {
			best, bestD = i, d
		}
	}
	return c.entries[best], nil
}

// SelectByEC re-costs every distinct cached plan under the actual law and
// returns the cheapest with its expected cost. Cost: O(plans · b) formula
// evaluations — no plan-space search.
func (c *Cache) SelectByEC(actual dist.Dist) (*plan.Node, float64, error) {
	if len(c.planSet) == 0 {
		return nil, 0, ErrNoEntry
	}
	laws := []dist.Dist{actual}
	var bestPlan *plan.Node
	bestEC := math.Inf(1)
	bestSig := ""
	for _, p := range c.planSet {
		ec, err := optimizer.ExpectedCostModel(c.model, p, laws)
		if err != nil {
			return nil, 0, err
		}
		sig := p.Signature()
		if ec < bestEC || (ec == bestEC && sig < bestSig) {
			bestPlan, bestEC, bestSig = p, ec, sig
		}
	}
	return bestPlan, bestEC, nil
}

// CoverageGrid builds a family of anticipated bimodal memory laws spanning
// low-memory probabilities pLows at the given arms — the "good coverage"
// family suggested by the paper for environments that oscillate between a
// contended and an uncontended state.
func CoverageGrid(lo, hi float64, pLows []float64) ([]dist.Dist, error) {
	var out []dist.Dist
	for _, p := range pLows {
		d, err := dist.Bimodal(lo, hi, p)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, errEmptyCache
	}
	return out, nil
}
