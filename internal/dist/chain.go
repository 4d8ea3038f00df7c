package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// errBadChain reports invalid Markov-chain inputs.
var errBadChain = errors.New("dist: invalid markov chain")

// Chain is a row-stochastic Markov chain over ascending memory levels —
// the Section 3.5 model of memory that drifts between join phases as
// concurrent work starts and finishes. rows[i][j] is the probability of
// moving from state i to state j in one phase.
type Chain struct {
	states []float64
	rows   [][]float64
}

// newChain validates states (finite, duplicate-free; sorted internally)
// and allocates zeroed rows for the constructors to fill.
func newChain(states []float64) (*Chain, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("%w: no states", errBadChain)
	}
	s := append([]float64(nil), states...)
	sort.Float64s(s)
	for i, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite state %v", errBadChain, v)
		}
		if i > 0 && s[i-1] == v {
			return nil, fmt.Errorf("%w: duplicate state %v", errBadChain, v)
		}
	}
	rows := make([][]float64, len(s))
	for i := range rows {
		rows[i] = make([]float64, len(s))
	}
	return &Chain{states: s, rows: rows}, nil
}

// Sticky builds a chain that stays at its current level with probability
// stay and otherwise drifts to an adjacent level (interior states split
// the leave mass evenly between both neighbours; boundary states give it
// all to their single neighbour). A one-state chain always stays.
func Sticky(levels []float64, stay float64) (*Chain, error) {
	if math.IsNaN(stay) || stay < 0 || stay > 1 {
		return nil, fmt.Errorf("%w: stay probability %v", errBadChain, stay)
	}
	c, err := newChain(levels)
	if err != nil {
		return nil, err
	}
	n := len(c.states)
	for i := 0; i < n; i++ {
		switch {
		case n == 1:
			c.rows[i][i] = 1
		case i == 0:
			c.rows[i][i] = stay
			c.rows[i][i+1] = 1 - stay
		case i == n-1:
			c.rows[i][i] = stay
			c.rows[i][i-1] = 1 - stay
		default:
			c.rows[i][i] = stay
			c.rows[i][i-1] = (1 - stay) / 2
			c.rows[i][i+1] = (1 - stay) / 2
		}
	}
	return c, nil
}

// RandomWalk builds a birth-death chain: from an interior state, move up
// one level with probability pUp, down with pDown, and stay otherwise.
// Moves off the ends fold into staying, so the walk reflects at the
// boundaries. pUp + pDown must not exceed 1.
func RandomWalk(states []float64, pUp, pDown float64) (*Chain, error) {
	if math.IsNaN(pUp) || math.IsNaN(pDown) || pUp < 0 || pDown < 0 || pUp+pDown > 1 {
		return nil, fmt.Errorf("%w: pUp %v, pDown %v", errBadChain, pUp, pDown)
	}
	c, err := newChain(states)
	if err != nil {
		return nil, err
	}
	n := len(c.states)
	for i := 0; i < n; i++ {
		stay := 1 - pUp - pDown
		if i == 0 {
			stay += pDown
		} else {
			c.rows[i][i-1] = pDown
		}
		if i == n-1 {
			stay += pUp
		} else {
			c.rows[i][i+1] = pUp
		}
		c.rows[i][i] = stay
	}
	return c, nil
}

// Len returns the number of states.
func (c *Chain) Len() int { return len(c.states) }

// States returns a copy of the ascending state values.
func (c *Chain) States() []float64 {
	return append([]float64(nil), c.states...)
}

// State returns the i-th state value (ascending order, as in States) —
// the allocation-free accessor for hot loops that would otherwise copy
// the whole state slice. It panics on out-of-range indexes, mirroring
// slice semantics.
func (c *Chain) State(i int) float64 { return c.states[i] }

// Prob returns the one-step transition probability from state i to state j
// (states in ascending order, as returned by States). It panics on
// out-of-range indexes, mirroring slice semantics.
func (c *Chain) Prob(i, j int) float64 { return c.rows[i][j] }

// index locates a state value.
func (c *Chain) index(v float64) (int, bool) {
	i := sort.SearchFloat64s(c.states, v)
	if i < len(c.states) && c.states[i] == v {
		return i, true
	}
	return 0, false
}

// initVector converts an initial law into a probability vector over the
// chain's states, failing if the law puts mass outside them.
func (c *Chain) initVector(init Dist) ([]float64, error) {
	if init.IsZero() {
		return nil, fmt.Errorf("%w: empty initial law", errBadChain)
	}
	vec := make([]float64, len(c.states))
	for i := 0; i < init.Len(); i++ {
		j, ok := c.index(init.Value(i))
		if !ok {
			return nil, fmt.Errorf("%w: initial law value %v is not a chain state", errBadChain, init.Value(i))
		}
		vec[j] += init.Prob(i)
	}
	return vec, nil
}

// step advances a state-probability vector by one transition.
func (c *Chain) step(vec []float64) []float64 {
	next := make([]float64, len(vec))
	for i, p := range vec {
		if p == 0 {
			continue
		}
		for j, t := range c.rows[i] {
			next[j] += p * t
		}
	}
	return next
}

// toDist converts a state-probability vector to a law (zero-mass states
// dropped).
func (c *Chain) toDist(vec []float64) Dist {
	var vals, weights []float64
	for i, p := range vec {
		if p > 0 {
			vals = append(vals, c.states[i])
			weights = append(weights, p)
		}
	}
	return MustNew(vals, weights)
}

// PhaseLaws returns the marginal memory law of each of n execution
// phases: laws[0] is the initial law itself and laws[i] its i-step
// evolution through the chain — exactly the per-phase distributions
// Theorem 3.4's dynamic programming argument needs. n is clamped to at
// least one phase.
func (c *Chain) PhaseLaws(init Dist, n int) ([]Dist, error) {
	if n < 1 {
		n = 1
	}
	vec, err := c.initVector(init)
	if err != nil {
		return nil, err
	}
	laws := make([]Dist, n)
	laws[0] = init
	for i := 1; i < n; i++ {
		vec = c.step(vec)
		laws[i] = c.toDist(vec)
	}
	return laws, nil
}

// SampleSeq draws one memory trajectory of length n: the first value from
// init, each subsequent value by a chain transition.
func (c *Chain) SampleSeq(rng *rand.Rand, init Dist, n int) ([]float64, error) {
	if n < 1 {
		n = 1
	}
	if _, err := c.initVector(init); err != nil {
		return nil, err
	}
	cur, _ := c.index(init.Sample(rng))
	seq := make([]float64, n)
	seq[0] = c.states[cur]
	for i := 1; i < n; i++ {
		u := rng.Float64()
		acc := 0.0
		next := cur
		for j, t := range c.rows[cur] {
			acc += t
			if u < acc {
				next = j
				break
			}
		}
		cur = next
		seq[i] = c.states[cur]
	}
	return seq, nil
}

// AllSeqs enumerates every length-n trajectory with positive probability
// together with its probability (exponential in n; meant for small
// test-scale enumerations of E[C(P, M_1..M_n)]).
func (c *Chain) AllSeqs(init Dist, n int) (seqs [][]float64, probs []float64, err error) {
	if n < 1 {
		n = 1
	}
	vec, err := c.initVector(init)
	if err != nil {
		return nil, nil, err
	}
	var rec func(state int, prob float64, prefix []float64)
	rec = func(state int, prob float64, prefix []float64) {
		if len(prefix) == n {
			seqs = append(seqs, append([]float64(nil), prefix...))
			probs = append(probs, prob)
			return
		}
		for j, t := range c.rows[state] {
			if t == 0 {
				continue
			}
			rec(j, prob*t, append(prefix, c.states[j]))
		}
	}
	for i, p := range vec {
		if p == 0 {
			continue
		}
		rec(i, p, []float64{c.states[i]})
	}
	return seqs, probs, nil
}
