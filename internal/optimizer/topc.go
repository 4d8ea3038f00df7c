package optimizer

import (
	"sort"

	"lecopt/internal/plan"
)

// TopCCombine implements the Proposition 3.1 frontier. Given two lists of
// candidate scores, each sorted ascending, the combined plan (i, k) costs
// left[i] + right[k] (plus a constant that cancels), and (i, k) is
// dominated by every (i', k') with i' ≤ i, k' ≤ k. The proposition shows
// the true top-c combinations all satisfy (i+1)·(k+1) ≤ c (1-based ranks),
// so at most c + c·ln c pairs need probing.
//
// Returns the top-c pairs as index tuples ordered by combined score (ties
// by (k, i) for determinism), and the number of pairs probed.
func TopCCombine(left, right []float64, c int) (pairs [][2]int, probes int) {
	if c <= 0 || len(left) == 0 || len(right) == 0 {
		return nil, 0
	}
	type cand struct {
		score float64
		i, k  int
	}
	var cands []cand
	for k := 0; k < len(right) && k < c; k++ {
		// 1-based ranks: probe i while (i+1)(k+1) ≤ c.
		iMax := c/(k+1) - 1
		if iMax >= len(left) {
			iMax = len(left) - 1
		}
		for i := 0; i <= iMax; i++ {
			cands = append(cands, cand{left[i] + right[k], i, k})
			probes++
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score < cands[b].score
		}
		if cands[a].k != cands[b].k {
			return cands[a].k < cands[b].k
		}
		return cands[a].i < cands[b].i
	})
	if len(cands) > c {
		cands = cands[:c]
	}
	pairs = make([][2]int, len(cands))
	for idx, cd := range cands {
		pairs[idx] = [2]int{cd.i, cd.k}
	}
	return pairs, probes
}

// topList is an ascending list of entries, bounded at the top-c DP's c.
type topList struct{ entries []entry }

// add inserts e keeping the list sorted ascending by score (signature
// tie-break) and bounded at c. Duplicate signatures keep the cheaper.
// With duplicates merged the order is a strict total order, so inserting
// at the sorted position yields exactly the list a full re-sort would.
func (l *topList) add(e entry, c int) {
	if !l.admits(e.score, c) {
		return
	}
	n := len(l.entries)
	pos := n // first entry e sorts before
	for i := range l.entries {
		cur := &l.entries[i]
		cmp := plan.CompareSignature(e.node, cur.node)
		if cmp == 0 {
			if e.score < cur.score {
				// The cheaper duplicate takes over: cur leaves, e enters at
				// pos (≤ i, since e already sorts before cur).
				pos = min(pos, i)
				copy(l.entries[pos+1:i+1], l.entries[pos:i])
				l.entries[pos] = e
			}
			return
		}
		if pos == n && (e.score < cur.score || e.score == cur.score && cmp < 0) {
			pos = i
		}
	}
	if n < c {
		l.entries = append(l.entries, entry{})
	} else if pos == n {
		return
	}
	copy(l.entries[pos+1:], l.entries[pos:])
	l.entries[pos] = e
}

// admits reports whether an entry at score could enter the list: a full
// list turns away anything strictly worse than its last entry, duplicate
// or not. dpTopC asks before it builds the entry's plan node.
func (l *topList) admits(score float64, c int) bool {
	n := len(l.entries)
	return n < c || !(score > l.entries[n-1].score)
}

// scores returns the ascending score slice (for TopCCombine).
func (l *topList) scores() []float64 {
	out := make([]float64, len(l.entries))
	for i, e := range l.entries {
		out[i] = e.score
	}
	return out
}
