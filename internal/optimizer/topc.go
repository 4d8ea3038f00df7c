package optimizer

import (
	"slices"

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
	l, r := make([]entry, len(left)), make([]entry, len(right))
	for i, s := range left {
		l[i].score = s
	}
	for k, s := range right {
		r[k].score = s
	}
	top, probes := frontier(nil, l, r, c)
	for _, p := range top {
		pairs = append(pairs, [2]int{p.i, p.k})
	}
	return pairs, probes
}

// topPair is one probed combination of the frontier.
type topPair struct {
	score float64
	i, k  int
}

// frontier is TopCCombine over two entry lists, reusing buf (pass buf[:0])
// for the probed pairs: the top-c pairs come back as buf's prefix.
func frontier(buf []topPair, left, right []entry, c int) ([]topPair, int) {
	if c <= 0 || len(left) == 0 || len(right) == 0 {
		return buf, 0
	}
	probes := 0
	for k := 0; k < len(right) && k < c; k++ {
		// 1-based ranks: probe i while (i+1)(k+1) ≤ c.
		iMax := min(c/(k+1)-1, len(left)-1)
		for i := 0; i <= iMax; i++ {
			buf = append(buf, topPair{left[i].score + right[k].score, i, k})
			probes++
		}
	}
	// (score, k, i) is a strict order, so any sort leaves the same list.
	slices.SortFunc(buf, func(a, b topPair) int {
		switch {
		case a.score != b.score:
			if a.score < b.score {
				return -1
			}
			return 1
		case a.k != b.k:
			return a.k - b.k
		}
		return a.i - b.i
	})
	return buf[:min(len(buf), c)], probes
}

// topList is an ascending list of entries, bounded at the top-c DP's c. In
// the kernel it is a view of one table cell, with capacity c.
type topList struct{ entries []entry }

// add inserts e keeping the list sorted ascending by score (signature
// tie-break, by) and bounded at c. Duplicate signatures keep the cheaper; a
// full list turns away anything strictly worse than its last entry,
// duplicate or not. With duplicates merged the order is a strict total
// order, so inserting at the sorted position yields exactly the list a
// full re-sort would.
func (l *topList) add(e entry, c int, by sigOrder) {
	n := len(l.entries)
	pos := n // first entry e sorts before
	for i := range l.entries {
		cur := &l.entries[i]
		cmp := by.compare(&e, cur)
		if cmp == 0 {
			if !(e.score < cur.score) {
				return
			}
			// The cheaper duplicate takes over: cur leaves, e enters at
			// pos (≤ i, since e already sorts before cur).
			pos = min(pos, i)
			copy(l.entries[pos+1:i+1], l.entries[pos:i])
			l.entries[pos] = e
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

// sigOrder breaks score ties between the entries of one pass: compare is
// compareTrees of the two entries' plans, and better the order of the
// package's better, without building either plan. The table holds the
// entries' left inputs.
type sigOrder struct {
	c  *ctx
	sc *dpScratch
}

// better reports whether a beats b: a strictly lower score, or on a tie
// the lower signature.
func (o sigOrder) better(a, b *entry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return o.compare(a, b) < 0
}

// compare returns compareTrees of a's and b's plans. It walks the two
// chains of left inputs in lock-step, down to a left input both share or
// to their leaves, and hands plan the joins met on the way
// (plan.CompareLeftDeep); a pair that plan cannot settle so is laid out as
// two trees (layOut).
func (o sigOrder) compare(a, b *entry) int {
	sc := o.sc
	x, y, k := a, b, 0
	for x.op.join() && y.op.join() {
		sc.methods[0][k], sc.rights[0][k] = x.op.method(), o.c.scan(x)
		sc.methods[1][k], sc.rights[1][k] = y.op.method(), o.c.scan(y)
		k++
		if x.left == y.left {
			break
		}
		x, y = &sc.ents[x.left], &sc.ents[y.left]
	}
	var la, lb *plan.Node // nil below a left input both chains share
	if !x.op.join() && !y.op.join() {
		la, lb = o.c.scan(x), o.c.scan(y)
	}
	if x.op.join() == y.op.join() {
		if c, ok := plan.CompareLeftDeep(o.sortOf(a), o.sortOf(b), la, lb,
			sc.methods[0][:k], sc.methods[1][:k], sc.rights[0][:k], sc.rights[1][:k]); ok {
			return c
		}
	}
	return compareTrees(o.layOut(a), o.layOut(b))
}

// sortOf is the order of the root sort e carries, nil for none.
func (o sigOrder) sortOf(e *entry) *plan.Order {
	if e.op.sorted() {
		return &o.c.required
	}
	return nil
}

// layOut lays e's plan out in the scratch's trees as its signature reads
// it — the root sort where e carries one, then its joins top down, each
// join's right input and the leftmost leaf the context's access paths —
// and returns its root.
func (o sigOrder) layOut(e *entry) *plan.Node {
	size := 0
	if e.op.sorted() {
		size++
	}
	for x := e; x.op.join(); x = &o.sc.ents[x.left] {
		size++
	}
	nodes := o.sc.block(size, 2*size)
	var root *plan.Node
	link := &root
	if e.op.sorted() {
		nodes[0] = plan.Node{Kind: plan.KindSort, OutOrder: o.c.required}
		*link, link, nodes = &nodes[0], &nodes[0].Child, nodes[1:]
	}
	for i := 0; e.op.join(); i, e = i+1, &o.sc.ents[e.left] {
		nodes[i] = plan.Node{Kind: plan.KindJoin, Method: e.op.method(), Right: o.c.scan(e)}
		*link, link = &nodes[i], &nodes[i].Left
	}
	*link = o.c.scan(e)
	return root
}
