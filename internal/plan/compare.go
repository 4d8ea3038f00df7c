package plan

import (
	"strings"

	"lecopt/internal/cost"
)

// sigMaxDepth bounds the comparator's explicit stack. A left-deep plan over
// query.MaxTables (24) relations under a root sort nests 25 deep; anything
// deeper falls back to comparing the built strings.
const sigMaxDepth = 32

// sigFrame is one pending node of a signature walk: stage counts the
// tokens of n already emitted.
type sigFrame struct {
	n     *Node
	stage uint8
}

// sigWalk yields a plan's Signature() as a sequence of string tokens
// without building it. The stack is an array addressed by index: a slice
// into it would make the walk escape to the heap on every comparison.
type sigWalk struct {
	stack    [sigMaxDepth]sigFrame
	sp       int
	overflow bool
}

func (w *sigWalk) push(n *Node) {
	if w.sp == sigMaxDepth {
		w.overflow = true
		return
	}
	w.stack[w.sp] = sigFrame{n: n}
	w.sp++
}

// next returns the walk's next token (possibly empty) and whether there was
// one. Token order mirrors Signature's rec exactly.
func (w *sigWalk) next() (string, bool) {
	for w.sp > 0 && !w.overflow {
		f := &w.stack[w.sp-1]
		n, stage := f.n, f.stage
		f.stage++
		switch n.Kind {
		case KindScan:
			switch stage {
			case 0:
				if n.Access != AccessIndex {
					w.sp--
				}
				return n.Table, true
			case 1:
				return "[ix:", true
			case 2:
				return n.Index, true
			default:
				w.sp--
				return "]", true
			}
		case KindJoin:
			switch stage {
			case 0:
				w.push(n.Left)
				return "(", true
			case 1:
				return " ", true
			case 2:
				return n.Method.String(), true
			case 3:
				w.push(n.Right)
				return " ", true
			default:
				w.sp--
				return ")", true
			}
		case KindSort:
			switch stage {
			case 0:
				return "sort<", true
			case 1:
				if n.OutOrder.IsNone() {
					f.stage = 4
					return "none", true
				}
				return n.OutOrder.Table, true
			case 2:
				return ".", true
			case 3:
				return n.OutOrder.Column, true
			case 4:
				w.push(n.Child)
				return ">(", true
			default:
				w.sp--
				return ")", true
			}
		default:
			w.sp-- // Signature renders unknown kinds as nothing
		}
	}
	return "", false
}

// atSubtree returns the node the walk is about to render from its first
// byte, or nil when it is mid-node or finished.
func (w *sigWalk) atSubtree() *Node {
	if w.sp == 0 || w.stack[w.sp-1].stage != 0 {
		return nil
	}
	return w.stack[w.sp-1].n
}

// compareSignature returns strings.Compare(a.Signature(), b.Signature())
// without building either string. It allocates nothing. It first compares
// the trees structurally (cmpTree), which settles every pair whose
// signatures first differ inside a name both trees render at the same
// place — the optimizer's ties between left-deep candidates of one subset
// are such pairs. A shared *Node is skipped on both sides. Whatever that
// cannot settle is walked token by token in lock-step to the first
// differing byte. Like Signature it requires well-formed trees (no nil
// children).
func compareSignature(a, b *Node) int {
	if c, ok := cmpTree(a, b, endOfSig); ok {
		return c
	}
	var wa, wb sigWalk
	wa.push(a)
	wb.push(b)
	var ta, tb string
	for {
		if ta == "" && tb == "" {
			for n := wa.atSubtree(); n != nil && n == wb.atSubtree(); n = wa.atSubtree() {
				wa.sp--
				wb.sp--
			}
		}
		moreA, moreB := true, true
		for ta == "" && moreA {
			ta, moreA = wa.next()
		}
		for tb == "" && moreB {
			tb, moreB = wb.next()
		}
		if wa.overflow || wb.overflow {
			return strings.Compare(a.Signature(), b.Signature())
		}
		if !moreA || !moreB {
			// A finished walk is a prefix of the other (or equal to it).
			switch {
			case moreA:
				return 1
			case moreB:
				return -1
			}
			return 0
		}
		k := min(len(ta), len(tb))
		if c := strings.Compare(ta[:k], tb[:k]); c != 0 {
			return c
		}
		ta, tb = ta[k:], tb[k:]
	}
}

// CompareLeftDeep returns strings.Compare of the signatures of two plans
// given by their parts, and whether it could tell, building neither
// rendering. Each plan is a root sort by *sa (*sb) — none where that is
// nil — over joins listed top down: the i-th join from the top joins right
// input ra[i] (rb[i]) by method ma[i] (mb[i]) onto the plan below it, and
// below the lowest listed join lies the tree la (lb). Plans given whole —
// no root sort and no join listed — are always told: la and lb are
// compared as trees, walked to the first differing byte where their
// structure cannot settle it. Otherwise la and lb may be one node, or both
// nil, for one subplan both plans share, which is skipped; and it reports
// false where the plans differ in their root sort or in how many joins are
// listed, or where they first differ past a rendering that ends early
// (cmpTree), and the caller then compares the plans whole. It allocates
// nothing.
func CompareLeftDeep(sa, sb *Order, la, lb *Node, ma, mb []cost.JoinMethod, ra, rb []*Node) (int, bool) {
	if sa == nil && sb == nil && len(ma) == 0 && len(mb) == 0 {
		return compareSignature(la, lb), true
	}
	if (sa == nil) != (sb == nil) || len(ma) != len(mb) || len(ra) != len(ma) || len(rb) != len(mb) {
		return 0, false
	}
	next := endOfSig
	if sa != nil {
		// "sort<" order ">(" plan ")"
		if c, ok := cmpParts(orderParts(*sa), orderParts(*sb), '>'); !ok || c != 0 {
			return c, ok
		}
		next = ')'
	}
	// "(" per join, the leaf, then bottom up " " method " " right ")".
	if len(ma) > 0 {
		next = ' '
	}
	if c, ok := cmpTree(la, lb, next); !ok || c != 0 {
		return c, ok
	}
	for i := len(ma) - 1; i >= 0; i-- {
		if ma[i] != mb[i] {
			return strings.Compare(ma[i].String(), mb[i].String()), true
		}
		if c, ok := cmpTree(ra[i], rb[i], ')'); !ok || c != 0 {
			return c, ok
		}
	}
	return 0, true
}

// endOfSig is cmpTree's next byte for a whole signature: nothing follows.
const endOfSig = -1

// cmpTree compares the signatures of a and b in their place inside two
// larger signatures that go on with the same byte next (endOfSig at the
// top). It reports the comparison and true when the first differing byte
// lies inside both renderings, or where one rendering ends and the other
// goes on, since next is then the byte it is compared with; the renderings
// are equal when it returns 0 and true. It reports false — leaving the
// pair to the walk — when the two trees differ in kind, or when a
// rendering that ends early is followed by the very byte the other goes on
// with, so that the difference lies past it. Nodes of one kind render as
// the same delimiters around their names and children, so comparing them
// part by part, children in place, compares the strings.
func cmpTree(a, b *Node, next int) (int, bool) {
	if a == b {
		return 0, true
	}
	if a.Kind != b.Kind {
		return 0, false
	}
	switch a.Kind {
	case KindScan:
		return cmpParts(scanParts(a), scanParts(b), next)
	case KindJoin:
		// "(" L " " method " " R ")"
		if c, ok := cmpTree(a.Left, b.Left, ' '); !ok || c != 0 {
			return c, ok
		}
		if a.Method != b.Method {
			// No method name is a prefix of another (a fallback name ends
			// in its only ")"), so two names differ inside both.
			return strings.Compare(a.Method.String(), b.Method.String()), true
		}
		return cmpTree(a.Right, b.Right, ')')
	case KindSort:
		// "sort<" order ">(" child ")"
		if c, ok := cmpParts(orderParts(a.OutOrder), orderParts(b.OutOrder), '>'); !ok || c != 0 {
			return c, ok
		}
		return cmpTree(a.Child, b.Child, ')')
	}
	return 0, false
}

// scanParts is a scan's rendering as Signature writes it, in pieces.
func scanParts(n *Node) [4]string {
	if n.Access == AccessIndex {
		return [4]string{n.Table, "[ix:", n.Index, "]"}
	}
	return [4]string{n.Table}
}

// orderParts is an order property's rendering inside a sort's signature.
func orderParts(o Order) [4]string {
	if o.IsNone() {
		return [4]string{"none"}
	}
	return [4]string{o.Table, ".", o.Column}
}

// cmpParts compares the concatenations of pa and pb, each followed by the
// byte next, as cmpTree reports.
func cmpParts(pa, pb [4]string, next int) (int, bool) {
	var sa, sb string
	i, j := 0, 0
	for {
		for sa == "" && i < len(pa) {
			sa, i = pa[i], i+1
		}
		for sb == "" && j < len(pb) {
			sb, j = pb[j], j+1
		}
		switch {
		case sa == "" && sb == "":
			return 0, true
		case sa == "":
			return cmpNext(next, sb[0])
		case sb == "":
			c, ok := cmpNext(next, sa[0])
			return -c, ok
		}
		k := min(len(sa), len(sb))
		if c := strings.Compare(sa[:k], sb[:k]); c != 0 {
			return c, true
		}
		sa, sb = sa[k:], sb[k:]
	}
}

// cmpNext compares the byte next, which follows a rendering that has
// ended, with the byte x the other rendering goes on with.
func cmpNext(next int, x byte) (int, bool) {
	switch {
	case next == endOfSig || next < int(x):
		return -1, true
	case next > int(x):
		return 1, true
	}
	return 0, false
}
