package plan

import "strings"

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

// CompareSignature returns strings.Compare(a.Signature(), b.Signature())
// without building either string: it walks both trees in lock-step, token
// by token, and stops at the first differing byte. It allocates nothing.
// Whenever both walks stand at the start of the same *Node the subtree is
// skipped on both sides — two join candidates over one shared left input
// differ only from the method on — and two joins over the same two inputs
// are decided by their method names before any walk starts. Like Signature
// it requires well-formed trees (no nil children).
func CompareSignature(a, b *Node) int {
	if a == b {
		return 0
	}
	if a.Kind == KindJoin && b.Kind == KindJoin && a.Left == b.Left && a.Right == b.Right {
		// The commonest tie: one pair of inputs joined by two methods that
		// cost the same (everything fits in memory). The signatures are
		// "(" L " " method " " R ")" and no method name is a prefix of
		// another, so the methods decide — before either walk's stack is
		// even zeroed.
		if a.Method == b.Method {
			return 0
		}
		return strings.Compare(a.Method.String(), b.Method.String())
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
