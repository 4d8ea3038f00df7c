// Package plan defines physical query evaluation plans: left-deep trees of
// scans, binary joins and sorts, annotated with estimated output sizes and
// order properties, and the phase structure of Section 3.5 (a left-deep
// plan over n relations executes in n-1 join phases; memory may change
// between phases but not within one). Plans are priced by the optimizer's
// evaluator; the only cost a plan knows itself is its scans' access I/O.
package plan

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"lecopt/internal/cost"
)

// Kind discriminates plan node types.
type Kind uint8

// Node kinds.
const (
	KindScan Kind = iota
	KindJoin
	KindSort
)

func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindJoin:
		return "join"
	case KindSort:
		return "sort"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access identifies how a scan reads its table.
type Access uint8

// Access methods.
const (
	AccessHeap Access = iota
	AccessIndex
)

func (a Access) String() string {
	if a == AccessIndex {
		return "index"
	}
	return "heap"
}

// Order is an output order property: sorted ascending on Table.Column.
// The zero value means "no particular order".
type Order struct {
	Table  string
	Column string
}

// IsNone reports whether no order is guaranteed.
func (o Order) IsNone() bool { return o == Order{} }

func (o Order) String() string {
	if o.IsNone() {
		return "none"
	}
	return o.Table + "." + o.Column
}

// ScanPred is a compiled single-column range predicate pushed into a scan
// — the executable form of the query's local filters on one table, carried
// on the plan so the execution engine can evaluate the access path (walk
// an index range, or filter a heap scan) without re-deriving predicates
// from the query block. The optimizer sets it on every access candidate of
// a table whose filters all target one column; multi-column filter sets
// stay estimation-only (Pred nil) and the engine executes the unfiltered
// physical shape, as before.
type ScanPred struct {
	Column string
	// Lo/Hi bound the qualifying values; Has* report whether each bound
	// exists and *Open whether it is exclusive.
	Lo, Hi         float64
	HasLo, HasHi   bool
	LoOpen, HiOpen bool
}

// Match reports whether a value satisfies the predicate.
func (p *ScanPred) Match(v float64) bool {
	if p == nil {
		return true
	}
	if p.HasLo && (v < p.Lo || (p.LoOpen && v == p.Lo)) {
		return false
	}
	if p.HasHi && (v > p.Hi || (p.HiOpen && v == p.Hi)) {
		return false
	}
	return true
}

// KeyRange returns the predicate as an inclusive integer key interval —
// the form an index walk over int64 keys consumes. A nil predicate is the
// full range.
func (p *ScanPred) KeyRange() (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if p == nil {
		return lo, hi
	}
	if p.HasLo {
		l := math.Ceil(p.Lo)
		if p.LoOpen && l == p.Lo {
			l++
		}
		lo = int64(l)
	}
	if p.HasHi {
		h := math.Floor(p.Hi)
		if p.HiOpen && h == p.Hi {
			h--
		}
		hi = int64(h)
	}
	return lo, hi
}

// Node is one operator of a physical plan. A single struct with a Kind
// discriminator keeps tree surgery, printing and signatures simple.
type Node struct {
	Kind Kind

	// Scan fields.
	Table  string
	Access Access
	Index  string    // index name when Access == AccessIndex
	Sel    float64   // local-filter selectivity applied during the scan
	Pred   *ScanPred // compiled filter range, when the filters admit one

	// Join fields.
	Method      cost.JoinMethod
	Left, Right *Node

	// Sort: Child is the input (also used for rendering uniformity).
	Child *Node

	// Annotations shared by all kinds.
	OutPages float64 // estimated output size in pages (point estimate)
	OutOrder Order   // order property of the output
	IO       float64 // this node's own estimated I/O at annotation time
}

// Errors from plan validation.
var (
	ErrNilNode   = errors.New("plan: nil node")
	ErrShape     = errors.New("plan: malformed tree")
	ErrNotLeft   = errors.New("plan: not left-deep")
	ErrWrongKind = errors.New("plan: operation on wrong node kind")
)

// NewScan builds a scan leaf. outPages is the size after applying local
// filters (the paper's |A_j| "after any initial selection").
func NewScan(table string, access Access, index string, sel, outPages float64) *Node {
	return &Node{
		Kind:     KindScan,
		Table:    table,
		Access:   access,
		Index:    index,
		Sel:      sel,
		OutPages: outPages,
	}
}

// NewJoin builds a join node over two subtrees.
func NewJoin(method cost.JoinMethod, left, right *Node, outPages float64, order Order) *Node {
	return &Node{
		Kind:     KindJoin,
		Method:   method,
		Left:     left,
		Right:    right,
		OutPages: outPages,
		OutOrder: order,
	}
}

// NewSort builds an explicit sort enforcer above child.
func NewSort(child *Node, order Order) *Node {
	return &Node{
		Kind:     KindSort,
		Child:    child,
		OutPages: child.OutPages,
		OutOrder: order,
	}
}

// Validate checks structural sanity: children present per kind, no nils.
func (n *Node) Validate() error {
	if n == nil {
		return ErrNilNode
	}
	switch n.Kind {
	case KindScan:
		if n.Table == "" {
			return fmt.Errorf("%w: scan without table", ErrShape)
		}
		if n.Left != nil || n.Right != nil || n.Child != nil {
			return fmt.Errorf("%w: scan with children", ErrShape)
		}
	case KindJoin:
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("%w: join missing input", ErrShape)
		}
		if err := n.Left.Validate(); err != nil {
			return err
		}
		return n.Right.Validate()
	case KindSort:
		if n.Child == nil {
			return fmt.Errorf("%w: sort without child", ErrShape)
		}
		return n.Child.Validate()
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrShape, n.Kind)
	}
	return nil
}

// IsLeftDeep reports whether every join's right input is a scan (the
// System R plan space the paper works in). Sort enforcers are transparent.
func (n *Node) IsLeftDeep() bool {
	switch n.Kind {
	case KindScan:
		return true
	case KindSort:
		return n.Child.IsLeftDeep()
	case KindJoin:
		r := n.Right
		for r.Kind == KindSort {
			r = r.Child
		}
		if r.Kind != KindScan {
			return false
		}
		return n.Left.IsLeftDeep()
	default:
		return false
	}
}

// Relations returns the base tables referenced, left to right.
func (n *Node) Relations() []string {
	var out []string
	n.Walk(func(m *Node) {
		if m.Kind == KindScan {
			out = append(out, m.Table)
		}
	})
	return out
}

// Walk visits the tree in post-order (children before parents).
func (n *Node) Walk(f func(*Node)) {
	if n == nil {
		return
	}
	n.Left.Walk(f)
	n.Right.Walk(f)
	n.Child.Walk(f)
	f(n)
}

// Joins counts the join nodes in the tree.
func (n *Node) Joins() int {
	c := 0
	n.Walk(func(m *Node) {
		if m.Kind == KindJoin {
			c++
		}
	})
	return c
}

// Phases returns the number of execution phases per the paper's model:
// one per join (n-1 for n relations), with a minimum of one phase so
// single-table plans still consume a memory value.
func (n *Node) Phases() int {
	j := n.Joins()
	if j == 0 {
		return 1
	}
	return j
}

// Materialized reports whether a scan produces a new temporary relation
// the engine pays to build — an index scan or a filtered heap scan. An
// unfiltered heap scan is handed to its consumer as-is: the consuming
// operator's own formula pays the base read, so charging the scan too
// would double-count it.
func (n *Node) Materialized() bool {
	return n.Kind == KindScan && (n.Access == AccessIndex || n.Pred != nil)
}

// AccessIO returns the access cost recorded on a scan leaf. Index scans
// store their full cost in IO at construction time by the optimizer; heap
// scans cost their base pages. A scan with explicit IO annotation uses it.
func (n *Node) AccessIO() float64 {
	if n.IO > 0 {
		return n.IO
	}
	return cost.ScanIO(n.BasePages())
}

// BasePages returns the pages read by a heap scan: output pages divided by
// the filter selectivity (filters reduce output, not input).
func (n *Node) BasePages() float64 {
	if n.Sel > 0 && n.Sel < 1 {
		return n.OutPages / n.Sel
	}
	return n.OutPages
}

// Signature returns a canonical, order-sensitive description of the plan's
// physical structure, used for deduplication across optimizer runs.
func (n *Node) Signature() string {
	var b strings.Builder
	var rec func(m *Node)
	rec = func(m *Node) {
		switch m.Kind {
		case KindScan:
			b.WriteString(m.Table)
			if m.Access == AccessIndex {
				b.WriteString("[ix:")
				b.WriteString(m.Index)
				b.WriteString("]")
			}
		case KindJoin:
			b.WriteString("(")
			rec(m.Left)
			b.WriteString(" ")
			b.WriteString(m.Method.String())
			b.WriteString(" ")
			rec(m.Right)
			b.WriteString(")")
		case KindSort:
			b.WriteString("sort<")
			b.WriteString(m.OutOrder.String())
			b.WriteString(">(")
			rec(m.Child)
			b.WriteString(")")
		}
	}
	rec(n)
	return b.String()
}

// String renders an indented operator tree.
func (n *Node) String() string {
	var b strings.Builder
	var rec func(m *Node, depth int)
	rec = func(m *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		switch m.Kind {
		case KindScan:
			fmt.Fprintf(&b, "Scan(%s, %s", m.Table, m.Access)
			if m.Access == AccessIndex {
				fmt.Fprintf(&b, ":%s", m.Index)
			}
			fmt.Fprintf(&b, ") out=%.4g pages", m.OutPages)
		case KindJoin:
			fmt.Fprintf(&b, "Join[%s] out=%.4g pages order=%s", m.Method, m.OutPages, m.OutOrder)
		case KindSort:
			fmt.Fprintf(&b, "Sort[%s] out=%.4g pages", m.OutOrder, m.OutPages)
		}
		b.WriteByte('\n')
		if m.Left != nil {
			rec(m.Left, depth+1)
		}
		if m.Right != nil {
			rec(m.Right, depth+1)
		}
		if m.Child != nil {
			rec(m.Child, depth+1)
		}
	}
	rec(n, 0)
	return strings.TrimRight(b.String(), "\n")
}

// Clone returns a deep copy.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	out := *n
	if n.Pred != nil {
		p := *n.Pred
		out.Pred = &p
	}
	out.Left = n.Left.Clone()
	out.Right = n.Right.Clone()
	out.Child = n.Child.Clone()
	return &out
}
