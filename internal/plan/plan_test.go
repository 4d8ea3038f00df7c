package plan

import (
	"errors"
	"strings"
	"testing"

	"lecopt/internal/cost"
)

// twoWay builds Join(method, Scan(a), Scan(b)) with given page sizes.
func twoWay(method cost.JoinMethod, aPages, bPages, outPages float64) *Node {
	a := NewScan("a", AccessHeap, "", 1, aPages)
	b := NewScan("b", AccessHeap, "", 1, bPages)
	var ord Order
	if method.OrdersOutput() {
		ord = Order{Table: "a", Column: "k"}
	}
	return NewJoin(method, a, b, outPages, ord)
}

func TestValidate(t *testing.T) {
	var nilNode *Node
	if err := nilNode.Validate(); !errors.Is(err, ErrNilNode) {
		t.Fatal("nil should fail")
	}
	if err := (&Node{Kind: KindScan}).Validate(); !errors.Is(err, ErrShape) {
		t.Fatal("scan without table should fail")
	}
	bad := NewScan("a", AccessHeap, "", 1, 10)
	bad.Child = NewScan("b", AccessHeap, "", 1, 10)
	if err := bad.Validate(); !errors.Is(err, ErrShape) {
		t.Fatal("scan with child should fail")
	}
	if err := (&Node{Kind: KindJoin}).Validate(); !errors.Is(err, ErrShape) {
		t.Fatal("join without inputs should fail")
	}
	if err := (&Node{Kind: KindSort}).Validate(); !errors.Is(err, ErrShape) {
		t.Fatal("sort without child should fail")
	}
	if err := (&Node{Kind: Kind(9), Table: "x"}).Validate(); !errors.Is(err, ErrShape) {
		t.Fatal("unknown kind should fail")
	}
	good := twoWay(cost.SortMerge, 100, 40, 10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsLeftDeep(t *testing.T) {
	j2 := twoWay(cost.GraceHash, 100, 40, 10)
	if !j2.IsLeftDeep() {
		t.Fatal("two-way join is left-deep")
	}
	c := NewScan("c", AccessHeap, "", 1, 5)
	j3 := NewJoin(cost.PageNL, j2, c, 3, Order{})
	if !j3.IsLeftDeep() {
		t.Fatal("left-deep three-way")
	}
	bushy := NewJoin(cost.PageNL, j2, twoWay(cost.PageNL, 7, 8, 2), 1, Order{})
	if bushy.IsLeftDeep() {
		t.Fatal("bushy plan misclassified")
	}
	sorted := NewSort(j3, Order{"a", "k"})
	if !sorted.IsLeftDeep() {
		t.Fatal("sort on top preserves left-deep")
	}
	// Sort wrapping the right scan input stays left-deep.
	j := NewJoin(cost.SortMerge, j2, NewSort(c, Order{"c", "k"}), 2, Order{})
	if !j.IsLeftDeep() {
		t.Fatal("sorted right scan input is still left-deep")
	}
}

func TestRelationsJoinsPhases(t *testing.T) {
	j2 := twoWay(cost.SortMerge, 100, 40, 10)
	c := NewScan("c", AccessHeap, "", 1, 5)
	j3 := NewJoin(cost.GraceHash, j2, c, 3, Order{})
	rel := j3.Relations()
	if len(rel) != 3 || rel[0] != "a" || rel[1] != "b" || rel[2] != "c" {
		t.Fatalf("Relations = %v", rel)
	}
	if j3.Joins() != 2 || j3.Phases() != 2 {
		t.Fatalf("Joins=%d Phases=%d", j3.Joins(), j3.Phases())
	}
	scan := NewScan("a", AccessHeap, "", 1, 10)
	if scan.Phases() != 1 {
		t.Fatal("bare scan is one phase")
	}
}

func TestSignatureAndString(t *testing.T) {
	j2 := twoWay(cost.SortMerge, 100, 40, 10)
	sig := j2.Signature()
	if sig != "(a sort-merge b)" {
		t.Fatalf("Signature = %q", sig)
	}
	c := NewScan("c", AccessIndex, "ix_c", 0.5, 5)
	j3 := NewJoin(cost.GraceHash, j2, c, 3, Order{})
	root := NewSort(j3, Order{"a", "k"})
	sig = root.Signature()
	want := "sort<a.k>(((a sort-merge b) grace-hash c[ix:ix_c]))"
	if sig != want {
		t.Fatalf("Signature = %q, want %q", sig, want)
	}
	s := root.String()
	for _, frag := range []string{"Sort[a.k]", "Join[grace-hash]", "Scan(c, index:ix_c)", "Scan(a, heap)"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String missing %q in:\n%s", frag, s)
		}
	}
}

func TestOrderProps(t *testing.T) {
	var none Order
	if !none.IsNone() || none.String() != "none" {
		t.Fatal("zero order")
	}
	o := Order{"a", "k"}
	if o.IsNone() || o.String() != "a.k" {
		t.Fatal("order string")
	}
}

func TestCloneIsDeep(t *testing.T) {
	j2 := twoWay(cost.SortMerge, 100, 40, 10)
	c := j2.Clone()
	c.Left.Table = "zz"
	c.Method = cost.PageNL
	if j2.Left.Table != "a" || j2.Method != cost.SortMerge {
		t.Fatal("clone aliased original")
	}
	var nilNode *Node
	if nilNode.Clone() != nil {
		t.Fatal("nil clone")
	}
}

func TestKindAndAccessStrings(t *testing.T) {
	if KindScan.String() != "scan" || KindJoin.String() != "join" || KindSort.String() != "sort" {
		t.Fatal("kind strings")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind string")
	}
	if AccessHeap.String() != "heap" || AccessIndex.String() != "index" {
		t.Fatal("access strings")
	}
}
