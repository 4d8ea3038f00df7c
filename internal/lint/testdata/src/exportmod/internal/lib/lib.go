// Package lib is the exportuse fixture's library: an export no other
// package names is a finding unless it is a root-aliased type's method, an
// interface method, or a type a used export hands out.
package lib

// Used is named by the root package. True negative.
func Used() Result { return Result{} }

// Result is named only in Used's signature. True negative.
type Result struct {
	// Detail is an exported field of a type a used export hands out, so
	// Detail stays exported too.
	Detail Detail
	hidden Hidden
}

// Detail is named only by Result's exported field. True negative.
type Detail struct{ N int }

// Hidden is named only by Result's unexported field.
type Hidden struct{} // want `Hidden is exported but named by no other package`

// Sum is a method nothing outside the package calls.
func (r Result) Sum() int { return r.Detail.N } // want `method Result.Sum is exported but named by no other package`

// TestOnly is named only by another package's test. True negative.
func TestOnly() int { return 1 }

// Unused is named by no other package.
func Unused() {} // want `Unused is exported but named by no other package`

// UnusedVar is named by no other package.
var UnusedVar = 1 // want `UnusedVar is exported but named by no other package`

// UnusedConst is named by no other package.
const UnusedConst = 2 // want `UnusedConst is exported but named by no other package`

// shape is called through an interface by total.
type shape interface{ Area() float64 }

type square struct{ side float64 }

// Area implements shape, called only through it. True negative.
func (s square) Area() float64 { return s.side * s.side }

func total(shapes []shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

var _ = total([]shape{square{1}})

type kind int

// String implements fmt.Stringer. True negative.
func (k kind) String() string { return "kind" }

// Handle is aliased by the root package.
type Handle struct{ n int }

// Exported is root API through the alias, though nothing names it. True
// negative.
func (h *Handle) Exported() int { return h.n }

// Allowed is named by no other package, and its finding is waived.
//
//leclint:allow exportuse -- fixture: a waived finding
func Allowed() {}
