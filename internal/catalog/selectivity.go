package catalog

import (
	"fmt"
	"math"

	"lecopt/internal/dist"
)

// CmpOp is a comparison operator in a local filter predicate.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// FilterSelectivity estimates the fraction of rows of table.column
// satisfying "column op value" with System R's classical defaults:
// 1/distinct for equality, linear interpolation over [min,max] for ranges.
func (c *Catalog) FilterSelectivity(table, column string, op CmpOp, value float64) (float64, error) {
	t, err := c.Table(table)
	if err != nil {
		return 0, err
	}
	col, err := t.Column(column)
	if err != nil {
		return 0, err
	}
	switch op {
	case OpEq:
		return clampSel(1 / col.Distinct), nil
	case OpLt, OpLe:
		return clampSel(rangeFrac(col, value)), nil
	case OpGt, OpGe:
		return clampSel(1 - rangeFrac(col, value)), nil
	}
	return 0, fmt.Errorf("%w: unknown op %v", ErrBadStats, op)
}

func rangeFrac(col Column, v float64) float64 {
	if col.Max == col.Min {
		if v >= col.Max {
			return 1
		}
		return 0
	}
	return (v - col.Min) / (col.Max - col.Min)
}

func clampSel(s float64) float64 {
	if math.IsNaN(s) || s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// JoinRowSelectivity estimates the classical row selectivity of an
// equi-join a.x = b.y: 1/max(V(a.x), V(b.y)).
func (c *Catalog) JoinRowSelectivity(aTable, aCol, bTable, bCol string) (float64, error) {
	at, err := c.Table(aTable)
	if err != nil {
		return 0, err
	}
	ac, err := at.Column(aCol)
	if err != nil {
		return 0, err
	}
	bt, err := c.Table(bTable)
	if err != nil {
		return 0, err
	}
	bc, err := bt.Column(bCol)
	if err != nil {
		return 0, err
	}
	v := math.Max(ac.Distinct, bc.Distinct)
	if v < 1 {
		v = 1
	}
	return 1 / v, nil
}

// pageSelectivity converts a row selectivity for joining tables a and b
// into the paper's page-scaled selectivity σ, defined so that the join
// result occupies pagesOut = σ · pages(a) · pages(b) pages. The result
// tuple density is approximated as the max of the input densities (wide
// rows dominate page count).
func pageSelectivity(rowSel, rowsA, pagesA, rowsB, pagesB float64) float64 {
	if pagesA <= 0 || pagesB <= 0 {
		return 0
	}
	outRows := rowSel * rowsA * rowsB
	tpp := math.Max(rowsA/pagesA, rowsB/pagesB)
	if tpp <= 0 {
		return 0
	}
	outPages := outRows / tpp
	if outPages < 0 {
		return 0
	}
	return outPages / (pagesA * pagesB)
}

// JoinPageSelectivity is the catalog-level convenience composing
// JoinRowSelectivity and pageSelectivity for a.x = b.y.
func (c *Catalog) JoinPageSelectivity(aTable, aCol, bTable, bCol string) (float64, error) {
	rowSel, err := c.JoinRowSelectivity(aTable, aCol, bTable, bCol)
	if err != nil {
		return 0, err
	}
	at, _ := c.Table(aTable)
	bt, _ := c.Table(bTable)
	return pageSelectivity(rowSel, at.Rows, at.Pages, bt.Rows, bt.Pages), nil
}

// SelectivityDist wraps a point selectivity estimate in an uncertainty
// band: a three-point distribution at {s/f, s, s·f} with the given center
// probability, truncated to (0, 1]. This is how Algorithm D scenarios turn
// "notoriously uncertain" selectivity estimates (Section 3.6) into laws.
func SelectivityDist(point, factor, pCenter float64) (dist.Dist, error) {
	if point <= 0 || point > 1 || factor < 1 || pCenter < 0 || pCenter > 1 {
		return dist.Dist{}, fmt.Errorf("%w: SelectivityDist(point=%v factor=%v pCenter=%v)",
			ErrBadStats, point, factor, pCenter)
	}
	if factor == 1 {
		return dist.Point(point), nil
	}
	lo, hi := point/factor, math.Min(point*factor, 1)
	side := (1 - pCenter) / 2
	return dist.New([]float64{lo, point, hi}, []float64{side, pCenter, side})
}
