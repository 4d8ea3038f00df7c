package catalog

import (
	"errors"
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func col(name string, distinct, min, max float64) Column {
	return Column{Name: name, Type: TypeInt, Distinct: distinct, Min: min, Max: max}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("", 10, 100); !errors.Is(err, ErrBadStats) {
		t.Fatal("empty name should fail")
	}
	if _, err := NewTable("t", 0, 100); !errors.Is(err, ErrBadStats) {
		t.Fatal("zero pages should fail")
	}
	if _, err := NewTable("t", 10, -1); !errors.Is(err, ErrBadStats) {
		t.Fatal("negative rows should fail")
	}
	if _, err := NewTable("t", 10, 100, col("a", 0, 0, 1)); !errors.Is(err, ErrBadStats) {
		t.Fatal("zero distinct should fail")
	}
	if _, err := NewTable("t", 10, 100, col("a", 5, 2, 1)); !errors.Is(err, ErrBadStats) {
		t.Fatal("max<min should fail")
	}
	if _, err := NewTable("t", 10, 100, col("a", 5, 0, 9), col("a", 5, 0, 9)); !errors.Is(err, errDupColumn) {
		t.Fatal("dup column should fail")
	}
	tab, err := NewTable("t", 10, 100, col("a", 5, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, tab.TuplesPerPage(), 10, 1e-12, "tpp")
	if _, err := tab.Column("missing"); !errors.Is(err, ErrNoColumn) {
		t.Fatal("missing column should fail")
	}
	if got := len(tab.Columns()); got != 1 {
		t.Fatalf("Columns len = %d", got)
	}
}

// TestNewTableRefusesNonFiniteStats: a NaN or infinite statistic in any
// field is refused with ErrBadStats, one case per field and value. Distinct
// above Rows stays legal (Example 1.1 has 1.33e10 distinct keys over 1e8
// rows).
func TestNewTableRefusesNonFiniteStats(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	type stats struct{ pages, rows, distinct, min, max float64 }
	ok := stats{10, 100, 5, 0, 9}
	for _, tc := range []struct {
		name string
		set  func(*stats)
	}{
		{"Pages NaN", func(s *stats) { s.pages = nan }},
		{"Pages +Inf", func(s *stats) { s.pages = inf }},
		{"Rows NaN", func(s *stats) { s.rows = nan }},
		{"Rows +Inf", func(s *stats) { s.rows = inf }},
		{"Distinct NaN", func(s *stats) { s.distinct = nan }},
		{"Distinct +Inf", func(s *stats) { s.distinct = inf }},
		{"Min NaN", func(s *stats) { s.min = nan }},
		{"Min -Inf", func(s *stats) { s.min = -inf }},
		{"Max NaN", func(s *stats) { s.max = nan }},
		{"Max +Inf", func(s *stats) { s.max = inf }},
	} {
		s := ok
		tc.set(&s)
		if _, err := NewTable("t", s.pages, s.rows, col("a", s.distinct, s.min, s.max)); !errors.Is(err, ErrBadStats) {
			t.Errorf("%s: err = %v, want ErrBadStats", tc.name, err)
		}
	}
	if _, err := NewTable("t", ok.pages, ok.rows, col("a", 1.33e10, ok.min, ok.max)); err != nil {
		t.Fatalf("Distinct > Rows: %v", err)
	}
}

func TestCatalogTablesAndIndexes(t *testing.T) {
	c := New()
	a := MustTable("a", 100, 1000, col("x", 100, 0, 999))
	if err := c.AddTable(a); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(a); !errors.Is(err, errDupTable) {
		t.Fatal("dup table should fail")
	}
	if !c.HasTable("a") || c.HasTable("zz") {
		t.Fatal("HasTable wrong")
	}
	if _, err := c.Table("zz"); !errors.Is(err, ErrNoTable) {
		t.Fatal("missing table should fail")
	}

	if err := c.AddIndex(Index{Name: "ix_ax", Table: "a", Column: "x", Height: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(Index{Name: "ix_ax", Table: "a", Column: "x"}); !errors.Is(err, errDupIndex) {
		t.Fatal("dup index should fail")
	}
	if err := c.AddIndex(Index{Name: "ix2", Table: "zz", Column: "x"}); !errors.Is(err, ErrNoTable) {
		t.Fatal("index on missing table should fail")
	}
	if err := c.AddIndex(Index{Name: "ix2", Table: "a", Column: "zz"}); !errors.Is(err, ErrNoColumn) {
		t.Fatal("index on missing column should fail")
	}
	if err := c.AddIndex(Index{Name: "ix3", Table: "a", Column: "x", Height: -1}); !errors.Is(err, ErrBadStats) {
		t.Fatal("negative height should fail")
	}
	if err := c.AddIndex(Index{Name: ""}); !errors.Is(err, ErrBadStats) {
		t.Fatal("empty index name should fail")
	}

	ix, err := c.Index("ix_ax")
	if err != nil || ix.Table != "a" {
		t.Fatalf("Index lookup: %v %v", ix, err)
	}
	if _, err := c.Index("nope"); !errors.Is(err, errNoIndex) {
		t.Fatal("missing index should fail")
	}
	if got := c.IndexesOn("a"); len(got) != 1 {
		t.Fatalf("IndexesOn = %v", got)
	}
	if _, ok := c.IndexOn("a", "x"); !ok {
		t.Fatal("IndexOn should find ix_ax")
	}
	if _, ok := c.IndexOn("a", "y"); ok {
		t.Fatal("IndexOn should miss")
	}

	b := MustTable("b", 10, 50, col("y", 10, 0, 9))
	if err := c.AddTable(b); err != nil {
		t.Fatal(err)
	}
	names := c.TableNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("TableNames = %v", names)
	}
}

func TestFilterSelectivity(t *testing.T) {
	c := New()
	tab := MustTable("t", 100, 1000, col("plain", 20, 0, 99))
	if err := c.AddTable(tab); err != nil {
		t.Fatal(err)
	}

	s, err := c.FilterSelectivity("t", "plain", OpEq, 7)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, s, 1.0/20, 1e-9, "1/distinct fallback")
	s, _ = c.FilterSelectivity("t", "plain", OpLt, 49.5)
	approx(t, s, 0.5, 1e-9, "range fallback")
	s, _ = c.FilterSelectivity("t", "plain", OpGe, -5)
	approx(t, s, 1, 1e-9, "clamped high")

	if _, err := c.FilterSelectivity("zz", "h", OpEq, 1); !errors.Is(err, ErrNoTable) {
		t.Fatal("missing table")
	}
	if _, err := c.FilterSelectivity("t", "zz", OpEq, 1); !errors.Is(err, ErrNoColumn) {
		t.Fatal("missing column")
	}
}

func TestDegenerateDomainFallback(t *testing.T) {
	c := New()
	tab := MustTable("t", 10, 100, col("k", 1, 5, 5))
	if err := c.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	s, err := c.FilterSelectivity("t", "k", OpLe, 5)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, s, 1, 1e-12, "point domain, v at point")
	s, _ = c.FilterSelectivity("t", "k", OpLe, 4)
	approx(t, s, 0, 1e-12, "point domain, v below")
}

func TestJoinSelectivities(t *testing.T) {
	c := New()
	a := MustTable("a", 1000, 100000, col("k", 50000, 0, 1e6))
	b := MustTable("b", 400, 40000, col("k", 40000, 0, 1e6))
	if err := c.AddTable(a); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(b); err != nil {
		t.Fatal(err)
	}
	rs, err := c.JoinRowSelectivity("a", "k", "b", "k")
	if err != nil {
		t.Fatal(err)
	}
	approx(t, rs, 1.0/50000, 1e-15, "1/max(V)")

	// Page-scaled σ: outRows = rs·rowsA·rowsB; tpp = max(100,100) = 100;
	// outPages = outRows/100; σ = outPages/(pagesA·pagesB).
	ps, err := c.JoinPageSelectivity("a", "k", "b", "k")
	if err != nil {
		t.Fatal(err)
	}
	outRows := rs * 100000 * 40000
	wantSigma := (outRows / 100) / (1000 * 400)
	approx(t, ps, wantSigma, 1e-15, "page sigma")

	// The defining property of σ: pagesOut = σ·|A|·|B|.
	approx(t, ps*1000*400, outRows/100, 1e-9, "sigma reproduces pages")

	if _, err := c.JoinRowSelectivity("zz", "k", "b", "k"); !errors.Is(err, ErrNoTable) {
		t.Fatal("missing left table")
	}
	if _, err := c.JoinRowSelectivity("a", "zz", "b", "k"); !errors.Is(err, ErrNoColumn) {
		t.Fatal("missing left column")
	}
	if _, err := c.JoinRowSelectivity("a", "k", "zz", "k"); !errors.Is(err, ErrNoTable) {
		t.Fatal("missing right table")
	}
	if _, err := c.JoinRowSelectivity("a", "k", "b", "zz"); !errors.Is(err, ErrNoColumn) {
		t.Fatal("missing right column")
	}
}

func TestPageSelectivityEdgeCases(t *testing.T) {
	if got := pageSelectivity(0.5, 10, 0, 10, 5); got != 0 {
		t.Fatal("zero pages should yield 0")
	}
	if got := pageSelectivity(0, 100, 10, 100, 10); got != 0 {
		t.Fatal("zero row sel should yield 0")
	}
}

func TestSelectivityDist(t *testing.T) {
	d, err := SelectivityDist(0.01, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
	approx(t, d.Value(0), 0.0025, 1e-12, "low")
	approx(t, d.Value(2), 0.04, 1e-12, "high")
	approx(t, d.Prob(1), 0.5, 1e-12, "center mass")

	// Truncation at 1.
	d, err = SelectivityDist(0.5, 4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, d.Max(), 1, 1e-12, "truncated to 1")

	p, err := SelectivityDist(0.3, 1, 0.9)
	if err != nil || p.Len() != 1 {
		t.Fatal("factor 1 should be a point")
	}
	if _, err := SelectivityDist(0, 2, 0.5); err == nil {
		t.Fatal("zero point should fail")
	}
	if _, err := SelectivityDist(0.5, 0.5, 0.5); err == nil {
		t.Fatal("factor<1 should fail")
	}
	if _, err := SelectivityDist(0.5, 2, 1.5); err == nil {
		t.Fatal("bad pCenter should fail")
	}
}

func TestColumnTypeAndOpStrings(t *testing.T) {
	if TypeInt.String() != "int" || TypeFloat.String() != "float" || TypeString.String() != "string" {
		t.Fatal("type strings")
	}
	if ColumnType(99).String() == "" {
		t.Fatal("unknown type string")
	}
	ops := map[CmpOp]string{OpEq: "=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, s := range ops {
		if op.String() != s {
			t.Fatalf("op %d string = %q want %q", op, op.String(), s)
		}
	}
	if CmpOp(99).String() == "" {
		t.Fatal("unknown op string")
	}
}

func TestScaleDistinct(t *testing.T) {
	cat := New()
	tab, err := NewTable("t", 100, 1000,
		Column{Name: "k", Type: TypeInt, Distinct: 600, Min: 0, Max: 600},
		Column{Name: "v", Type: TypeInt, Distinct: 10, Min: 0, Max: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(Index{Name: "ix", Table: "t", Column: "k", Height: 2}); err != nil {
		t.Fatal(err)
	}
	same, err := cat.ScaleDistinct(1)
	if err != nil {
		t.Fatal(err)
	}
	if same != cat {
		t.Fatal("factor 1 must return the receiver")
	}
	up, err := cat.ScaleDistinct(3)
	if err != nil {
		t.Fatal(err)
	}
	ut, err := up.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	k, _ := ut.Column("k")
	v, _ := ut.Column("v")
	if k.Distinct != 1000 { // 1800 clamped to rows
		t.Fatalf("k distinct: %v", k.Distinct)
	}
	if v.Distinct != 30 {
		t.Fatalf("v distinct: %v", v.Distinct)
	}
	if _, err := up.Index("ix"); err != nil {
		t.Fatal("indexes must be copied")
	}
	down, err := cat.ScaleDistinct(0.0001)
	if err != nil {
		t.Fatal(err)
	}
	dt, _ := down.Table("t")
	dk, _ := dt.Column("k")
	if dk.Distinct != 1 { // floored at 1
		t.Fatalf("floor clamp: %v", dk.Distinct)
	}
	if _, err := cat.ScaleDistinct(-1); err == nil {
		t.Fatal("negative factor must fail")
	}
	// The original catalog is untouched.
	ot, _ := cat.Table("t")
	ok2, _ := ot.Column("k")
	if ok2.Distinct != 600 {
		t.Fatalf("receiver mutated: %v", ok2.Distinct)
	}
}

func TestBandedFingerprint(t *testing.T) {
	build := func(distinct float64) *Catalog {
		c := New()
		tab, err := NewTable("t", 100, 10_000,
			Column{Name: "k", Type: TypeInt, Distinct: distinct, Min: 0, Max: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		return c
	}
	base := build(600)
	inBand := build(780)    // same log2 band [512, 1024)
	outBand := build(2400)  // two bands up
	clamped := build(20000) // clamps to rows
	if base.BandedFingerprint(2) != inBand.BandedFingerprint(2) {
		t.Fatal("in-band distinct counts must hash equal")
	}
	if base.BandedFingerprint(2) == outBand.BandedFingerprint(2) {
		t.Fatal("cross-band distinct counts must differ")
	}
	if base.Fingerprint() == inBand.Fingerprint() {
		t.Fatal("exact fingerprints must differ")
	}
	if clamped.BandedFingerprint(2) != build(10_000).BandedFingerprint(2) {
		t.Fatal("distinct beyond rows must clamp to the row-count band")
	}
	// base <= 1 falls back to the exact fingerprint.
	if base.BandedFingerprint(1) != base.Fingerprint() {
		t.Fatal("band base 1 must be the exact fingerprint")
	}
	// Memoization survives and invalidates with mutations.
	fp := base.BandedFingerprint(2)
	if base.BandedFingerprint(2) != fp {
		t.Fatal("memo broken")
	}
	tab2, err := NewTable("u", 10, 100, Column{Name: "k", Distinct: 5, Min: 0, Max: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.AddTable(tab2); err != nil {
		t.Fatal(err)
	}
	if base.BandedFingerprint(2) == fp {
		t.Fatal("mutation must invalidate the banded memo")
	}
}
