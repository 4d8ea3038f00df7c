package query

import (
	"errors"
	"strings"
	"testing"

	"lecopt/internal/catalog"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	mk := func(name string, pages, rows float64, cols ...string) {
		ccols := make([]catalog.Column, len(cols))
		for i, cn := range cols {
			ccols[i] = catalog.Column{Name: cn, Type: catalog.TypeInt, Distinct: 100, Min: 0, Max: 999}
		}
		if err := c.AddTable(catalog.MustTable(name, pages, rows, ccols...)); err != nil {
			t.Fatal(err)
		}
	}
	mk("a", 100, 1000, "id", "x")
	mk("b", 50, 500, "id", "aid")
	mk("c", 10, 100, "bid")
	return c
}

func chainABC() *Block {
	return &Block{
		Tables: []string{"a", "b", "c"},
		Joins: []Join{
			{Left: ColRef{"a", "id"}, Right: ColRef{"b", "aid"}},
			{Left: ColRef{"b", "id"}, Right: ColRef{"c", "bid"}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	cat := testCatalog(t)
	b := chainABC()
	b.Filters = []Filter{{Col: ColRef{"a", "x"}, Op: catalog.OpLt, Value: 500}}
	b.OrderBy = &ColRef{"a", "id"}
	if err := b.Validate(cat); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		name string
		mut  func(*Block)
		want error
	}{
		{"no tables", func(b *Block) { b.Tables = nil }, errNoTables},
		{"dup table", func(b *Block) { b.Tables = append(b.Tables, "a") }, ErrDupTable},
		{"unknown table", func(b *Block) { b.Tables[0] = "zz" }, catalog.ErrNoTable},
		{"self join", func(b *Block) {
			b.Joins[0] = Join{Left: ColRef{"a", "id"}, Right: ColRef{"a", "x"}}
		}, errSelfJoin},
		{"join foreign table", func(b *Block) {
			b.Joins[0] = Join{Left: ColRef{"zz", "id"}, Right: ColRef{"b", "aid"}}
		}, ErrUnknownTable},
		{"join bad column", func(b *Block) {
			b.Joins[0] = Join{Left: ColRef{"a", "nope"}, Right: ColRef{"b", "aid"}}
		}, catalog.ErrNoColumn},
		{"filter bad column", func(b *Block) {
			b.Filters = []Filter{{Col: ColRef{"a", "nope"}, Op: catalog.OpEq, Value: 1}}
		}, catalog.ErrNoColumn},
		{"filter foreign table", func(b *Block) {
			b.Filters = []Filter{{Col: ColRef{"zz", "x"}, Op: catalog.OpEq, Value: 1}}
		}, ErrUnknownTable},
		{"orderby bad column", func(b *Block) { b.OrderBy = &ColRef{"a", "nope"} }, catalog.ErrNoColumn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := chainABC()
			tc.mut(b)
			if err := b.Validate(cat); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestValidateErrorOrder: when a block is wrong twice, the first problem in
// FROM-then-joins-then-filters order is the one reported.
func TestValidateErrorOrder(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		name string
		mut  func(*Block)
		want error
	}{
		{"dup before a later missing table", func(b *Block) { b.Tables = []string{"a", "a", "zz"} }, ErrDupTable},
		{"missing table before a later dup", func(b *Block) { b.Tables = []string{"zz", "a", "a"} }, catalog.ErrNoTable},
		{"missing table before a bad join", func(b *Block) {
			b.Tables[2] = "zz"
			b.Joins[0].Left.Column = "nope"
		}, catalog.ErrNoTable},
		{"self join before its bad column", func(b *Block) {
			b.Joins[0] = Join{Left: ColRef{"a", "nope"}, Right: ColRef{"a", "x"}}
		}, errSelfJoin},
		{"join left side before right side", func(b *Block) {
			b.Joins[0] = Join{Left: ColRef{"a", "nope"}, Right: ColRef{"zz", "aid"}}
		}, catalog.ErrNoColumn},
		{"bad join before bad filter", func(b *Block) {
			b.Joins[1].Right.Column = "nope"
			b.Filters = []Filter{{Col: ColRef{"zz", "x"}, Op: catalog.OpEq, Value: 1}}
		}, catalog.ErrNoColumn},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := chainABC()
			tc.mut(b)
			if err := b.Validate(cat); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestValidateAllocatesNothing: a valid block is checked with scans of its
// own FROM list and one catalog lookup per reference — no scratch map, even
// past the eight names a map can keep on the stack.
func TestValidateAllocatesNothing(t *testing.T) {
	cat := catalog.New()
	b := &Block{}
	for i := 0; i < 12; i++ {
		name := "t" + string(rune('a'+i))
		col := catalog.Column{Name: "k", Type: catalog.TypeInt, Distinct: 100, Min: 0, Max: 999}
		if err := cat.AddTable(catalog.MustTable(name, 10, 100, col)); err != nil {
			t.Fatal(err)
		}
		b.Tables = append(b.Tables, name)
		if i > 0 {
			b.Joins = append(b.Joins, Join{Left: ColRef{b.Tables[i-1], "k"}, Right: ColRef{name, "k"}})
		}
	}
	b.Filters = []Filter{{Col: ColRef{"tc", "k"}, Op: catalog.OpLt, Value: 500}}
	b.OrderBy = &ColRef{"tl", "k"}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := b.Validate(cat); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate allocates %.1f times per call, want 0", allocs)
	}
}

func TestValidateTooMany(t *testing.T) {
	cat := catalog.New()
	b := &Block{}
	for i := 0; i < MaxTables+1; i++ {
		name := "t" + string(rune('a'+i))
		if err := cat.AddTable(catalog.MustTable(name, 1, 1)); err != nil {
			t.Fatal(err)
		}
		b.Tables = append(b.Tables, name)
	}
	if err := b.Validate(cat); !errors.Is(err, errTooMany) {
		t.Fatalf("err = %v, want errTooMany", err)
	}
}

func TestJoinAccessors(t *testing.T) {
	j := Join{Left: ColRef{"a", "id"}, Right: ColRef{"b", "aid"}}
	if j.String() != "a.id = b.aid" {
		t.Fatalf("String = %q", j.String())
	}
}

func TestFiltersOn(t *testing.T) {
	b := chainABC()
	b.Filters = []Filter{
		{Col: ColRef{"a", "x"}, Op: catalog.OpLt, Value: 5},
		{Col: ColRef{"b", "id"}, Op: catalog.OpGe, Value: 1},
	}
	if fs := b.FiltersOn("a"); len(fs) != 1 || fs[0].Col.Column != "x" {
		t.Fatalf("FiltersOn(a) = %v", fs)
	}
	if fs := b.FiltersOn("c"); len(fs) != 0 {
		t.Fatalf("FiltersOn(c) = %v", fs)
	}
}

func TestConnected(t *testing.T) {
	b := chainABC()
	if !b.Connected() {
		t.Fatal("chain should be connected")
	}
	b.Joins = b.Joins[:1] // drop b-c edge
	if b.Connected() {
		t.Fatal("should be disconnected")
	}
	single := &Block{Tables: []string{"a"}}
	if !single.Connected() {
		t.Fatal("single table is connected")
	}
	empty := &Block{}
	if empty.Connected() {
		t.Fatal("empty block is not connected")
	}
}

func TestTableIndex(t *testing.T) {
	b := chainABC()
	if b.TableIndex("a") != 0 || b.TableIndex("c") != 2 || b.TableIndex("zz") != -1 {
		t.Fatal("TableIndex wrong")
	}
}

func TestStringRendering(t *testing.T) {
	b := chainABC()
	b.Filters = []Filter{{Col: ColRef{"a", "x"}, Op: catalog.OpLt, Value: 500}}
	b.OrderBy = &ColRef{"a", "id"}
	s := b.String()
	for _, want := range []string{"SELECT * FROM a, b, c", "a.id = b.aid", "a.x < 500", "ORDER BY a.id"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	bare := &Block{Tables: []string{"a"}}
	if strings.Contains(bare.String(), "WHERE") {
		t.Fatal("bare block should have no WHERE")
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := chainABC()
	b.OrderBy = &ColRef{"a", "id"}
	c := b.Clone()
	c.Tables[0] = "zz"
	c.Joins[0].Left.Table = "zz"
	c.OrderBy.Table = "zz"
	if b.Tables[0] != "a" || b.Joins[0].Left.Table != "a" || b.OrderBy.Table != "a" {
		t.Fatal("Clone aliased the original")
	}
}

func TestCanonicalIsOrderInsensitive(t *testing.T) {
	b1 := chainABC()
	b2 := &Block{
		Tables: []string{"c", "b", "a"},
		Joins: []Join{
			{Left: ColRef{"c", "bid"}, Right: ColRef{"b", "id"}}, // flipped
			{Left: ColRef{"b", "aid"}, Right: ColRef{"a", "id"}}, // flipped
		},
	}
	if b1.Canonical() != b2.Canonical() {
		t.Fatalf("canonical mismatch:\n%s\n%s", b1.Canonical(), b2.Canonical())
	}
	b3 := chainABC()
	b3.OrderBy = &ColRef{"a", "id"}
	if b1.Canonical() == b3.Canonical() {
		t.Fatal("order-by must change the signature")
	}
}
