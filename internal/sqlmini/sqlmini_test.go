package sqlmini

import (
	"errors"
	"strings"
	"testing"

	"lecopt/internal/catalog"
	"lecopt/internal/query"
)

func TestParseFullQuery(t *testing.T) {
	blk, err := Parse(`SELECT * FROM a, b, c
		WHERE a.k = b.k AND b.k = c.k AND a.v < 100 AND c.w >= 2.5
		ORDER BY a.k ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Tables) != 3 || blk.Tables[0] != "a" || blk.Tables[2] != "c" {
		t.Fatalf("tables = %v", blk.Tables)
	}
	if len(blk.Joins) != 2 {
		t.Fatalf("joins = %v", blk.Joins)
	}
	if blk.Joins[0].Left != (query.ColRef{Table: "a", Column: "k"}) ||
		blk.Joins[0].Right != (query.ColRef{Table: "b", Column: "k"}) {
		t.Fatalf("join 0 = %v", blk.Joins[0])
	}
	if len(blk.Filters) != 2 {
		t.Fatalf("filters = %v", blk.Filters)
	}
	if blk.Filters[0].Op != catalog.OpLt || blk.Filters[0].Value != 100 {
		t.Fatalf("filter 0 = %v", blk.Filters[0])
	}
	if blk.Filters[1].Op != catalog.OpGe || blk.Filters[1].Value != 2.5 {
		t.Fatalf("filter 1 = %v", blk.Filters[1])
	}
	if blk.OrderBy == nil || *blk.OrderBy != (query.ColRef{Table: "a", Column: "k"}) {
		t.Fatalf("order by = %v", blk.OrderBy)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	blk, err := Parse("select * FROM t WHERE t.x = s.y order by t.x")
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Tables) != 1 || len(blk.Joins) != 1 || blk.OrderBy == nil {
		t.Fatalf("parsed: %v", blk)
	}
}

func TestParseMinimal(t *testing.T) {
	blk, err := Parse("SELECT * FROM solo")
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Tables) != 1 || len(blk.Joins) != 0 || len(blk.Filters) != 0 || blk.OrderBy != nil {
		t.Fatalf("minimal block: %+v", blk)
	}
}

func TestParseAllFilterOps(t *testing.T) {
	blk, err := Parse("SELECT * FROM t WHERE t.a = 1 AND t.b < 2 AND t.c <= 3 AND t.d > 4 AND t.e >= 5")
	if err != nil {
		t.Fatal(err)
	}
	want := []catalog.CmpOp{catalog.OpEq, catalog.OpLt, catalog.OpLe, catalog.OpGt, catalog.OpGe}
	if len(blk.Filters) != len(want) {
		t.Fatalf("filters = %v", blk.Filters)
	}
	for i, f := range blk.Filters {
		if f.Op != want[i] || f.Value != float64(i+1) {
			t.Fatalf("filter %d = %v", i, f)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"UPDATE t",
		"SELECT a FROM t",                 // only * supported
		"SELECT * WHERE t.x = 1",          // missing FROM
		"SELECT * FROM",                   // missing table
		"SELECT * FROM t,",                // trailing comma
		"SELECT * FROM t WHERE x = 1",     // unqualified column
		"SELECT * FROM t WHERE t.x ! 1",   // bad operator character
		"SELECT * FROM t WHERE t.x < s.y", // non-equality join
		"SELECT * FROM t WHERE t.x =",     // missing rhs
		"SELECT * FROM t WHERE t.x = AND", // rhs keyword
		"SELECT * FROM t ORDER t.x",       // missing BY
		"SELECT * FROM t ORDER BY x",      // unqualified order column
		"SELECT * FROM t extra",           // trailing ident
		"SELECT * FROM t WHERE t.x = 1 2", // trailing number
		"SELECT * FROM select",            // reserved word as table
		"SELECT * FROM t WHERE t. = 1",    // missing column name
	}
	for _, src := range cases {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Fatalf("Parse(%q) err = %v, want ErrSyntax", src, err)
		}
	}
}

func TestNumbersLexedGreedily(t *testing.T) {
	blk, err := Parse("SELECT * FROM t WHERE t.x < 10.25 AND t.y > 3")
	if err != nil {
		t.Fatal(err)
	}
	if blk.Filters[0].Value != 10.25 || blk.Filters[1].Value != 3 {
		t.Fatalf("values: %v", blk.Filters)
	}
}

func TestLexUnexpectedRune(t *testing.T) {
	if _, err := lex("t.x # 1"); !errors.Is(err, ErrSyntax) {
		t.Fatal("bad rune should fail lexing")
	}
}

// TestLexNonASCII pins the lexer's byte classification: a multi-byte rune
// is one unexpected character named in full at its byte offset — never its
// UTF-8 bytes read as Latin-1 letters, spaces or digits.
func TestLexNonASCII(t *testing.T) {
	cases := []struct{ src, want string }{
		{"SELECT * FROM tàb", `unexpected character 'à' at offset 15`},  // C3 A0: A0 is Latin-1 NBSP
		{"SELECT * FROM café", `unexpected character 'é' at offset 17`}, // C3 A9: A9 is Latin-1 ©
		{"SELECT * FROM t WHERE t.x < ٣", `unexpected character '٣' at offset 28`},
		{"SELECT * FROM t\u00a0WHERE t.x < 1", `unexpected character '\u00a0' at offset 15`},
		{"SELECT * FROM t\u0085", `unexpected character '\u0085' at offset 15`},
		{"SELECT * FROM \xe9t", `invalid UTF-8 byte 0xe9 at offset 14`},
		{"SELECT * FROM t\xa0", `invalid UTF-8 byte 0xa0 at offset 15`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if !errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want ErrSyntax naming %s", c.src, err, c.want)
		}
	}
	// Every ASCII space separates tokens.
	if _, err := Parse("SELECT\t*\nFROM\va\f,\rb WHERE a.k=b.k"); err != nil {
		t.Errorf("ASCII whitespace: %v", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("not sql")
}

func TestParseAndValidate(t *testing.T) {
	cat := catalog.New()
	tab := catalog.MustTable("t", 10, 100,
		catalog.Column{Name: "x", Type: catalog.TypeInt, Distinct: 10, Min: 0, Max: 9})
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	blk, err := ParseAndValidate("SELECT * FROM t WHERE t.x < 5", cat)
	if err != nil || blk == nil {
		t.Fatal(err)
	}
	if _, err := ParseAndValidate("SELECT * FROM missing", cat); err == nil {
		t.Fatal("validation must catch missing tables")
	}
	if _, err := ParseAndValidate("garbage", cat); !errors.Is(err, ErrSyntax) {
		t.Fatal("syntax error propagates")
	}
}

// Round trip: parsed blocks render back to equivalent SQL-ish text.
func TestRoundTripThroughString(t *testing.T) {
	src := "SELECT * FROM a, b WHERE a.k = b.k AND a.v < 10 ORDER BY b.k"
	blk, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rendered := blk.String()
	for _, frag := range []string{"FROM a, b", "a.k = b.k", "a.v < 10", "ORDER BY b.k"} {
		if !strings.Contains(rendered, frag) {
			t.Fatalf("rendered %q missing %q", rendered, frag)
		}
	}
	again, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse failed: %v", err)
	}
	if again.Canonical() != blk.Canonical() {
		t.Fatalf("round trip changed query:\n%s\n%s", blk.Canonical(), again.Canonical())
	}
}
