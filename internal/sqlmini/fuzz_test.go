package sqlmini

import (
	"testing"
)

// FuzzParse hardens the mini-SQL front door: Parse must never panic, and
// any block it accepts must render (Block.String) back into a string that
// re-parses to the same canonical query. The seed corpus spans every
// grammar production plus known-tricky near-misses.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM a",
		"SELECT * FROM a, b WHERE a.k = b.k",
		"SELECT * FROM a, b, c WHERE a.k = b.k AND b.k = c.k AND a.v < 100 ORDER BY a.k",
		"select * from t0, t1 where t0.k = t1.k and t0.v >= 7.5 order by t1.k asc",
		"SELECT * FROM x WHERE x.v <= 0",
		"SELECT * FROM x WHERE x.v > 999999999",
		"SELECT * FROM x WHERE x.v = 3.25",
		"SELECT * FROM a , b WHERE a.k=b.k",
		// Near-misses that must error, not panic.
		"SELECT * FROM",
		"SELECT a FROM b",
		"SELECT * FROM a WHERE a.k <",
		"SELECT * FROM a WHERE k = 1",
		"SELECT * FROM select",
		"SELECT * FROM a ORDER BY",
		"SELECT * FROM a WHERE a.k = 1e9",
		"SELECT * FROM a WHERE a.v < -1",
		"",
		";;;",
		// Non-ASCII: multi-byte runes whose UTF-8 bytes are Latin-1 letters,
		// spaces and digits, and bytes that are not UTF-8 at all.
		"SELECT * FROM tàb",
		"SELECT * FROM café",
		"SELECT * FROM t WHERE t.x < ٣",
		"SELECT * FROM t\u00a0WHERE t.x < 1",
		"SELECT * FROM \xe9t",
		"SELECT * FROM t\xa0, u",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		blk, err := Parse(sql)
		if err != nil {
			return // rejection is fine; panics and accepted-garbage are not
		}
		if len(blk.Tables) == 0 {
			t.Fatalf("accepted a block with no tables: %q", sql)
		}
		rendered := blk.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendering %q does not re-parse: %v", sql, rendered, err)
		}
		if got, want := again.Canonical(), blk.Canonical(); got != want {
			t.Fatalf("round-trip changed the query:\n input     %q\n rendered  %q\n canonical %q\n reparsed  %q",
				sql, rendered, want, got)
		}
	})
}
