package catio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"lecopt/internal/catalog"
)

const sampleJSON = `{
  "tables": [
    {
      "name": "a",
      "pages": 1000,
      "rows": 50000,
      "columns": [
        {"name": "k", "type": "int", "distinct": 50000, "min": 0, "max": 1000000},
        {"name": "v", "type": "float", "distinct": 100, "min": 0, "max": 99}
      ]
    },
    {
      "name": "b",
      "pages": 200,
      "rows": 10000,
      "columns": [{"name": "k", "distinct": 10000, "min": 0, "max": 1000000}]
    }
  ],
  "indexes": [
    {"name": "ix_a_k", "table": "a", "column": "k", "clustered": true, "height": 2}
  ]
}`

func TestReadSample(t *testing.T) {
	cat, err := Read(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	a, err := cat.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if a.Pages != 1000 || a.Rows != 50000 {
		t.Fatalf("table stats: %+v", a)
	}
	col, err := a.Column("v")
	if err != nil || col.Type != catalog.TypeFloat {
		t.Fatalf("column v: %+v %v", col, err)
	}
	ix, err := cat.Index("ix_a_k")
	if err != nil || !ix.Clustered || ix.Height != 2 {
		t.Fatalf("index: %+v %v", ix, err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"bad json", `{`},
		{"unknown field", `{"tables": [], "bogus": 1}`},
		{"bad type", `{"tables":[{"name":"t","pages":1,"rows":1,"columns":[{"name":"c","type":"blob","distinct":1,"min":0,"max":1}]}]}`},
		{"invalid stats", `{"tables":[{"name":"t","pages":0,"rows":1,"columns":[]}]}`},
		{"index missing table", `{"tables":[],"indexes":[{"name":"ix","table":"zz","column":"c"}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(c.doc)); err == nil {
				t.Fatalf("Read(%s) should fail", c.name)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	cat, err := Read(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := write(&buf, cat); err != nil {
		t.Fatal(err)
	}
	again, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read failed: %v\n%s", err, buf.String())
	}
	if len(again.TableNames()) != 2 {
		t.Fatalf("tables after round trip: %v", again.TableNames())
	}
	b, err := again.Table("b")
	if err != nil || b.Pages != 200 {
		t.Fatalf("table b: %+v %v", b, err)
	}
	if _, ok := again.IndexOn("a", "k"); !ok {
		t.Fatal("index lost in round trip")
	}
}

func TestParseMemLaw(t *testing.T) {
	d, err := ParseMemLaw("700:0.2, 2000:0.8")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.PrAtMost(700) != 0.2 {
		t.Fatalf("law: %v", d)
	}
	point, err := ParseMemLaw("1024")
	if err != nil || point.Len() != 1 || point.Value(0) != 1024 {
		t.Fatalf("point law: %v %v", point, err)
	}
	weights, err := ParseMemLaw("1:2,2:2")
	if err != nil || weights.Prob(0) != 0.5 {
		t.Fatalf("weights normalize: %v %v", weights, err)
	}
	for _, bad := range []string{"", "a:b", "1:2:3", "1:-1,2:0"} {
		if _, err := ParseMemLaw(bad); !errors.Is(err, errBadEnvSpec) {
			t.Fatalf("ParseMemLaw(%q) should fail, got %v", bad, err)
		}
	}
}
