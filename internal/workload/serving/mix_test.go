package serving

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lecopt/internal/workload"
)

func TestNewMixValidation(t *testing.T) {
	base, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*MixSpec)
	}{
		{"zero queries", func(s *MixSpec) { s.Queries = 0 }},
		{"one table", func(s *MixSpec) { s.MinTables = 1 }},
		{"inverted pages", func(s *MixSpec) { s.MaxPages = s.MinPages - 1 }},
		{"zero key range", func(s *MixSpec) { s.KeyRange = 0 }},
		{"negative skew", func(s *MixSpec) { s.ZipfS = -1 }},
		{"nan skew", func(s *MixSpec) { s.ZipfS = math.NaN() }},
		{"no shapes", func(s *MixSpec) { s.Shapes = nil }},
		{"no tenants", func(s *MixSpec) { s.Tenants = nil }},
		{"bad tenant env", func(s *MixSpec) { s.Tenants = []Tenant{{Name: "broken"}} }},
		{"drift without neutral", func(s *MixSpec) { s.Drift.Factors = []float64{0.5, 2} }},
		{"non-positive drift factor", func(s *MixSpec) { s.Drift.Factors = []float64{-1, 1} }},
	}
	for _, tc := range cases {
		spec := base
		tc.mut(&spec)
		if _, err := NewMix(spec, rand.New(rand.NewSource(1))); !errors.Is(err, errBadMix) {
			t.Errorf("%s: want errBadMix, got %v", tc.name, err)
		}
	}
}

func TestNewMixDeterministic(t *testing.T) {
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewMix(spec, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMix(spec, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("query counts differ")
	}
	for i := range a.Queries {
		qa, qb := a.Queries[i], b.Queries[i]
		if qa.Block.Canonical() != qb.Block.Canonical() {
			t.Fatalf("query %d differs", i)
		}
		for _, name := range qa.Block.Tables {
			ra, err := qa.Store.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := qb.Store.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if ra.NumPages() != rb.NumPages() || ra.NumTuples() != rb.NumTuples() {
				t.Fatalf("query %d table %s: physical data differs", i, name)
			}
		}
	}
}

// TestMixStatisticsMatchPhysical: at drift factor 1, the catalog's pages
// and rows must equal the materialized relation's.
func TestMixStatisticsMatchPhysical(t *testing.T) {
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMix(spec, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range m.Queries {
		if q.Phases != len(q.Block.Tables)-1 {
			t.Fatalf("query %d: %d phases for %d tables", q.ID, q.Phases, len(q.Block.Tables))
		}
		for _, name := range q.Block.Tables {
			tab, err := q.Cat.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := q.Store.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if float64(rel.NumPages()) != tab.Pages || float64(rel.NumTuples()) != tab.Rows {
				t.Fatalf("query %d table %s: catalog %v pages/%v rows vs physical %d/%d",
					q.ID, name, tab.Pages, tab.Rows, rel.NumPages(), rel.NumTuples())
			}
		}
	}
}

func TestZipfPopularitySkew(t *testing.T) {
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMix(spec, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Popularity.Len() != spec.Queries {
		t.Fatalf("popularity over %d values, want %d", m.Popularity.Len(), spec.Queries)
	}
	// Query 0 must be the most popular; mass must decay along IDs.
	if m.Popularity.Mode() != 0 {
		t.Fatalf("mode %v, want query 0", m.Popularity.Mode())
	}
	for i := 1; i < m.Popularity.Len(); i++ {
		if m.Popularity.Prob(i) > m.Popularity.Prob(i-1)+1e-12 {
			t.Fatalf("popularity not decaying at id %d", i)
		}
	}
}

func TestDriftedCatalog(t *testing.T) {
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMix(spec, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	q := m.Queries[0]
	same, err := q.Cat.ScaleDistinct(1)
	if err != nil {
		t.Fatal(err)
	}
	if same != q.Cat {
		t.Fatal("factor 1 must return the catalog unchanged")
	}
	for _, factor := range []float64{0.5, 2, 1e9, 1e-9} {
		drifted, err := q.Cat.ScaleDistinct(factor)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range q.Block.Tables {
			orig, err := q.Cat.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := drifted.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			if got.Pages != orig.Pages || got.Rows != orig.Rows {
				t.Fatalf("drift must not change sizes: %s", name)
			}
			kOrig, err := orig.Column("k")
			if err != nil {
				t.Fatal(err)
			}
			kGot, err := got.Column("k")
			if err != nil {
				t.Fatal(err)
			}
			want := math.Round(kOrig.Distinct * factor)
			if want < 1 {
				want = 1
			}
			if want > orig.Rows {
				want = orig.Rows
			}
			if kGot.Distinct != want {
				t.Fatalf("%s: distinct %v, want %v (factor %v)", name, kGot.Distinct, want, factor)
			}
		}
	}
}

func TestMixShapesRespected(t *testing.T) {
	spec, err := DefaultMixSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Shapes = []workload.Shape{workload.Clique}
	spec.MinTables, spec.MaxTables = 3, 3
	m, err := NewMix(spec, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range m.Queries {
		if len(q.Block.Joins) != 3 { // 3-clique
			t.Fatalf("query %d: %d joins, want 3", q.ID, len(q.Block.Joins))
		}
	}
}
