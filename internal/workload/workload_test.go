package workload

import (
	"errors"
	"math/rand"
	"testing"

	"lecopt/internal/optimizer"
	"lecopt/internal/query"
)

func TestGenerateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(Spec{Tables: 0}, rng); !errors.Is(err, errBadSpec) {
		t.Fatal("zero tables")
	}
	if _, err := Generate(Spec{Tables: query.MaxTables + 1}, rng); !errors.Is(err, errBadSpec) {
		t.Fatal("too many tables")
	}
	spec := DefaultSpec(3, Chain)
	spec.MinPages = 0
	if _, err := Generate(spec, rng); !errors.Is(err, errBadSpec) {
		t.Fatal("bad pages")
	}
	spec = DefaultSpec(3, Shape(99))
	if _, err := Generate(spec, rng); !errors.Is(err, errBadSpec) {
		t.Fatal("bad shape")
	}
}

func TestGenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range []Shape{Chain, Star, Clique, Random} {
		for n := 1; n <= 5; n++ {
			sc, err := Generate(DefaultSpec(n, shape), rng)
			if err != nil {
				t.Fatalf("%v n=%d: %v", shape, n, err)
			}
			if len(sc.Block.Tables) != n {
				t.Fatalf("%v: %d tables", shape, len(sc.Block.Tables))
			}
			if n > 1 && !sc.Block.Connected() {
				t.Fatalf("%v n=%d: disconnected", shape, n)
			}
			wantJoins := map[Shape]int{Chain: n - 1, Star: n - 1, Clique: n * (n - 1) / 2}
			if w, ok := wantJoins[shape]; ok && len(sc.Block.Joins) != w {
				t.Fatalf("%v n=%d: %d joins, want %d", shape, n, len(sc.Block.Joins), w)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultSpec(4, Random), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultSpec(4, Random), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Block.Canonical() != b.Block.Canonical() {
		t.Fatal("same seed must generate same query")
	}
}

// TestGeneratedScenariosOptimize: every generated scenario must be
// optimizable by every algorithm (smoke over the whole pipeline).
func TestGeneratedScenariosOptimize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	envs, err := StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		shape := []Shape{Chain, Star, Clique, Random}[trial%4]
		sc, err := Generate(DefaultSpec(2+trial%4, shape), rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, ne := range envs {
			if ne.Env.Chain != nil {
				r, err := optimizer.AlgorithmCDynamic(sc.Cat, sc.Block, optimizer.Options{}, ne.Env.Mem, ne.Env.Chain)
				if err != nil || r.Plan == nil {
					t.Fatalf("trial %d env %s: %v", trial, ne.Name, err)
				}
				continue
			}
			r, err := optimizer.AlgorithmC(sc.Cat, sc.Block, optimizer.Options{}, ne.Env.Mem)
			if err != nil || r.Plan == nil {
				t.Fatalf("trial %d env %s: %v", trial, ne.Name, err)
			}
		}
	}
}

func TestStandardEnvs(t *testing.T) {
	envs, err := StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 6 {
		t.Fatalf("got %d envs", len(envs))
	}
	names := map[string]bool{}
	dynamic := 0
	for _, ne := range envs {
		if names[ne.Name] {
			t.Fatalf("duplicate env name %s", ne.Name)
		}
		names[ne.Name] = true
		if err := ne.Env.Validate(); err != nil {
			t.Fatalf("env %s invalid: %v", ne.Name, err)
		}
		if ne.Env.Chain != nil {
			dynamic++
		}
	}
	if dynamic != 2 {
		t.Fatalf("want 2 dynamic envs, got %d", dynamic)
	}
	if !names["paper-bimodal"] {
		t.Fatal("the paper's bimodal environment must be present")
	}
}

func TestWarehouse(t *testing.T) {
	cat, queries, err := Warehouse()
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 4 {
		t.Fatalf("got %d queries", len(queries))
	}
	for _, name := range []string{"sales", "customer", "product", "store", "dates"} {
		if !cat.HasTable(name) {
			t.Fatalf("missing table %s", name)
		}
	}
	sales, err := cat.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	if sales.Pages != 500_000 {
		t.Fatal("fact table size")
	}
	// Every query optimizes with every algorithm, and the star query has
	// the full five tables.
	if len(queries[3].Tables) != 5 {
		t.Fatal("Q4 should join the full star")
	}
	envs, err := StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		r, err := optimizer.AlgorithmC(cat, q, optimizer.Options{}, envs[1].Env.Mem)
		if err != nil || r.Plan == nil {
			t.Fatalf("Q%d: %v", qi+1, err)
		}
		if r.Plan.Joins() != len(q.Tables)-1 {
			t.Fatalf("Q%d: %d joins for %d tables", qi+1, r.Plan.Joins(), len(q.Tables))
		}
	}
}

func TestShapeString(t *testing.T) {
	for s, want := range map[Shape]string{Chain: "chain", Star: "star", Clique: "clique", Random: "random", Shape(9): "unknown"} {
		if s.String() != want {
			t.Fatalf("%d: %q", s, s.String())
		}
	}
}
