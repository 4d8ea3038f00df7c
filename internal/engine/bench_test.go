package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"lecopt/internal/buffer"
	"lecopt/internal/cost"
	"lecopt/internal/storage"
)

// BenchmarkOperators times each operator at the bench/ exec_loop scale
// (6-tuple pages, 1 200 keys, 96 ⋈ 160 pages) at each of its tenant memory
// levels (sort-merge/m6 … sort-merge/m288), reporting ns per page of
// physical I/O — the engine's own unit — so a change shows which regime it
// moves: at 6 pages a sort spills many short runs and merges in passes, at
// 288 it forms one run per input.
func BenchmarkOperators(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := storage.NewStore()
	for _, spec := range []storage.GenSpec{
		{Name: "A", Pages: 96, TuplesPerPage: 6, KeyRange: 1200},
		{Name: "B", Pages: 160, TuplesPerPage: 6, KeyRange: 1200},
	} {
		rel, err := storage.Generate(spec, rng)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Add(rel); err != nil {
			b.Fatal(err)
		}
	}
	e := New(s)
	mems := []int{6, 12, 24, 96, 288}
	type op struct {
		name string
		run  func(mem int) (*storage.Relation, buffer.Stats, error)
	}
	var ops []op
	for _, m := range cost.Methods {
		ops = append(ops, op{m.String(), func(mem int) (*storage.Relation, buffer.Stats, error) {
			return e.join(JoinSpec{Method: m, Outer: "A", Inner: "B", OuterCol: "k", InnerCol: "k"}, mem)
		}})
	}
	ops = append(ops, op{"sort", func(mem int) (*storage.Relation, buffer.Stats, error) { return e.SortRelation("B", "k", mem) }})
	for _, o := range ops {
		for _, mem := range mems {
			b.Run(fmt.Sprintf("%s/m%d", o.name, mem), func(b *testing.B) {
				b.ReportAllocs()
				var pages int64
				for i := 0; i < b.N; i++ {
					out, st, err := o.run(mem)
					if err != nil {
						b.Fatal(err)
					}
					pages += st.IO()
					s.Drop(out.Name)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
			})
		}
	}
}

// BenchmarkExecutePlan times whole-plan execution over the exec_loop-shaped
// plan set of TestExecutePlanAllocs, on one warmed engine, reporting ns per
// page of physical I/O beside the per-op time and allocations.
func BenchmarkExecutePlan(b *testing.B) {
	set := newExecSet(b)
	set.run(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pages int64
	for i := 0; i < b.N; i++ {
		pages += set.run(b)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pages), "ns/page")
}
