package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesList keeps BENCHMARK.json and the command's -list in
// step: same workloads, same metrics, same units, directions and bounds.
func TestManifestMatchesList(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.Workloads, workloadDefs) {
		t.Errorf("BENCHMARK.json workloads differ from the command's:\n%v\n%v", m.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the command's:\n%v\n%v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayerManifest()) {
		t.Errorf("BENCHMARK.json per_layer differs from the command's")
	}
	if len(perLayer) != 86 {
		t.Errorf("%d layer metrics, the issue names 86", len(perLayer))
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(m.Command, want) || !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", m.Command, m.Paths)
	}
	var list bytes.Buffer
	writeList(&list)
	seen := map[string]bool{}
	for _, w := range m.Workloads {
		seen[w.Name] = true
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for name := range seen {
		if !strings.Contains(list.String(), "  "+name+" ") {
			t.Errorf("-list does not print %s", name)
		}
	}
}

// TestSmoke runs all five workloads, timed and traced, at 1/200 scale with
// one repetition, and requires every metric of the manifest to come out
// exactly once per pass with a finite value and every check to hold.
func TestSmoke(t *testing.T) {
	start := time.Now()
	m := readManifest(t)
	z := sizingFor(float64(m.RunSeconds), 1, 1.0/200)
	dir := t.TempDir()
	probes, err := runProbes(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		timed, err := measure(w.Name, 1, z)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := traceRun(w.Name, 1, z, dir, probes)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []struct {
			o    *outcome
			defs []metricDef
		}{{timed, m.EndToEnd}, {traced, m.PerLayer}} {
			if !pass.o.Correct || pass.o.Failed != 0 || pass.o.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", w.Name, pass.o.Correct, pass.o.Attempted, pass.o.Failed, pass.o.Problems)
			}
			for _, d := range pass.defs {
				s, ok := pass.o.Metrics[d.Name]
				if !ok || !finite(s.Value) || s.Unit != d.Unit {
					t.Errorf("%s: metric %s: present=%v value=%v unit=%q", w.Name, d.Name, ok, s.Value, s.Unit)
				}
			}
		}
		for _, d := range m.EndToEnd {
			if timed.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; a bound needs a value above zero", w.Name, d.Name, timed.Metrics[d.Name].Value)
			}
		}
		if timed.InputDigest == "" || timed.InputDigest != traced.InputDigest {
			t.Errorf("%s: two set-ups from one seed generated different inputs", w.Name)
		}
		if v := timed.Metrics["error_share"].Value; v != 0 {
			t.Errorf("%s: error_share = %v", w.Name, v)
		}
		if v := traced.Metrics["storage.leaked_temps"].Value; v != 0 {
			t.Errorf("%s: storage.leaked_temps = %v", w.Name, v)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Error(err)
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}

// TestReferenceJoin pins the oracle's naive join against a hand-counted
// answer, so row-count checks do not rest on the engine they check.
func TestReferenceJoin(t *testing.T) {
	tenants, err := execTenants()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := genExecClient(3, 0, execQueries, tenants)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range cl.queries {
		// Every join is on the shared key k, so the answer is, per key, the
		// product of the tables' (filtered) tuple counts.
		counts := make([]map[int64]int, len(q.blk.Tables))
		for ti, name := range q.blk.Tables {
			rel, err := q.store.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			counts[ti] = map[int64]int{}
			for _, tup := range rel.AllTuples() {
				keep := true
				for _, f := range q.blk.FiltersOn(name) {
					keep = keep && float64(tup[0]) <= f.Value
				}
				if keep {
					counts[ti][tup[0]]++
				}
			}
		}
		want := 0
		for k, n := range counts[0] {
			for _, c := range counts[1:] {
				n *= c[k]
			}
			want += n
		}
		if q.refRows != want {
			t.Errorf("%s: reference join counts %d rows, per-key product %d", q.sql, q.refRows, want)
		}
	}
}
