// Command bench is the repo's benchmark: five named workloads, the
// end-to-end metrics a caller of the library would see, and a per-layer
// trace from SQL text in to pages read out. BENCHMARK.json at the repo
// root is its manifest; README.md in this directory explains every
// workload and metric.
//
//	go run ./bench -seed=1                      # every workload, both passes
//	go run ./bench -workload=cold_plan -seed=2  # one workload
//	go run ./bench -aa -seed=1                  # A/A: two runs of the same code
//	go run ./bench -list                        # workload and metric names
//
// With exactly one workload and an explicit -trace the command is the
// driver protocol of BENCHMARK.json: it runs in-process and ends its
// standard output with one JSON object {correct, attempted, failed,
// metrics}. Otherwise every (workload, pass) runs in a fresh child process
// of this binary, so peak memory does not leak from one to the next.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

type options struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     int // 0 untraced, 1 traced, -1 both
	reps      int
	out       string
	aa        bool
}

func main() {
	var o options
	var names string
	var list bool
	flag.StringVar(&names, "workload", "", "comma-separated workloads to run (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "nominal measured seconds per run; scales the fixed op counts")
	flag.IntVar(&o.trace, "trace", -1, "0: timed passes only, 1: traced pass and layer probes only (default: both)")
	flag.IntVar(&o.reps, "reps", 20, "timed repetitions; each metric is their median")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for results.json and trace-<workload>.json")
	flag.BoolVar(&o.aa, "aa", false, "run the selected workloads twice and compare the medians against the bounds")
	flag.BoolVar(&list, "list", false, "print the workload and metric names and exit")
	flag.Parse()
	if list {
		writeList(os.Stdout)
		return
	}
	o.workloads = workloadNames()
	if names != "" {
		o.workloads = strings.Split(names, ",")
	}
	for _, n := range o.workloads {
		if _, err := newWorkload(n); err != nil {
			fatal(err)
		}
	}
	if flag.NArg() > 0 || o.seconds <= 0 || o.reps < 1 || o.trace < -1 || o.trace > 1 {
		fatal(fmt.Errorf("bad arguments; see -help"))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	var ok bool
	var err error
	switch {
	case o.aa:
		ok, err = runAA(o)
	case len(o.workloads) == 1 && o.trace >= 0:
		ok, err = runOne(o)
	default:
		ok, err = runAll(o)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// writeList prints the names BENCHMARK.json carries.
func writeList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, d := range workloadDefs {
		fmt.Fprintf(w, "  %-16s %s\n", d.Name, d.Why)
	}
	section := func(title string, defs []metricDef) {
		fmt.Fprintln(w, title+":")
		for _, d := range defs {
			fmt.Fprintf(w, "  %-36s %-6s %-6s", d.Name, d.Unit, d.Better)
			if d.Bound > 0 {
				fmt.Fprintf(w, " bound %.2f", d.Bound)
			}
			fmt.Fprintln(w)
		}
	}
	section("end_to_end", endToEnd)
	section("per_layer", perLayerManifest())
}

func resultPath(dir, workload string, traced bool) string {
	pass := "timed"
	if traced {
		pass = "traced"
	}
	return filepath.Join(dir, "result-"+workload+"-"+pass+".json")
}

// runOne measures one workload in this process and prints the driver's
// result line last.
func runOne(o options) (bool, error) {
	name := o.workloads[0]
	z := sizingFor(o.seconds, o.reps, 1)
	var out *outcome
	var err error
	var defs []metricDef
	if o.trace == 1 {
		out, err = traceRun(name, o.seed, z, o.out, nil)
		defs = perLayerManifest()
	} else {
		out, err = measure(name, o.seed, z)
		defs = endToEnd
	}
	if err != nil {
		return false, err
	}
	printOutcome(out)
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(resultPath(o.out, name, out.Traced), data, 0o644); err != nil {
		return false, err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, map[string]value{}}
	for _, d := range defs {
		s, ok := out.Metrics[d.Name]
		if !ok {
			return false, fmt.Errorf("%s: metric %s was not measured", name, d.Name)
		}
		line.Metrics[d.Name] = value{s.Value, d.Unit}
	}
	data, err = json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(data))
	return out.Correct, nil
}

// child runs one (workload, pass) in a fresh process of this binary, lets
// its output through, waits for it, and reads back what it measured.
func child(o options, name string, traced bool) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	path := resultPath(o.out, name, traced)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload="+name, fmt.Sprint("-seed=", o.seed), fmt.Sprint("-seconds=", o.seconds),
		fmt.Sprint("-reps=", o.reps), "-trace="+trace, "-out="+o.out)
	// The child's table goes through; its driver result line does not.
	var table bytes.Buffer
	cmd.Stdout, cmd.Stderr = &table, os.Stderr
	runErr := cmd.Run() // exit 1 = measured, but a check failed; the result file says which
	if i := bytes.LastIndex(table.Bytes(), []byte("\n{\"correct\"")); i >= 0 {
		table.Truncate(i + 1)
	}
	os.Stdout.Write(table.Bytes())
	data, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	out := &outcome{}
	return out, json.Unmarshal(data, out)
}

// runAll runs the selected workloads, timed then traced (or only the pass
// -trace selects), prints the table and writes results.json.
func runAll(o options) (bool, error) {
	results := map[string]map[string]summary{}
	ok := true
	for _, name := range o.workloads {
		results[name] = map[string]summary{}
		for _, traced := range []bool{false, true} {
			if (traced && o.trace == 0) || (!traced && o.trace == 1) {
				continue
			}
			out, err := child(o, name, traced)
			if err != nil {
				return false, err
			}
			ok = ok && out.Correct
			for k, v := range out.Metrics {
				results[name][k] = v
			}
		}
	}
	data, err := json.MarshalIndent(results, "", " ") // encoding/json sorts map keys
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), data, 0o644); err != nil {
		return false, err
	}
	printTable(o.workloads, results)
	fmt.Printf("\nresults: %s\n", filepath.Join(o.out, "results.json"))
	if !ok {
		fmt.Println("FAIL: a correctness check failed (see the workload's problems above)")
	}
	return ok, nil
}
