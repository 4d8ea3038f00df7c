// Command lecbench regenerates the paper-reproduction tables (experiments
// E1-E20 of DESIGN.md) and prints them. EXPERIMENTS.md records one such
// run annotated against the paper's claims. With -workload it instead runs
// the engine-in-the-loop serving simulator — LSC and LEC plans optimized
// per request and *executed* on the page-level engine under sampled memory
// trajectories — and with -out writes the report as the realized-I/O
// artifact (BENCH_workload.json). Without -out no mode writes a file.
// Throughput, latency and allocation figures are the repo benchmark's
// (go run ./bench), not this command's.
//
// Usage:
//
//	lecbench                         # run every experiment
//	lecbench -run E1,E5              # selected experiments
//	lecbench -list                   # list experiment IDs and titles
//	lecbench -workload               # engine-in-the-loop workload mode
//	lecbench -workload -out BENCH_workload.json   # ... writing the artifact
//	lecbench -workload -requests=200 # quick smoke of the same
//	lecbench -workload -cpuprofile=cpu.prof   # any mode, CPU-profiled
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"lecopt/internal/experiments"
)

func main() {
	if err := lecbench(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lecbench:", err)
		os.Exit(1)
	}
}

// simFlags are the flags only the -workload mode reads.
var simFlags = map[string]bool{"requests": true, "driftband": true, "noindex": true, "out": true}

func lecbench(args []string) error {
	fs := flag.NewFlagSet("lecbench", flag.ExitOnError)
	var (
		runSpec = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		list    = fs.Bool("list", false, "list experiments and exit")

		workloadM = fs.Bool("workload", false, "workload mode: engine-in-the-loop LSC-vs-LEC serving simulation")
		requests  = fs.Int("requests", 2000, "workload mode: total requests")
		driftBand = fs.Float64("driftband", 0, "workload mode: plan-cache drift band base (0 = service default, <=1 = exact keys)")
		noIndex   = fs.Bool("noindex", false, "workload mode: heap-only mix (no physical indexes, so no index plans) — reproduces the pre-access-path artifact")
		outPath   = fs.String("out", "", "workload mode: write the JSON artifact to this path (default: write no file)")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
	)
	fs.Parse(args)
	if !*workloadM {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if simFlags[f.Name] {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("%s given without -workload", strings.Join(stray, ", "))
		}
	}
	return profiled(*cpuProfile, func() error {
		if !*workloadM {
			return run(*runSpec, *list)
		}
		if *runSpec != "" || *list {
			return errors.New("-run/-list select experiments and cannot be combined with -workload")
		}
		cfg := workloadModeConfig{Requests: *requests, DriftBand: *driftBand, NoIndex: *noIndex}
		_, err := runWorkloadMode(cfg, *outPath, os.Stdout)
		return err
	})
}

// profiled runs fn, under a CPU profile written to path when path is set.
// The profile is flushed whether or not fn fails: a failing run is often
// the one worth profiling.
func profiled(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(runSpec string, list bool) error {
	if list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	var selected []experiments.Experiment
	if runSpec == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(runSpec, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	failures := 0
	for _, e := range selected {
		tab, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		if !tab.Pass {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment claim(s) failed", failures)
	}
	fmt.Printf("all %d experiment claims hold\n", len(selected))
	return nil
}
