// Command lecbench regenerates the paper-reproduction tables (experiments
// E1-E20 of DESIGN.md) and prints them. EXPERIMENTS.md records one such
// run annotated against the paper's claims. With -workload it instead runs
// the engine-in-the-loop serving simulator — LSC and LEC plans optimized
// per request and *executed* on the page-level engine under sampled memory
// trajectories — writing the BENCH_workload.json realized-I/O artifact.
// Throughput, latency and allocation figures are the repo benchmark's
// (go run ./bench), not this command's.
//
// Usage:
//
//	lecbench                         # run every experiment
//	lecbench -run E1,E5              # selected experiments
//	lecbench -list                   # list experiment IDs and titles
//	lecbench -workload -json         # engine-in-the-loop workload mode
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
var simFlags = map[string]bool{
	"workers": true, "requests": true, "seed": true, "cachesize": true,
	"queries": true, "zipf": true, "driftband": true,
	"nobands": true, "noindex": true, "out": true,
}

func lecbench(args []string) error {
	fs := flag.NewFlagSet("lecbench", flag.ExitOnError)
	var (
		runSpec = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		list    = fs.Bool("list", false, "list experiments and exit")

		workloadM = fs.Bool("workload", false, "workload mode: engine-in-the-loop LSC-vs-LEC serving simulation")
		workers   = fs.Int("workers", 0, "workload mode: worker count (0 = GOMAXPROCS)")
		requests  = fs.Int("requests", 2000, "workload mode: total requests")
		cacheSize = fs.Int("cachesize", 4096, "workload mode: plan-cache capacity")
		seed      = fs.Int64("seed", 1, "workload mode: workload seed")
		driftBand = fs.Float64("driftband", 0, "workload mode: plan-cache drift band base (0 = service default, <=1 = exact keys)")
		queries   = fs.Int("queries", 0, "workload mode: distinct queries in the mix (0 = spec default)")
		zipf      = fs.Float64("zipf", 0, "workload mode: popularity skew (0 = spec default)")
		noBands   = fs.Bool("nobands", false, "workload mode: skip the model-agreement feedback band sweeps")
		noIndex   = fs.Bool("noindex", false, "workload mode: heap-only mix (no physical indexes, no index plans) — reproduces the pre-access-path artifact")

		emitJSON = fs.Bool("json", true, "write the mode's JSON artifact")
		outPath  = fs.String("out", "", "workload mode: artifact path (default BENCH_workload.json)")

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
	if *workers < 0 {
		return errors.New("-workers must be >= 0 (0 = GOMAXPROCS)")
	}
	return profiled(*cpuProfile, func() error {
		if !*workloadM {
			return run(*runSpec, *list)
		}
		if *runSpec != "" || *list {
			return errors.New("-run/-list select experiments and cannot be combined with -workload")
		}
		cfg := workloadModeConfig{
			Requests: *requests, Queries: *queries, Zipf: *zipf,
			Seed: *seed, Workers: *workers, CacheSize: *cacheSize,
			DriftBand: *driftBand, NoBands: *noBands, NoIndex: *noIndex,
		}
		artifact := ""
		if *emitJSON {
			artifact = "BENCH_workload.json"
			if *outPath != "" {
				artifact = *outPath
			}
		}
		_, err := runWorkloadMode(cfg, artifact, os.Stdout)
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
