// Command lecbench regenerates the paper-reproduction tables (experiments
// E1-E20 of DESIGN.md) and prints them. EXPERIMENTS.md records one such
// run annotated against the paper's claims. With -workload it instead runs
// the engine-in-the-loop serving simulator — LSC and LEC plans optimized
// per request and *executed* on the page-level engine under sampled memory
// trajectories — writing the BENCH_workload.json realized-I/O artifact;
// with -fleet, the tenant-fleet simulator behind the resilience layer,
// writing BENCH_fleet.json. Throughput, latency and allocation figures are
// the repo benchmark's (go run ./bench), not this command's.
//
// Usage:
//
//	lecbench                         # run every experiment
//	lecbench -run E1,E5              # selected experiments
//	lecbench -list                   # list experiment IDs and titles
//	lecbench -workload -json         # engine-in-the-loop workload mode
//	lecbench -workload -requests=200 # quick smoke of the same
//	lecbench -fleet -tenants=256     # fleet mode
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

// simFlags are the flags only the -workload and -fleet modes read.
var simFlags = map[string]bool{
	"workers": true, "requests": true, "seed": true, "cachesize": true,
	"tenants": true, "queries": true, "zipf": true, "driftband": true,
	"nobands": true, "noindex": true, "out": true,
}

func lecbench(args []string) error {
	fs := flag.NewFlagSet("lecbench", flag.ExitOnError)
	var (
		runSpec = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		list    = fs.Bool("list", false, "list experiments and exit")

		workloadM = fs.Bool("workload", false, "workload mode: engine-in-the-loop LSC-vs-LEC serving simulation")
		fleetM    = fs.Bool("fleet", false, "fleet mode: Zipf tenant fleet through the resilience layer at each offered load level")
		workers   = fs.Int("workers", 0, "workload/fleet mode: worker count (0 = GOMAXPROCS)")
		requests  = fs.Int("requests", 2000, "workload/fleet mode: total requests")
		cacheSize = fs.Int("cachesize", 4096, "workload/fleet mode: plan-cache capacity")
		seed      = fs.Int64("seed", 1, "workload/fleet mode: workload seed")
		driftBand = fs.Float64("driftband", 0, "workload/fleet mode: plan-cache drift band base (0 = service default, <=1 = exact keys)")
		tenants   = fs.Int("tenants", 0, "fleet mode: tenant count (0 = spec default)")
		queries   = fs.Int("queries", 0, "workload mode: distinct queries in the mix (0 = spec default)")
		zipf      = fs.Float64("zipf", 0, "workload mode: popularity skew (0 = spec default)")
		noBands   = fs.Bool("nobands", false, "workload mode: skip the model-agreement feedback band sweeps")
		noIndex   = fs.Bool("noindex", false, "workload mode: heap-only mix (no physical indexes, no index plans) — reproduces the pre-access-path artifact")

		emitJSON = fs.Bool("json", true, "write the mode's JSON artifact")
		outPath  = fs.String("out", "", "artifact path (default BENCH_workload.json / BENCH_fleet.json by mode)")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
	)
	fs.Parse(args)
	if !*workloadM && !*fleetM {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if simFlags[f.Name] {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("%s given without -workload or -fleet", strings.Join(stray, ", "))
		}
	}
	if *workers < 0 {
		return errors.New("-workers must be >= 0 (0 = GOMAXPROCS)")
	}
	artifact := func(def string) string {
		if !*emitJSON {
			return ""
		}
		if *outPath != "" {
			return *outPath
		}
		return def
	}
	return profiled(*cpuProfile, func() error {
		switch {
		case *fleetM:
			if *runSpec != "" || *list || *workloadM {
				return errors.New("-fleet cannot be combined with -run/-list/-workload")
			}
			cfg := fleetModeConfig{
				Tenants: *tenants, Requests: *requests, Seed: *seed,
				Workers: *workers, CacheSize: *cacheSize, DriftBand: *driftBand,
			}
			_, err := runFleetMode(cfg, artifact("BENCH_fleet.json"), os.Stdout)
			return err
		case *workloadM:
			if *runSpec != "" || *list {
				return errors.New("-run/-list select experiments and cannot be combined with -workload")
			}
			cfg := workloadModeConfig{
				Requests: *requests, Queries: *queries, Zipf: *zipf,
				Seed: *seed, Workers: *workers, CacheSize: *cacheSize,
				DriftBand: *driftBand, NoBands: *noBands, NoIndex: *noIndex,
			}
			_, err := runWorkloadMode(cfg, artifact("BENCH_workload.json"), os.Stdout)
			return err
		default:
			return run(*runSpec, *list)
		}
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
