// Command lecbench regenerates the paper-reproduction tables (experiments
// E1-E20 of DESIGN.md) and prints them. EXPERIMENTS.md records one such
// run annotated against the paper's claims. With -workers it instead
// drives a randomized batch-optimization workload through the concurrent
// pipeline and reports throughput (plans/sec, allocs/op, cache hit rate),
// writing the BENCH_batch.json regression artifact. With -workload it runs
// the engine-in-the-loop serving simulator — LSC and LEC plans optimized
// per request and *executed* on the page-level engine under sampled memory
// trajectories — writing the BENCH_workload.json realized-I/O artifact.
//
// Usage:
//
//	lecbench                         # run every experiment
//	lecbench -run E1,E5              # selected experiments
//	lecbench -list                   # list experiment IDs and titles
//	lecbench -workers=8 -cache       # batch throughput mode
//	lecbench -workers=8 -qps=500     # paced offered load
//	lecbench -workload -json         # engine-in-the-loop workload mode
//	lecbench -workload -requests=200 # quick smoke of the same
//	lecbench -workers=8 -cache -cpuprofile=cpu.prof   # any mode, CPU-profiled
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
	var (
		runSpec = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		list    = flag.Bool("list", false, "list experiments and exit")

		workers   = flag.Int("workers", 0, "throughput mode: worker count (0 with -workload: GOMAXPROCS)")
		requests  = flag.Int("requests", 2000, "throughput/workload mode: total requests")
		distinct  = flag.Int("distinct", 64, "throughput mode: distinct scenarios in the pool")
		useCache  = flag.Bool("cache", false, "throughput mode: memoize plans in an LRU cache")
		cacheSize = flag.Int("cachesize", 4096, "throughput/workload mode: plan-cache capacity")
		qps       = flag.Float64("qps", 0, "throughput mode: offered load limit in plans/sec (0 = unlimited)")
		maxAllocs = flag.Float64("maxallocs", 0, "throughput mode: fail when allocs/op exceeds this (0 = no gate) — the CI allocation regression gate")
		seed      = flag.Int64("seed", 1, "throughput/workload mode: workload seed")
		alg       = flag.String("alg", "algorithm-c", "throughput mode: optimization algorithm")

		workloadM = flag.Bool("workload", false, "workload mode: engine-in-the-loop LSC-vs-LEC serving simulation")
		fleetM    = flag.Bool("fleet", false, "fleet mode: Zipf tenant fleet through the resilience layer at each offered load level")
		tenants   = flag.Int("tenants", 0, "fleet mode: tenant count (0 = spec default)")
		queries   = flag.Int("queries", 0, "workload mode: distinct queries in the mix (0 = spec default)")
		zipf      = flag.Float64("zipf", 0, "workload mode: popularity skew (0 = spec default)")
		driftBand = flag.Float64("driftband", 0, "workload mode: plan-cache drift band base (0 = service default, <=1 = exact keys)")
		noBands   = flag.Bool("nobands", false, "workload mode: skip the model-agreement feedback band sweeps")
		noIndex   = flag.Bool("noindex", false, "workload mode: heap-only mix (no physical indexes, no index plans) — reproduces the pre-access-path artifact")

		emitJSON = flag.Bool("json", true, "write the mode's JSON artifact")
		outPath  = flag.String("out", "", "artifact path (default BENCH_batch.json / BENCH_workload.json by mode)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
	)
	flag.Parse()
	artifact := func(def string) string {
		if !*emitJSON {
			return ""
		}
		if *outPath != "" {
			return *outPath
		}
		return def
	}
	mode := func() error {
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
			if *workers < 0 {
				return errors.New("-workers must be >= 0 (0 = GOMAXPROCS)")
			}
			cfg := workloadModeConfig{
				Requests: *requests, Queries: *queries, Zipf: *zipf,
				Seed: *seed, Workers: *workers, CacheSize: *cacheSize,
				DriftBand: *driftBand, NoBands: *noBands, NoIndex: *noIndex,
			}
			_, err := runWorkloadMode(cfg, artifact("BENCH_workload.json"), os.Stdout)
			return err
		case *workers > 0:
			if *runSpec != "" || *list {
				return errors.New("-run/-list select experiments and cannot be combined with -workers (throughput mode)")
			}
			cfg := throughputConfig{
				Workers: *workers, Requests: *requests, Distinct: *distinct,
				Cache: *useCache, CacheSize: *cacheSize, QPS: *qps, Seed: *seed, Alg: *alg,
				MaxAllocs: *maxAllocs,
			}
			_, err := runThroughput(cfg, artifact("BENCH_batch.json"), os.Stdout)
			return err
		default:
			return run(*runSpec, *list)
		}
	}
	if err := profiled(*cpuProfile, mode); err != nil {
		fmt.Fprintln(os.Stderr, "lecbench:", err)
		os.Exit(1)
	}
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
