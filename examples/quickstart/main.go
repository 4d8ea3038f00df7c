// Quickstart: the paper's Example 1.1 through the public API.
//
// Two plans compete for "SELECT * FROM A, B WHERE A.k = B.k ORDER BY A.k"
// with A = 1,000,000 pages and B = 400,000 pages:
//
//	Plan 1: sort-merge join (output already ordered)
//	Plan 2: grace-hash join + explicit sort of the 3,000-page result
//
// Memory is 2000 pages 80% of the time and 700 pages 20% of the time. The
// classical optimizer plans at the mode (or mean) and picks Plan 1; the
// least-expected-cost optimizer picks Plan 2, which is slightly worse 80%
// of the time and vastly better 20% of the time.
//
// The program goes through the service API: build a long-lived Optimizer
// handle over the catalog, prepare the statement once, and optimize it
// under each policy.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lecopt"
)

func main() {
	cat := lecopt.NewCatalog()
	// The join key's distinct count is chosen so the standard 1/max(V)
	// estimator yields the paper's 3,000-page join result.
	a, err := lecopt.NewTable("A", 1_000_000, 100_000_000,
		lecopt.Column{Name: "k", Distinct: 4e13 / 3000.0, Min: 0, Max: 1e12})
	if err != nil {
		log.Fatal(err)
	}
	b, err := lecopt.NewTable("B", 400_000, 40_000_000,
		lecopt.Column{Name: "k", Distinct: 1000, Min: 0, Max: 1e12})
	if err != nil {
		log.Fatal(err)
	}
	if err := cat.AddTable(a); err != nil {
		log.Fatal(err)
	}
	if err := cat.AddTable(b); err != nil {
		log.Fatal(err)
	}

	mem, err := lecopt.Bimodal(700, 2000, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	env := lecopt.Env{Mem: mem}

	// The long-lived handle owns the plan cache; Prepare parses and
	// validates the statement once.
	opt := lecopt.New(cat)
	prep, err := opt.Prepare("SELECT * FROM A, B WHERE A.k = B.k ORDER BY A.k")
	if err != nil {
		log.Fatal(err)
	}

	classical, err := prep.Optimize(env, lecopt.AlgLSCMode)
	if err != nil {
		log.Fatal(err)
	}
	lec, err := prep.Optimize(env, lecopt.AlgC)
	if err != nil {
		log.Fatal(err)
	}

	// C(P, m), the cost at one memory value, is the expected cost under
	// that value's point law.
	costAt := func(p *lecopt.Plan, m float64) float64 {
		c, err := lecopt.ExpectedCost(p, []lecopt.Dist{lecopt.PointDist(m)})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	fmt.Println("classical (LSC at modal memory 2000):")
	fmt.Println(classical.Plan)
	fmt.Printf("  cost at 2000 pages: %.4g\n", costAt(classical.Plan, 2000))
	fmt.Printf("  cost at  700 pages: %.4g\n", costAt(classical.Plan, 700))
	fmt.Printf("  expected cost:      %.4g\n\n", classical.EC)

	fmt.Println("least expected cost (Algorithm C):")
	fmt.Println(lec.Plan)
	fmt.Printf("  cost at 2000 pages: %.4g\n", costAt(lec.Plan, 2000))
	fmt.Printf("  cost at  700 pages: %.4g\n", costAt(lec.Plan, 700))
	fmt.Printf("  expected cost:      %.4g\n\n", lec.EC)

	fmt.Printf("LEC saves %.1f%% expected I/O over the classical plan\n",
		100*(1-lec.EC/classical.EC))

	// Verify by simulation: 100k executions under the memory law.
	st, err := opt.Simulate(lecopt.Request{Prepared: prep, Env: env}, lec.Plan, 100_000, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated mean of the LEC plan over %d runs: %.6g (analytic %.6g)\n",
		st.Runs, st.Mean, lec.EC)
}
