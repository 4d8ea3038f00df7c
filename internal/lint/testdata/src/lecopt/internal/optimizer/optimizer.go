// Package optimizer is a leclint fixture shadowing the real optimizer
// package: just enough surface for the papermodel fixture to build Options
// literals against.
package optimizer

import "lecopt/internal/cost"

// Options mirrors the real planning options.
type Options struct {
	SizeBuckets int
	CostModel   cost.Model
}
