// Package optimizer is a leclint fixture shadowing the real optimizer
// package: just enough surface for the optguard and papermodel fixtures
// to build Options literals against.
package optimizer

import "lecopt/internal/cost"

// Options mirrors the real planning options.
type Options struct {
	DisableIndexes bool
	SizeBuckets    int
	CostModel      cost.Model
}
