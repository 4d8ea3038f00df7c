// Package experiments is a leclint fixture: the golden-table package must
// keep costing with the paper model. References to cost.ModelEngine and
// explicit CostModel keys are seeded violations; the zero-value Options
// and explicit ModelPaper uses outside Options are true negatives.
package experiments

import (
	"lecopt/internal/cost"
	"lecopt/internal/optimizer"
)

// engineModel reaches for the engine-exact machine: forbidden here.
func engineModel() cost.Model {
	return cost.ModelEngine // want `ModelEngine`
}

// engineCharge smuggles the same reference through an Options key —
// both the key and the constant are reported.
func engineCharge() optimizer.Options {
	return optimizer.Options{CostModel: cost.ModelEngine} // want `CostModel` `ModelEngine`
}

// redundantPaper sets the key to its zero value: still a finding — the
// zero value is the contract, an explicit key invites the wrong edit.
func redundantPaper() optimizer.Options {
	return optimizer.Options{CostModel: cost.ModelPaper} // want `CostModel`
}

// zeroValue is the lawful pattern: Options defaults to the paper model
// by construction. True negative.
func zeroValue() optimizer.Options {
	return optimizer.Options{}
}

// paperOutsideOptions mentions the paper constant directly (e.g. in an
// assertion message). True negative.
func paperOutsideOptions() cost.Model {
	return cost.ModelPaper
}

// otherFields sets unrelated Options fields. True negative.
func otherFields(buckets int) optimizer.Options {
	return optimizer.Options{SizeBuckets: buckets}
}

// waived carries a justified directive — e.g. a test that pins the two
// models apart on purpose.
func waived() cost.Model {
	//leclint:allow papermodel -- fixture: justified model-contrast arm stays silent
	return cost.ModelEngine
}
