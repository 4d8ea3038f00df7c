// Package optguard is a leclint fixture: hardcoded DisableIndexes: true
// literals are seeded violations; spec-driven values and justified allow
// directives are true negatives.
package optguard

import "lecopt/internal/optimizer"

// hardcoded shrinks the plan space with a literal: forbidden.
func hardcoded() optimizer.Options {
	return optimizer.Options{DisableIndexes: true} // want `hardcoded`
}

// hardcodedMultiField hides the literal among other fields.
func hardcodedMultiField() optimizer.Options {
	return optimizer.Options{SizeBuckets: 4, DisableIndexes: true} // want `hardcoded`
}

// specDriven threads the decision through configuration: the lawful
// pattern. True negative.
func specDriven(heapOnly bool) optimizer.Options {
	return optimizer.Options{DisableIndexes: heapOnly}
}

// explicitFalse is harmless. True negative.
func explicitFalse() optimizer.Options {
	return optimizer.Options{DisableIndexes: false}
}

// unrelatedFields never mentions the flag. True negative.
func unrelatedFields() optimizer.Options {
	return optimizer.Options{SizeBuckets: 8}
}

// waived carries a justified directive, the one lawful way to keep a
// literal (e.g. a test whose point is the heap-only contrast).
func waived() optimizer.Options {
	//leclint:allow optguard -- fixture: justified comparison arm stays silent
	return optimizer.Options{DisableIndexes: true}
}

// unjustified shows a directive without a reason: the finding survives
// and the bare directive itself becomes a finding.
func unjustified() optimizer.Options {
	//leclint:allow optguard // want `no justification`
	return optimizer.Options{DisableIndexes: true} // want `hardcoded`
}
