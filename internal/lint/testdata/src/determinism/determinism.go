// Package determinism is a leclint fixture: every // want line seeds a
// violation the determinism analyzer must catch; the rest are true
// negatives that must stay silent.
package determinism

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// globalSource draws from the process-global source: forbidden.
func globalSource() int {
	return rand.Intn(6) // want `process-global source`
}

// globalFloat covers a second package-level helper.
func globalFloat() float64 {
	return rand.Float64() // want `process-global source`
}

// wallClockSeed seeds from the clock: forbidden even though New/NewSource
// are the blessed constructors.
func wallClockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `wall-clock seed`
}

// seededOK is the repo's canonical pattern: explicitly seeded, all draws
// through the local generator. True negative.
func seededOK(seed int64) (int, float64) {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6), rng.Float64()
}

// mapOrderEscapes appends map keys in iteration order and never sorts:
// the emitted slice differs run to run.
func mapOrderEscapes(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `map range`
	}
	return keys
}

// mapOrderPrinted prints map entries in iteration order without sorting.
func mapOrderPrinted(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `map range`
	}
}

// mapCollectThenSort is the canonical fix: collect, then sort. True
// negative — the enclosing function sorts.
func mapCollectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mapAggregates folds map values commutatively; order never escapes.
// True negative.
func mapAggregates(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// mapCounted ranges without binding key or value. True negative.
func mapCounted(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// waived carries a justified directive: its finding is waived.
func waived() int {
	//leclint:allow determinism -- fixture: justified waiver stays silent
	return rand.Intn(6)
}

// unjustified carries a bare directive: the directive is itself a finding,
// and the finding it tried to waive survives.
func unjustified() int {
	//leclint:allow determinism // want `no justification`
	return rand.Intn(6) // want `process-global source`
}
