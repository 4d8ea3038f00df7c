// Partition equivalence of plan-cache keys. The keys are a binary encoding
// of their inputs; what has to hold is that they split scenarios into
// exactly the classes the original text preimage did — a coarser split
// would serve one scenario another's plan, a finer one would cost hits.
// textPreimage keeps that text form as the oracle.
package lecopt

import (
	"encoding/hex"
	"sort"
	"strconv"
	"testing"

	"lecopt/internal/core"
	"lecopt/internal/dist"
	"lecopt/internal/workload"
)

// textPreimage is the preimage plan-cache keys hashed before they went
// binary, reproduced field for field: algorithm name, top-c (Algorithm B
// only), hex catalog digest and band, canonical query, laws printed in
// shortest-'g' form, sorted law maps (Algorithm D only) and hints, and the
// normalized options.
func textPreimage(s *Scenario, alg Algorithm, driftBand, margin float64) string {
	f := func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
	law := func(b []byte, d dist.Dist) []byte {
		for i := 0; i < d.Len(); i++ {
			b = append(f(b, d.Value(i)), ':')
			b = append(f(b, d.Prob(i)), ',')
		}
		return append(b, '\n')
	}
	lawMap := func(b []byte, label string, laws map[string]dist.Dist) []byte {
		keys := make([]string, 0, len(laws))
		for k := range laws {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = append(b, label+" "+k+"="...)
			b = law(b, laws[k])
		}
		return b
	}
	topC := 0
	if alg == AlgB {
		topC = s.TopC
		if topC < 1 {
			topC = 3
		}
	}
	selLaws, sizeLaws := s.SelLaws, s.SizeLaws
	if alg != AlgD {
		selLaws, sizeLaws = nil, nil
	}
	opts := s.Opts.Normalized()
	b := []byte("alg=" + alg.String() + " topc=" + strconv.Itoa(topC) + "\ncat=")
	if driftBand > 1 {
		b = append(b, hex.EncodeToString(s.Cat.AppendFingerprint(nil, driftBand, margin))+" band="...)
		b = f(b, driftBand)
	} else {
		b = append(b, s.Cat.Fingerprint()...)
	}
	b = append(b, "\nquery="+s.Query.Canonical()+"\nmem="...)
	b = law(b, s.Env.Mem)
	if c := s.Env.Chain; c != nil {
		b = append(b, "chain states="...)
		for i := 0; i < c.Len(); i++ {
			b = append(f(b, c.State(i)), ',')
		}
		b = append(b, " rows="...)
		for i := 0; i < c.Len(); i++ {
			for j := 0; j < c.Len(); j++ {
				b = append(f(b, c.Prob(i, j)), ',')
			}
			b = append(b, ';')
		}
		b = append(b, '\n')
	}
	b = lawMap(b, "sel", selLaws)
	b = lawMap(b, "size", sizeLaws)
	hintKeys := make([]string, 0, len(opts.SizeHints))
	for k := range opts.SizeHints {
		hintKeys = append(hintKeys, k)
	}
	sort.Strings(hintKeys)
	for _, k := range hintKeys {
		b = append(b, "hint "+k+"="...)
		b = append(f(b, opts.SizeHints[k]), '\n')
	}
	b = append(b, "opts methods="...)
	for i, m := range opts.Methods {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, m.String()...)
	}
	b = append(b, " sizebuckets="+strconv.Itoa(opts.SizeBuckets)+" costmodel="+opts.CostModel.String()+"\n"...)
	return string(b)
}

// TestCacheKeyPartitionMatchesTextPreimage: over the differential corpus ×
// the standard environments × every algorithm × exact and banded keys ×
// the hysteresis margins × plain / hinted / Algorithm-D-law variants, two
// inputs get the same key exactly when the text oracle gave them the same
// preimage.
func TestCacheKeyPartitionMatchesTextPreimage(t *testing.T) {
	envs, err := workload.StandardEnvs()
	if err != nil {
		t.Fatal(err)
	}
	keyOf := map[string]string{}  // text preimage -> key
	textOf := map[string]string{} // key -> text preimage
	inputs := 0
	for i, base := range diffCorpus(t) {
		tables := base.Query.Tables
		variants := []func(*Scenario){
			func(*Scenario) {},
			func(s *Scenario) {
				s.Opts.SizeHints = map[string]float64{SizeKey(tables[0], tables[1]): float64(100 + i%3), tables[0]: 40}
			},
			func(s *Scenario) {
				s.SelLaws = map[string]dist.Dist{EdgeKey(s.Query.Joins[0]): dist.Point(0.5)}
				s.SizeLaws = map[string]dist.Dist{tables[0]: dist.Point(float64(10 + i%2)), tables[1]: dist.Point(20)}
				s.TopC = 2 + i%2
			},
		}
		for _, env := range envs {
			for _, variant := range variants {
				sc := *base
				sc.Env = env.Env
				variant(&sc)
				for _, alg := range Algorithms() {
					for _, band := range []float64{0, core.DefaultDriftBand} {
						for _, margin := range []float64{0, -core.BandMargin, core.BandMargin} {
							k, err := sc.AppendCacheKey(nil, alg, band, margin)
							if err != nil {
								t.Fatalf("scenario %d %s %s: %v", i, env.Name, alg, err)
							}
							key, text := string(k), textPreimage(&sc, alg, band, margin)
							if prev, ok := keyOf[text]; ok && prev != key {
								t.Fatalf("scenario %d %s %s band %v margin %v: one text preimage, two keys\n%s",
									i, env.Name, alg, band, margin, text)
							}
							if prev, ok := textOf[key]; ok && prev != text {
								t.Fatalf("scenario %d %s %s band %v margin %v: one key, two text preimages\n%s\n---\n%s",
									i, env.Name, alg, band, margin, prev, text)
							}
							keyOf[text], textOf[key] = key, text
							inputs++
						}
					}
				}
			}
		}
	}
	// The property is vacuous unless many inputs share a class (margins
	// that move no band, laws an algorithm does not read) and many do not.
	if len(keyOf) < inputs/10 || len(keyOf) > inputs*9/10 {
		t.Fatalf("%d inputs fell into %d classes; the corpus no longer exercises both directions", inputs, len(keyOf))
	}
	t.Logf("%d inputs, %d key classes", inputs, len(keyOf))
}
