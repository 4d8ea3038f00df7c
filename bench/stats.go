package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// summary is one metric over the repetitions of a run. Value is the
// figure the run reports: the median, except for the three timing metrics,
// which report their quiet figure (runner.quietFigures). Neighbours on the
// shared reference box only ever slow work down, in bursts about as long
// as a repetition, so the nearest there is to what the code costs is each
// op's lowest latency over the repetitions, which all replay the same ops.
// Measured there over runs of the same code, the medians of 20 repetitions
// moved 12-19 % (throughput, p50) and 37 % (p99); the quiet figures 2-8 %.
// Median, min and max are always kept as the spread, n is the sample count.
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(vals []float64, unit string) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := medianSorted(s)
	return summary{Value: m, Median: m, Min: s[0], Max: s[len(s)-1], N: len(s), Unit: unit}
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return medianSorted(s)
}

// quantileNS returns the q-quantile of sorted nanosecond samples, linearly
// interpolated between ranks.
func quantileNS(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return float64(sorted[n-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status; 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
