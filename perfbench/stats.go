package main

import (
	"math"
	"runtime/metrics"
	"sort"
)

// quantile returns the p-quantile (0 <= p <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least a share p of all samples at or
// below it. xs need not be sorted; it is not modified. Empty input gives
// NaN.
func quantile(xs []float64, p float64) float64 { return wquantile(xs, nil, p) }

// wquantile is quantile over weighted samples: the smallest sample whose
// cumulative weight, in ascending order of xs, reaches a share p of the
// total weight. nil weights count every sample once.
func wquantile(xs, ws []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	idx := make([]int, len(xs))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += weight(ws, i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	cum := 0.0
	for _, i := range idx {
		cum += weight(ws, i)
		if cum >= p*total*(1-1e-12) {
			return xs[i]
		}
	}
	return xs[idx[len(idx)-1]]
}

func weight(ws []float64, i int) float64 {
	if ws == nil {
		return 1
	}
	return ws[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the tail percentiles a workload may report, highest
// first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it. Each workload fixes its tail
// percentile as tailPercentile(n) at the sample count its run length gives
// the unmodified program, so the reported percentile never changes with
// the speed of the program under test.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate 100-p rounding
			return p
		}
	}
	return 50
}

// tail reports the pct-th percentile of xs (weighted by ws, as wquantile)
// together with the sample count and how many samples lie strictly beyond
// it.
func tail(xs, ws []float64, pct float64) (value float64, n, beyond int) {
	value = wquantile(xs, ws, pct/100)
	for _, x := range xs {
		if x > value {
			beyond++
		}
	}
	return value, len(xs), beyond
}

// runtimeStats samples the Go runtime counters the end-to-end metrics
// and the runtime layer use.
type runtimeStats struct {
	allocBytes, liveBytes float64
	gcCPU, totalCPU       float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return math.NaN()
	}
	return runtimeStats{
		allocBytes: val(s[0].Value), liveBytes: val(s[1].Value),
		gcCPU: val(s[2].Value), totalCPU: val(s[3].Value),
	}
}
