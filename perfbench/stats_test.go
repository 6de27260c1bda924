package main

import (
	"strings"
	"testing"
)

// TestTail checks the tail-percentile helper on hand-computed inputs.
func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200 down to 1, unsorted on purpose
	}
	for _, c := range []struct {
		n    int
		pct  float64
		want float64
	}{
		{n: 9, pct: 50}, {n: 19, pct: 50}, {n: 20, pct: 50}, {n: 99, pct: 80},
		{n: 100, pct: 90}, {n: 120, pct: 90}, {n: 200, pct: 95}, {n: 500, pct: 98},
		{n: 1000, pct: 99}, {n: 10000, pct: 99.9},
	} {
		if got := tailPercentile(c.n); got != c.pct {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.pct)
		}
	}
	v, n, beyond := tail(xs, nil, 95)
	if v != 190 || n != 200 || beyond != 10 {
		t.Errorf("tail(1..200, 95) = %g, n=%d, %d beyond; want 190, n=200, 10 beyond", v, n, beyond)
	}
	if v, _, beyond := tail(xs, nil, 90); v != 180 || beyond != 20 {
		t.Errorf("tail(1..200, 90) = %g, %d beyond; want 180, 20 beyond", v, beyond)
	}
	if m := median([]float64{5, 1, 3, 2, 4}); m != 3 {
		t.Errorf("median = %g, want 3", m)
	}
	// Weighted: 10 (weight 1) and 20, 30, 40 (weight 1/3 each) hold half
	// the weight each, so the median is 10 and the 90th percentile 40; with
	// unit weights they would be 20 and 40.
	xs4, ws := []float64{40, 10, 30, 20}, []float64{1.0 / 3, 1, 1.0 / 3, 1.0 / 3}
	if m := wquantile(xs4, ws, 0.5); m != 10 {
		t.Errorf("weighted median = %g, want 10", m)
	}
	if m := wquantile(xs4, nil, 0.5); m != 20 {
		t.Errorf("unweighted median = %g, want 20", m)
	}
	if v, n, beyond := tail(xs4, ws, 90); v != 40 || n != 4 || beyond != 0 {
		t.Errorf("weighted tail(90) = %g, n=%d, %d beyond; want 40, n=4, 0 beyond", v, n, beyond)
	}
	if v := wquantile(xs4, ws, 0.6); v != 20 {
		t.Errorf("weighted 60th percentile = %g, want 20", v)
	}
}

// TestFold checks the fold's self times and its structural checks.
func TestFold(t *testing.T) {
	ok := []span{
		{ID: 1, Op: 0, Name: "op", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Op: 0, Name: "harness.engine", Start: 1e6, End: 3e6},
		{ID: 3, Parent: 2, Op: 0, Name: "layout.plan", Start: 1e6, End: 2e6},
		{ID: 4, Parent: 1, Op: 0, Name: "vm.run", Start: 3e6, End: 9e6},
		{ID: 5, Op: -1, Name: "vm.run.twin", Start: 11e6, End: 12e6},
	}
	f, err := fold(ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.opMS) != 1 || f.opMS[0] != 10 {
		t.Fatalf("op durations %v, want [10]", f.opMS)
	}
	want := map[string]float64{"harness": 1, "layout": 1, "vm.run": 6}
	for layer, ms := range want {
		if got := f.layerMS[layer][0]; got != ms {
			t.Errorf("%s self time %g ms, want %g", layer, got, ms)
		}
	}
	if f.unattributedMS[0] != 2 {
		t.Errorf("unattributed %g ms, want 2", f.unattributedMS[0])
	}
	if got := f.share("vm.run"); got != 0.6 {
		t.Errorf("vm.run share %g, want 0.6", got)
	}
	if len(f.selfMS["vm.run.twin"]) != 1 {
		t.Errorf("probe span missing from the self times")
	}

	outlives := append([]span(nil), ok...)
	outlives[3].End = 11e6 // vm.run ends after its op
	if _, err := fold(outlives); err == nil || !strings.Contains(err.Error(), "outlives its parent") {
		t.Errorf("fold accepted a child span that outlives its parent (err %v)", err)
	}
	overlap := append([]span(nil), ok...)
	overlap[3].Start = 0 // vm.run overlaps harness.engine: children exceed the op
	overlap[3].End = 10e6
	if _, err := fold(overlap); err == nil || !strings.Contains(err.Error(), "sum to") {
		t.Errorf("fold accepted children summing to more than their op (err %v)", err)
	}
}
