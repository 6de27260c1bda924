package harness_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// TestTelemetryNeutralAndExact pins the two headline telemetry contracts
// on the fault sweep (the experiment exercising every observation point):
//
//  1. Dormant neutrality — attaching a registry and tracer changes no
//     record: the observed run is byte-identical to the dormant run.
//  2. Attribution exactness — in the snapshot, every cell's TotalCycles
//     is exactly (==, not approximately) the sum of its rows.
func TestTelemetryNeutralAndExact(t *testing.T) {
	base := harness.Config{Seed: 42}
	dormant, err := harness.Run(base, "faults")
	if err != nil {
		t.Fatal(err)
	}

	observed := base
	observed.Metrics = telemetry.NewRegistry()
	var traceBuf bytes.Buffer
	tracer := telemetry.NewTracer(&traceBuf)
	observed.Trace = tracer
	got, err := harness.Run(observed, "faults")
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dormant, got) {
		t.Fatal("telemetry changed experiment records")
	}

	snap := observed.Metrics.Snapshot()
	if len(snap.Cells) == 0 {
		t.Fatal("no cells in snapshot")
	}
	profiled := 0
	for _, c := range snap.Cells {
		var sum float64
		for _, r := range c.Rows {
			sum += r.Cycles
		}
		if sum != c.TotalCycles {
			t.Fatalf("cell %s: rows sum to %v, TotalCycles %v", c.Name, sum, c.TotalCycles)
		}
		if len(c.Rows) > 0 {
			profiled++
		}
		// Blackout cells can die before the entropy source exists; every
		// surviving smokestack cell must export its health counters.
		if strings.Contains(c.Name, "smokestack") && !strings.HasSuffix(c.Name, "/blackout") {
			if c.RNG == nil || c.RNG["draws"] == 0 {
				t.Fatalf("cell %s: smokestack cell missing rng health: %+v", c.Name, c.RNG)
			}
		}
	}
	if profiled == 0 {
		t.Fatal("no cell carries attribution rows")
	}
	if len(snap.Gauges) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("cache gauges / runner histograms missing: %+v %+v", snap.Gauges, snap.Histograms)
	}

	// The trace must replay the sweep's injection events: globally ordered
	// by seq, and per cell the entropy-fault draw indices re-run in
	// injection order.
	events, err := telemetry.ReadTrace(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	var lastSeq uint64
	started := make(map[string]bool)
	ended := make(map[string]bool)
	lastEntropyIdx := make(map[string]float64)
	entropyFaults, hostFaults := 0, 0
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing at %+v", e)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case "cell.start":
			started[e.Cell] = true
		case "cell.end":
			if !started[e.Cell] {
				t.Fatalf("cell.end before cell.start for %s", e.Cell)
			}
			ended[e.Cell] = true
		case "fault.entropy":
			entropyFaults++
			if !started[e.Cell] || ended[e.Cell] {
				t.Fatalf("fault outside its cell's lifetime: %+v", e)
			}
			idx, ok := e.Fields["index"].(float64)
			if !ok {
				t.Fatalf("fault.entropy without index: %+v", e)
			}
			if last, seen := lastEntropyIdx[e.Cell]; seen && idx <= last {
				t.Fatalf("cell %s: entropy fault indices out of order (%v after %v)", e.Cell, idx, last)
			}
			lastEntropyIdx[e.Cell] = idx
		case "fault.hostfail":
			hostFaults++
		}
	}
	if entropyFaults == 0 || hostFaults == 0 {
		t.Fatalf("sweep injections not traced: %d entropy, %d hostfail", entropyFaults, hostFaults)
	}
	for cell := range started {
		if !ended[cell] {
			t.Fatalf("cell %s started but never ended", cell)
		}
	}
}

// TestSpanModeDormantAndReconciled pins the span-tracing contracts on the
// session path:
//
//  1. Dormant neutrality — a session run with span tracing, labeled
//     metrics, per-cell CellDone capture and an audit sink produces
//     records identical to the bare run.
//  2. Tree reconciliation — the folded trace's per-cell exact cycle
//     totals equal both the CellDone-accumulated row sums and the metric
//     snapshot's per-cell TotalCycles, bit-for-bit.
//  3. Structure — every cell span nests its run spans directly, and
//     CellDone fires once per cell.
func TestSpanModeDormantAndReconciled(t *testing.T) {
	src := `long work(long n) { long i; long acc; i = 0; acc = 0;
	  while (i < n) { acc = acc + i * i; i = i + 1; } return acc; }
	long main() { return work(500); }`
	spec := harness.SessionSpec{Source: src, Engines: []string{"fixed", "smokestack"}, Seed: 99, Runs: 2}

	dormant, err := harness.RunSession(harness.Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	var traceBuf bytes.Buffer
	tracer := telemetry.NewTracer(&traceBuf)
	var mu sync.Mutex
	captured := make(map[string][]telemetry.Row)
	firings := make(map[string]int)
	cfg := harness.Config{
		Metrics: reg,
		Trace:   tracer,
		TraceID: "t-span",
		Tenant:  "spantest",
		Audit:   telemetry.NewAuditSink(nil),
		CellDone: func(cell string, rows []telemetry.Row, _ map[string]uint64) {
			mu.Lock()
			defer mu.Unlock()
			captured[cell] = telemetry.MergeRows(captured[cell], rows)
			firings[cell]++
		},
	}
	got, err := harness.RunSession(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dormant, got) {
		t.Fatalf("span-mode observation changed session records:\n%+v\nvs\n%+v", dormant, got)
	}

	events, err := telemetry.ReadTrace(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	tree := telemetry.FoldTrace(events)
	if err := tree.Reconcile(); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("trace has %d roots, want 1 (the session span)", len(tree.Roots))
	}

	// Each engine contributes 2 cells (run0, run1); each cell span nests
	// run spans carrying the rows.
	cellSpans := 0
	for _, c := range tree.Roots[0].Children {
		if c.Cell == "" {
			continue // compile span
		}
		cellSpans++
		if len(c.Children) == 0 {
			t.Fatalf("cell span %s has no run children", c.Cell)
		}
		for _, r := range c.Children {
			if r.Kind != "run.start" || r.Cycles == 0 || len(r.Children) != 0 {
				t.Fatalf("cell span %s child %s (%s): want a leaf run span with cycles", c.Cell, r.ID, r.Kind)
			}
		}
	}
	if cellSpans != 4 {
		t.Fatalf("cell spans = %d, want 4", cellSpans)
	}

	treeTotals := tree.CellTotals()
	mu.Lock()
	defer mu.Unlock()
	if len(captured) != 4 {
		t.Fatalf("CellDone captured %d cells, want 4", len(captured))
	}
	for cell, rows := range captured {
		var sum float64
		for _, r := range rows {
			sum += r.Cycles
		}
		if sum == 0 {
			t.Fatalf("cell %s captured no cycles", cell)
		}
		if treeTotals[cell] != sum {
			t.Fatalf("cell %s: tree total %v != CellDone sum %v", cell, treeTotals[cell], sum)
		}
		if firings[cell] != 1 {
			t.Fatalf("cell %s: %d CellDone firings, want 1", cell, firings[cell])
		}
	}
	for _, c := range reg.Snapshot().Cells {
		if treeTotals[c.Name] != c.TotalCycles {
			t.Fatalf("cell %s: tree total %v != snapshot TotalCycles %v", c.Name, treeTotals[c.Name], c.TotalCycles)
		}
	}
}

// TestAuditDetectionFromSession pins the security audit path: a session
// cell whose canary trips under the stackato engine emits a structured
// audit event carrying tenant, trace, engine, cell seed, function and
// slot address.
func TestAuditDetectionFromSession(t *testing.T) {
	// Overruns buf by 8 bytes: under stackato the canary sits right after
	// the 40-byte local extent, so the write always covers it while
	// staying inside the frame.
	src := `long smash(long n) { long i; char buf[32]; i = 0;
	  while (i < n) { buf[i] = 65; i = i + 1; } return i; }
	long main() { return smash(40); }`
	spec := harness.SessionSpec{Source: src, Engines: []string{"stackato"}, Seed: 3}

	var auditBuf bytes.Buffer
	sink := telemetry.NewAuditSink(&auditBuf)
	cfg := harness.Config{Tenant: "victim", TraceID: "t-audit", Audit: sink}
	recs, err := harness.RunSession(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	foundErr := false
	for _, r := range recs {
		if strings.Contains(r.Err, "canary check failed") {
			foundErr = true
		}
	}
	if !foundErr {
		t.Fatalf("no canary failure in records: %+v", recs)
	}
	events, err := telemetry.ReadAudit(&auditBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("audit events = %d, want 1: %+v", len(events), events)
	}
	e := events[0]
	if e.Kind != "canary" || e.Tenant != "victim" || e.Trace != "t-audit" ||
		e.Engine != "stackato" || e.Cell != "stackato/run0" || e.Func != "smash" ||
		e.Slot != "canary" || e.Seed == 0 || e.Addr == 0 {
		t.Fatalf("audit event mismatch: %+v", e)
	}
	if sink.Counts()["canary"] != 1 {
		t.Fatalf("sink counts = %v", sink.Counts())
	}
}
