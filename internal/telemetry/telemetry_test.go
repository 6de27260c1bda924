package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestGridRoundExactSums(t *testing.T) {
	// Values off the grid sum with error; grid-rounded values never do.
	vals := []float64{0.1, 92.8, 19.2, 3.4, 265.6, 1.0 / 3.0}
	var rows []float64
	for _, v := range vals {
		g := GridRound(v)
		if math.Abs(g-v) > math.Ldexp(1, -21) {
			t.Fatalf("GridRound(%v) = %v moved more than half a grid step", v, g)
		}
		if g != GridRound(g) {
			t.Fatalf("GridRound not idempotent at %v", v)
		}
		rows = append(rows, g)
	}
	var fwd, rev float64
	for _, v := range rows {
		fwd += v
	}
	for i := len(rows) - 1; i >= 0; i-- {
		rev += rows[i]
	}
	if fwd != rev {
		t.Fatalf("grid-rounded sum is order-dependent: %v vs %v", fwd, rev)
	}
}

func TestRegistryNilIsDormant(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.SetGauge("g", func() float64 { return 1 })
	r.Histogram("h", []float64{1}).Observe(2)
	r.Cell("c").AddCounter("k", 3)
	r.Cell("c").AddRows([]Row{{Kind: "op", Name: "add", Count: 1, Cycles: 1}})
	r.Cell("c").Timing(0.5, 1)
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Cells) != 0 {
		t.Fatalf("nil registry produced data: %+v", s)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(1)
	r.Counter("alpha").Add(2)
	r.SetGauge("mid", func() float64 { return 3 })
	r.Cell("b/cell").AddRows([]Row{
		{Kind: "op", Name: "load", Count: 2, Cycles: GridRound(4)},
		{Kind: "cat", Name: "host", Count: 1, Cycles: GridRound(1.5)},
		{Kind: "op", Name: "load", Count: 1, Cycles: GridRound(2)}, // merges
	})
	r.Cell("a/cell").AddCounter("k", 1)
	s := r.Snapshot()
	if s.Counters[0].Name != "alpha" || s.Counters[1].Name != "zeta" {
		t.Fatalf("counters unsorted: %+v", s.Counters)
	}
	if s.Cells[0].Name != "a/cell" || s.Cells[1].Name != "b/cell" {
		t.Fatalf("cells unsorted: %+v", s.Cells)
	}
	b := s.Cells[1]
	if len(b.Rows) != 2 {
		t.Fatalf("duplicate rows did not merge: %+v", b.Rows)
	}
	// Sorted kind then name: cat/host before op/load.
	if b.Rows[0].Kind != "cat" || b.Rows[1].Name != "load" || b.Rows[1].Count != 3 {
		t.Fatalf("rows %+v", b.Rows)
	}
	if b.TotalCycles != b.Rows[0].Cycles+b.Rows[1].Cycles {
		t.Fatalf("TotalCycles %v is not the row sum", b.TotalCycles)
	}
}

// TestCellAddRowsBounded pins that a long-lived cell merges on insert: a
// thousand flushes of one row set leave one stored row per (kind, name),
// and the snapshot equals a single merge of all thousand flushes bit for
// bit.
func TestCellAddRowsBounded(t *testing.T) {
	set := []Row{
		{Kind: "op", Name: "load", Count: 3, Cycles: GridRound(6.25)},
		{Kind: "cat", Name: "host", Count: 1, Cycles: GridRound(1.0 / 3)},
		{Kind: "op", Name: "add", Count: 7, Cycles: GridRound(7)},
		{Kind: "op", Name: "load", Count: 1, Cycles: GridRound(2)},
	}
	const flushes = 1000
	r := NewRegistry()
	c := r.Cell("session/fixed/run0")
	var all []Row
	for i := 0; i < flushes; i++ {
		c.AddRows(set)
		all = append(all, set...)
	}
	if n := len(c.rows); n != 3 {
		t.Fatalf("cell stores %d rows after %d flushes, want 3", n, flushes)
	}
	want := MergeRows(nil, all)
	var wantTotal float64
	for _, w := range want {
		wantTotal += w.Cycles
	}
	got := r.Snapshot().Cells[0]
	if len(got.Rows) != len(want) {
		t.Fatalf("snapshot rows %+v, want %+v", got.Rows, want)
	}
	for i := range want {
		if got.Rows[i] != want[i] {
			t.Fatalf("row %d: %+v, want %+v", i, got.Rows[i], want[i])
		}
	}
	if got.TotalCycles != wantTotal {
		t.Fatalf("TotalCycles %v, want %v", got.TotalCycles, wantTotal)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs").Add(7)
	r.Histogram("wall", []float64{1, 10}).Observe(0.5)
	r.Cell("e/c").SetRNG(map[string]uint64{"draws": 42})
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Counters) != 1 || s.Counters[0].Value != 7 {
		t.Fatalf("counters %+v", s.Counters)
	}
	if len(s.Cells) != 1 || s.Cells[0].RNG["draws"] != 42 {
		t.Fatalf("cells %+v", s.Cells)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 {
		t.Fatalf("histograms %+v", s.Histograms)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("vm.calls").Add(3)
	r.SetGauge("cache.len", func() float64 { return 2 })
	r.Histogram("wall", []float64{1}).Observe(0.5)
	r.Cell("e/c").AddRows([]Row{{Kind: "op", Name: "add", Count: 4, Cycles: GridRound(8)}})
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"smokestack_vm_calls 3",
		"smokestack_cache_len 2",
		`smokestack_wall_bucket{le="1"} 1`,
		`smokestack_cell_cycles{cell="e/c",kind="op",name="add"} 8`,
		`smokestack_cell_total_cycles{cell="e/c"} 8`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Histogram("h", []float64{10, 100}).Observe(float64(i))
				c := r.Cell("cell")
				c.AddCounter("k", 1)
				c.Timing(0.001, 1)
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters[0].Value != 8000 {
		t.Fatalf("counter %d, want 8000", s.Counters[0].Value)
	}
	if s.Cells[0].Counters["k"] != 8000 || s.Cells[0].Attempts != 8000 {
		t.Fatalf("cell %+v", s.Cells[0])
	}
}

func TestTracerSeqAndReplay(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.now = func() int64 { return 42 } // fixed clock; seq carries the order
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Event("tick", "cell", map[string]any{"g": g, "i": i})
			}
		}(g)
	}
	wg.Wait()
	tr.Event("done", "", nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 201 {
		t.Fatalf("%d events, want 201", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d; emission order not replayable", i, e.Seq)
		}
	}
	if events[200].Kind != "done" {
		t.Fatalf("last event %+v", events[200])
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Event("k", "c", nil) // must not panic
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}
