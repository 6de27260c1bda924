package harness

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/exp"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// TestSpanModeCompileEventsInTree pins that a span-mode Config mirrors the
// code cache's compile events under the trace root, so a trace holding
// them folds with no unspanned events.
func TestSpanModeCompileEventsInTree(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	t.Cleanup(Config{Trace: tr, TraceID: "t-compile"}.registerGauges())
	// A program no Machine has run yet misses the process-wide code cache,
	// whatever earlier tests compiled; a profiled Machine compiles both the
	// dormant stream and its counted variant.
	prog := compile.MustCompile("fresh.c", "long main() { return 7; }")
	vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{
		TRNG: rng.SeededTRNG(1), Exec: vm.TierCompiled, Prof: vm.NewProfile(),
	})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Kind != "compile" || events[1].Kind != "compile" {
		t.Fatalf("want the two compile events, got %+v", events)
	}
	tree := telemetry.FoldTrace(events)
	if len(tree.Unspanned) != 0 {
		t.Fatalf("%d unspanned events, first %+v", len(tree.Unspanned), tree.Unspanned[0])
	}
	if len(tree.Roots) != 1 || tree.Roots[0].ID != telemetry.NewSpan("t-compile").ID {
		t.Fatalf("want one root, the trace root; got %d roots", len(tree.Roots))
	}
}

// TestRunUnhooksCompileObserver pins that a finished Run stops mirroring
// compiles into its trace: the observer it installs on the process-wide
// code cache goes when Run returns.
func TestRunUnhooksCompileObserver(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	if _, err := Run(Config{Seed: 42, Parallel: 2, Trace: tr, TraceID: "t-unhook"}, "faults"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	prog := compile.MustCompile("after-run.c", "long main() { return 9; }")
	vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1), Exec: vm.TierCompiled})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatalf("a compile after Run returned reached its trace: %s", buf.Bytes()[n:])
	}
}

// TestObservationAllocsWithoutTracer pins the untraced observation path
// the server takes for every session cell. With Metrics and CellDone set
// and no tracer, one observed cell — runStart, a profiled pooled run,
// runEnd, and done's fold into the registry and CellDone — allocates
// only its cell key: trace events are built only for a tracer, and the
// obs, its profile and its row buffer are pooled. The runner hooks
// likewise allocate only the key of the cell whose wall time they record.
func TestObservationAllocsWithoutTracer(t *testing.T) {
	prog := compile.MustCompile("observed.c", `
long f(long n) { return n + 1; }
long main() { long s = 0; for (long i = 0; i < 8; i++) { s += f(i); } return s; }`)
	var rows int
	cfg := Config{
		Metrics:  telemetry.NewRegistry(),
		CellDone: func(_ string, r []telemetry.Row, _ map[string]uint64) { rows = len(r) },
	}
	pool := vm.NewMachinePool(0)
	eng, env := layout.NewFixed(), &vm.Env{}
	opts := &vm.Options{TRNG: rng.SeededTRNG(1)}
	cell := func() {
		o := cfg.obs("session", "fixed/run0")
		o.runStart("fixed/run0")
		opts.Prof = o.profile()
		m := pool.Get(prog, eng, env, opts)
		_, err := m.Run()
		o.runEnd("fixed/run0", m, err)
		pool.Put(m)
		o.done()
	}
	cell()
	if rows == 0 {
		t.Fatal("CellDone received no rows")
	}
	if n := testing.AllocsPerRun(20, cell); n > 1 && !raceEnabled {
		t.Fatalf("an untraced observed cell allocates %.1f objects, want only its key", n)
	}

	h := cfg.hooks()
	if h.CellStart != nil {
		t.Fatal("CellStart hook installed without a tracer")
	}
	c := exp.Cell{Experiment: "session", Name: "fixed/run0"}
	recs := []exp.Record{{Experiment: "session", Cell: "fixed/run0"}}
	if n := testing.AllocsPerRun(20, func() { h.CellEnd(c, recs, time.Millisecond, 1) }); n > 1 {
		t.Fatalf("an untraced CellEnd hook allocates %.1f objects, want only the cell key", n)
	}
}

// TestObservationPoolConcurrent runs observed cells on 8 goroutines at
// once, so pooled observation contexts, profiles and row buffers pass
// between goroutines: every cell must reach CellDone with exactly its own
// rows, and the shared registry cell must hold their sum. Run it under
// -race.
func TestObservationPoolConcurrent(t *testing.T) {
	prog := compile.MustCompile("observed.c", `
long f(long n) { return n + 1; }
long main() { long s = 0; for (long i = 0; i < 8; i++) { s += f(i); } return s; }`)
	pool := vm.NewMachinePool(0)
	var mu sync.Mutex
	totals := make(map[string]float64)
	cfg := Config{
		Metrics: telemetry.NewRegistry(),
		CellDone: func(cell string, rows []telemetry.Row, _ map[string]uint64) {
			var sum float64
			for _, r := range rows {
				sum += r.Cycles
			}
			mu.Lock()
			defer mu.Unlock()
			totals[cell] = sum
		},
	}
	const workers, cells = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < cells; i++ {
				o := cfg.obs("session", fmt.Sprintf("w%d/run%d", g, i))
				m := pool.Get(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1), Prof: o.profile()})
				if _, err := m.Run(); err != nil {
					t.Error(err)
				}
				pool.Put(m)
				o.done()
			}
		}(g)
	}
	wg.Wait()
	snap := cfg.Metrics.Snapshot()
	if len(totals) != workers*cells || len(snap.Cells) != workers*cells {
		t.Fatalf("%d CellDone cells and %d registry cells, want %d", len(totals), len(snap.Cells), workers*cells)
	}
	want := totals["session/w0/run0"]
	for _, c := range snap.Cells {
		if totals[c.Name] != want || c.TotalCycles != want {
			t.Fatalf("cell %s: CellDone total %v, registry total %v, want %v", c.Name, totals[c.Name], c.TotalCycles, want)
		}
	}
}
