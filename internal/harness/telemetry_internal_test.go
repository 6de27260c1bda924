package harness

import (
	"bytes"
	"testing"

	"repro/internal/compile"
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
