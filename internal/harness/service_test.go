package harness

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/ir"
)

// sessionSrc is a small inline MiniC session program.
const sessionSrc = `
long work(long n) {
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < n) {
		acc = acc + i * 3;
		i = i + 1;
	}
	return acc;
}

long main() {
	long t;
	t = work(200) + work(100);
	print(t);
	return t & 32767;
}
`

// sessionSpinSrc runs long enough for a watchdog deadline to land mid-run.
const sessionSpinSrc = `
long main() {
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < 200000000) {
		acc = acc + i;
		i = i + 1;
	}
	return acc & 1023;
}
`

func sessionJSON(t *testing.T, recs []exp.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf, recs); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestSessionOfflineDeterminism pins the session layer's core invariant:
// records are a function of the spec alone — serial, parallel and repeat
// executions all serialize to identical bytes.
func TestSessionOfflineDeterminism(t *testing.T) {
	spec := SessionSpec{
		Source:  sessionSrc,
		Engines: []string{"fixed", "smokestack+aes-10", "stackato"},
		Seed:    42, Runs: 2,
	}
	ref, err := RunSession(Config{Seed: 1, Parallel: 1}, spec)
	if err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	if len(ref) != 6 {
		t.Fatalf("got %d records, want 6", len(ref))
	}
	for _, r := range ref {
		if r.Err != "" {
			t.Fatalf("record %s failed: %s", r.Cell, r.Err)
		}
		if r.Value("cycles") <= 0 {
			t.Fatalf("record %s has no cycles", r.Cell)
		}
	}
	refJSON := sessionJSON(t, ref)
	for _, par := range []int{1, 4} {
		got, err := RunSession(Config{Seed: 1, Parallel: par}, spec)
		if err != nil {
			t.Fatalf("RunSession parallel=%d: %v", par, err)
		}
		if !bytes.Equal(refJSON, sessionJSON(t, got)) {
			t.Fatalf("parallel=%d records differ from reference", par)
		}
	}
}

// TestSessionValidation pins the typed pre-stream errors.
func TestSessionValidation(t *testing.T) {
	cases := []struct {
		name string
		spec SessionSpec
		want string
	}{
		{"no engines", SessionSpec{Source: sessionSrc}, "no engines"},
		{"unknown engine", SessionSpec{Source: sessionSrc, Engines: []string{"nope"}}, "unknown engine"},
		{"unknown workload", SessionSpec{Workload: "nope", Engines: []string{"fixed"}}, "unknown workload"},
		{"both sources", SessionSpec{Workload: "lbm", Source: sessionSrc, Engines: []string{"fixed"}}, "exactly one"},
		{"neither source", SessionSpec{Engines: []string{"fixed"}}, "exactly one"},
		{"compile error", SessionSpec{Source: "long main( {", Engines: []string{"fixed"}}, "compile"},
	}
	for _, tc := range cases {
		_, err := SessionCells(Config{}, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSessionFaultClassified: a requested blackout schedule kills the
// entropy-consuming engine, but the failure must classify as "injected" —
// the server's 200-with-classified-records path, never a 5xx.
func TestSessionFaultClassified(t *testing.T) {
	recs, err := RunSession(Config{}, SessionSpec{
		Source:  sessionSrc,
		Engines: []string{"smokestack+aes-10"},
		Seed:    7,
		Fault:   &faultinject.Plan{EntropyPeriod: 1, EntropyBurst: 1},
	})
	if err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	failed := 0
	for _, r := range recs {
		if r.Err == "" {
			continue
		}
		failed++
		if r.ErrClass != "injected" {
			t.Errorf("record %s: ErrClass %q, want injected (err %s)", r.Cell, r.ErrClass, r.Err)
		}
	}
	if failed == 0 {
		t.Fatal("blackout produced no failures — injection not wired through the session path")
	}
}

// TestSessionDeadlineCanceled: a session context deadline lands mid-run;
// the run's record must classify as "canceled", and remaining cells must
// be shed with "canceled" records too (the between-cell satellite, seen
// through the session layer).
func TestSessionDeadlineCanceled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	spec := SessionSpec{
		Source:    sessionSpinSrc,
		Engines:   []string{"fixed", "baserand", "padding"},
		StepLimit: 4_000_000_000,
	}
	cells, err := SessionCells(Config{Ctx: ctx}, spec)
	if err != nil {
		t.Fatalf("SessionCells: %v", err)
	}
	r := Config{Ctx: ctx}.NewRunner()
	r.Workers = 1
	recs := r.Run(cells)
	// Cell 0 contributes its partial measurement record plus a canceled
	// error record; the two shed cells contribute one canceled record each.
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4: %+v", len(recs), recs)
	}
	if recs[0].Err != "" {
		t.Fatalf("first record should be cell 0's partial measurement, got err %q", recs[0].Err)
	}
	for _, rec := range recs[1:] {
		if rec.ErrClass != "canceled" {
			t.Fatalf("record %s: ErrClass %q (err %q), want canceled", rec.Cell, rec.ErrClass, rec.Err)
		}
	}
}

// TestSessionEvictionReleasesMachines runs more distinct inline programs
// than the program cache holds, each under two engines that pool under
// different keys, and checks that evicting a program drops its pooled
// Machines: the pool keeps at most two Machines per cached program, not
// two per program ever submitted.
func TestSessionEvictionReleasesMachines(t *testing.T) {
	DrainMachinePool()
	defer DrainMachinePool()
	const programs = ProgCacheCap + 40
	for i := 0; i < programs; i++ {
		spec := SessionSpec{
			Source:  fmt.Sprintf("long main() { return %d; }", 1000+i),
			Engines: []string{"fixed", "cleanstack"},
		}
		recs, err := RunSession(Config{}, spec)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		for _, r := range recs {
			if r.Err != "" {
				t.Fatalf("program %d: %s: %s", i, r.Cell, r.Err)
			}
		}
	}
	if got := MachinePoolStats().Retained; got > 2*ProgCacheCap {
		t.Fatalf("pool retains %d Machines after %d programs, want at most %d (2 per cached program)",
			got, programs, 2*ProgCacheCap)
	}
}

// TestEvictedInlineProgramsCollected pins the memory bound the package
// comment promises: once the inline-program cache evicts a program and
// retires its Machines, nothing in the process keeps the program
// reachable. ProgCacheCap more distinct programs push the first few out;
// the finalizers on those first programs must then all run.
func TestEvictedInlineProgramsCollected(t *testing.T) {
	DrainMachinePool()
	defer DrainMachinePool()
	const tracked = 8
	var collected atomic.Int32
	for i := 0; i < ProgCacheCap+tracked; i++ {
		spec := SessionSpec{
			Source:  fmt.Sprintf("long main() { long x; x = %d; return x & 255; }", 7000+i),
			Engines: []string{"fixed", "smokestack+aes-10"},
		}
		if i < tracked {
			p, err := sessionProgram(spec)
			if err != nil {
				t.Fatalf("program %d: %v", i, err)
			}
			runtime.SetFinalizer(p.prog, func(*ir.Program) { collected.Add(1) })
		}
		recs, err := RunSession(Config{}, spec)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		for _, r := range recs {
			if r.Err != "" {
				t.Fatalf("program %d: %s: %s", i, r.Cell, r.Err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < tracked {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d evicted inline programs still reachable after GC",
				tracked-int(collected.Load()), tracked)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionProgCacheBounded floods the inline-program cache with unique
// sources and checks the FIFO bound holds.
func TestSessionProgCacheBounded(t *testing.T) {
	for i := 0; i < ProgCacheCap+8; i++ {
		src := fmt.Sprintf("long main() { return %d; }", i)
		if _, err := SessionCells(Config{}, SessionSpec{Source: src, Engines: []string{"fixed"}}); err != nil {
			t.Fatalf("SessionCells %d: %v", i, err)
		}
	}
	length, _, misses, evictions := SessionProgCacheStats()
	if length > ProgCacheCap {
		t.Fatalf("program cache holds %d entries, cap %d", length, ProgCacheCap)
	}
	if misses == 0 || evictions == 0 {
		t.Fatalf("expected misses and evictions after flooding (misses %d, evictions %d)", misses, evictions)
	}
	// Re-submitting a cached source must hit.
	_, hitsBefore, _, _ := SessionProgCacheStats()
	src := fmt.Sprintf("long main() { return %d; }", ProgCacheCap+7)
	if _, err := SessionCells(Config{}, SessionSpec{Source: src, Engines: []string{"fixed"}}); err != nil {
		t.Fatalf("SessionCells: %v", err)
	}
	_, hitsAfter, _, _ := SessionProgCacheStats()
	if hitsAfter <= hitsBefore {
		t.Fatal("re-submitted source missed the program cache")
	}
}
