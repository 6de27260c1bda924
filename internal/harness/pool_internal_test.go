package harness

import (
	"testing"

	"repro/internal/layout"
	"repro/internal/workload"
)

// TestFailedRunOnceReleasesMachine pins runOnce's release on failure: a
// failed run returns its Machine to the shared pool, so the next Get of
// the same shape pops that Machine and Resets it instead of rebuilding.
func TestFailedRunOnceReleasesMachine(t *testing.T) {
	cfg := Config{}

	// A workload whose checksum never matches: every run fails after a
	// full (state-dirtying) execution.
	bad := &workload.Workload{
		Name:   "fail-probe",
		Source: "int g; int main() { g = 7; return g; }",
		Want:   999,
	}
	s0 := machinePool.Stats()
	if _, err := runOnce(cfg, bad, layout.NewFixed(), 1, 0, nil); err == nil {
		t.Fatal("checksum mismatch did not fail")
	}
	s1 := machinePool.Stats()
	if s1.Misses != s0.Misses+1 || s1.Puts != s0.Puts+1 {
		t.Fatalf("failed run: misses %d->%d puts %d->%d; want one miss, one put",
			s0.Misses, s1.Misses, s0.Puts, s1.Puts)
	}
	// The next run of the same shape is served by Reset, not New.
	if _, err := runOnce(cfg, bad, layout.NewFixed(), 1, 0, nil); err == nil {
		t.Fatal("checksum mismatch did not fail on the second run")
	}
	s2 := machinePool.Stats()
	if s2.Hits != s1.Hits+1 || s2.Misses != s1.Misses {
		t.Fatalf("second run: hits %d->%d misses %d->%d; want one hit, no miss",
			s1.Hits, s2.Hits, s1.Misses, s2.Misses)
	}
	if s2.RestoredBytes <= s1.RestoredBytes {
		t.Fatal("reset restored no bytes despite a dirty global")
	}

	// Success path: the caller releases, and the next run of the same
	// shape reuses the identical Machine.
	good := &workload.Workload{
		Name:   "reuse-probe",
		Source: "int main() { return 7; }",
		Want:   7,
	}
	m1, err := runOnce(cfg, good, layout.NewFixed(), 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.release(m1)
	m2, err := runOnce(cfg, good, layout.NewFixed(), 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("released Machine was not reused by the next run")
	}
	cfg.release(m2)

	// NoPool opts out end to end: no pool traffic at all.
	s3 := machinePool.Stats()
	noPool := Config{NoPool: true}
	m3, err := runOnce(noPool, good, layout.NewFixed(), 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	noPool.release(m3)
	if s4 := machinePool.Stats(); s4 != s3 {
		t.Fatalf("NoPool run touched the pool: %+v -> %+v", s3, s4)
	}
}
