package attack_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/attack"
	"repro/internal/attack/corpus"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/vm"
)

// deploy builds a deterministic deployment of prog under the named engine.
func deploy(t *testing.T, p *corpus.Program, engine string, seed uint64) *attack.Deployment {
	t.Helper()
	eng, err := layout.NewByName(engine, p.Prog, seed, rng.SeededTRNG(seed))
	if err != nil {
		t.Fatalf("engine %s: %v", engine, err)
	}
	return &attack.Deployment{Program: p, Engine: eng, TRNG: rng.SeededTRNG(seed + 1)}
}

// TestBenignRuns checks that with no attacker every corpus program runs
// clean and leaks nothing, under both the baseline and Smokestack.
func TestBenignRuns(t *testing.T) {
	secrets := []string{
		"K3Y-MATERIAL-XY", "DATA-SEG-SECRET", "HEAP-SEG-SECRET",
		"RSA-PRIVATE-KEY-MODEL", "CAPTURE-FILTERS", "BEGIN RSA PRIVATE KEY",
	}
	for _, engine := range []string{"fixed", "smokestack+aes-10"} {
		for _, p := range corpus.All() {
			env := &vm.Env{}
			eng, err := layout.NewByName(engine, p.Prog, 7, rng.SeededTRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			m := vm.New(p.Prog, eng, env, &vm.Options{TRNG: rng.SeededTRNG(9)})
			if _, err := m.Run(); err != nil {
				t.Errorf("%s under %s: benign run failed: %v", p.Name, engine, err)
				continue
			}
			for _, s := range secrets {
				if bytes.Contains(env.Output, []byte(s)) {
					t.Errorf("%s under %s: benign run leaked %q", p.Name, engine, s)
				}
			}
		}
	}
}

// TestAttacksBypassBaseline: every exploit must land on the deterministic
// fixed layout on the first attempt — the calibration the whole security
// evaluation rests on.
func TestAttacksBypassBaseline(t *testing.T) {
	scenarios := append(attack.PentestMatrix(), attack.CVEScenarios()...)
	for _, s := range scenarios {
		r := s.Run(deploy(t, s.Program, "fixed", 11), 1)
		if !r.Succeeded() {
			t.Errorf("%s vs fixed: expected success, got %s", s.Name, r)
		}
	}
}

// TestAttacksBypassPadding: compile-time entry padding shifts every offset
// equally, leaving the relative distances DOP needs intact (§II-B).
func TestAttacksBypassPadding(t *testing.T) {
	scenarios := append(attack.PentestMatrix(), attack.CVEScenarios()...)
	for _, s := range scenarios {
		r := s.Run(deploy(t, s.Program, "padding", 13), 1)
		if !r.Succeeded() {
			t.Errorf("%s vs padding: expected success, got %s", s.Name, r)
		}
	}
}

// TestAttacksBypassBaseRand: stack-base randomization only moves absolute
// addresses; relative payloads and live pointer leaks defeat it (§II-B).
func TestAttacksBypassBaseRand(t *testing.T) {
	scenarios := append(attack.PentestMatrix(), attack.CVEScenarios()...)
	for _, s := range scenarios {
		r := s.Run(deploy(t, s.Program, "baserand", 17), 1)
		if !r.Succeeded() {
			t.Errorf("%s vs baserand: expected success, got %s", s.Name, r)
		}
	}
}

// TestAttacksBypassStaticRand: the probe (or binary analysis) reveals the
// compile-time permutation once and for all; cross-frame exploits such as
// the paper's librelp PoC then land unconditionally (§II-C). Same-frame
// forward overflows land whenever the permutation leaves the targets above
// the buffer, which the probe tells the attacker in advance.
func TestAttacksBypassStaticRand(t *testing.T) {
	for _, s := range []*attack.Scenario{attack.LibrelpScenario(), attack.ProftpdScenario()} {
		r := s.Run(deploy(t, s.Program, "staticrand", 19), 1)
		if !r.Succeeded() {
			t.Errorf("%s vs staticrand: expected success, got %s", s.Name, r)
		}
	}
	// Indexed-write scenarios do not depend on the buffer's position at
	// all, so static permutation cannot help there either.
	for _, s := range []*attack.Scenario{attack.DataIndexedScenario(), attack.HeapIndexedScenario()} {
		r := s.Run(deploy(t, s.Program, "staticrand", 19), 1)
		if !r.Succeeded() {
			t.Errorf("%s vs staticrand: expected success, got %s", s.Name, r)
		}
	}
}

// TestSmokestackStopsEverything: the headline result — with per-invocation
// permutation (AES-10 source) every exploit fails within the brute-force
// budget, each attempt ending in a miss, a crash or a guard detection.
func TestSmokestackStopsEverything(t *testing.T) {
	scenarios := append(attack.PentestMatrix(), attack.CVEScenarios()...)
	const budget = 10
	for _, s := range scenarios {
		r := s.Run(deploy(t, s.Program, "smokestack+aes-10", 23), budget)
		if r.Err != nil {
			t.Errorf("%s vs smokestack: %v", s.Name, r.Err)
			continue
		}
		if r.Succeeded() {
			t.Errorf("%s vs smokestack: attack got through: %s", s.Name, r)
		}
		if r.Attempts != budget {
			t.Errorf("%s vs smokestack: expected %d attempts, got %d", s.Name, budget, r.Attempts)
		}
	}
}

// TestSmokestackDetectsSprays: the wide overflows (wireshark, librelp)
// should frequently corrupt the permuted function-identifier slot, so the
// guard check must fire on a solid fraction of attempts.
func TestSmokestackDetectsSprays(t *testing.T) {
	for _, s := range []*attack.Scenario{attack.WiresharkScenario(), attack.LibrelpScenario()} {
		r := s.Run(deploy(t, s.Program, "smokestack+aes-10", 29), 20)
		if r.Succeeded() {
			t.Fatalf("%s: bypassed smokestack: %s", s.Name, r)
		}
		if r.Detected == 0 {
			t.Errorf("%s: expected at least one guard detection in 20 attempts, got %s", s.Name, r)
		}
	}
}

// TestPredictionAblation reproduces E7: with the memory-state pseudo
// source, disclosing the generator state lets the attacker predict the next
// invocation's permutation (and reconstruct the guard key from main's live
// frame), landing the DOP chain through Smokestack. The AES-10 source has
// no memory state; the same attacker degrades to the stale probe and is
// stopped.
func TestPredictionAblation(t *testing.T) {
	p := corpus.Listing1()

	// Pseudo source: predictable.
	pseudoEng := layout.NewSmokestack(p.Prog, rng.NewPseudo(0x1234), nil)
	d := &attack.Deployment{Program: p, Engine: pseudoEng, TRNG: rng.SeededTRNG(31)}
	r := attack.PredictionScenario(pseudoEng).Run(d, 30)
	if !r.Succeeded() {
		t.Errorf("prediction vs smokestack+pseudo: expected bypass, got %s", r)
	}

	// AES-10 source: not disclosable.
	aesEng := layout.NewSmokestack(p.Prog, rng.NewAESCtr(10, rng.SeededTRNG(37)), nil)
	d2 := &attack.Deployment{Program: p, Engine: aesEng, TRNG: rng.SeededTRNG(41)}
	r2 := attack.PredictionScenario(aesEng).Run(d2, 10)
	if r2.Succeeded() {
		t.Errorf("prediction vs smokestack+aes-10: expected stop, got %s", r2)
	}
}

// TestGuardAblation: without the function-identifier guard, wide sprays are
// never *detected* (they can still miss); with it, detection kicks in.
func TestGuardAblation(t *testing.T) {
	p := corpus.Wireshark()
	noGuard := layout.NewSmokestack(p.Prog, rng.NewAESCtr(10, rng.SeededTRNG(43)), &layout.SmokestackOptions{Guard: false})
	d := &attack.Deployment{Program: p, Engine: noGuard, TRNG: rng.SeededTRNG(47)}
	r := attack.WiresharkScenario().Run(d, 20)
	if r.Detected != 0 {
		t.Errorf("guardless smokestack reported detections: %s", r)
	}
}

func TestProbeReturnsAllFrames(t *testing.T) {
	p := corpus.Librelp()
	d := deploy(t, p, "fixed", 53)
	b, err := attack.Probe(d, "chkPeerName")
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"chkPeerName", "lstnInit", "main"} {
		if _, ok := b.Frames[fn]; !ok {
			t.Errorf("probe missing frame %s", fn)
		}
	}
	if off, ok := b.Off("chkPeerName", "allNames"); !ok || off < 0 {
		t.Errorf("probe: bad allNames offset %d ok=%v", off, ok)
	}
}

// TestPentestAttemptAllocation pins on-demand backing on the attack path:
// a direct-heap attempt (a probe and an attack run, each on a fresh
// Machine) allocates kilobytes, not the 64 MiB heap and 8 MiB stack its
// Machines map.
func TestPentestAttemptAllocation(t *testing.T) {
	var s *attack.Scenario
	for _, c := range attack.PentestMatrix() {
		if c.Name == "direct-heap" {
			s = c
		}
	}
	if s == nil {
		t.Fatal("no direct-heap scenario")
	}
	eng := layout.NewSmokestack(s.Program.Prog, rng.NewAESCtr(10, rng.SeededTRNG(3)), nil)
	d := &attack.Deployment{Program: s.Program, Engine: eng, TRNG: rng.SeededTRNG(4)}
	if _, err := s.Attempt(d); err != nil { // warm the compile and layout caches
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Attempt(d); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("one attempt allocated %d bytes", n)
	}
}
