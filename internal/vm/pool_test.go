package vm_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/vm"
)

// poolProgSrc touches every segment class: globals (init image and
// writes), a stack array, a malloc'd heap buffer, and deep-ish calls so
// frames, slabs and the shadow of integrity slots all see action.
const poolProgSrc = `
long gsum = 7;
char gbuf[64];
long work(long n) {
	char local[128];
	long i = 0;
	while (i < n) { local[i % 128] = i; gsum = gsum + local[i % 128]; i = i + 1; }
	return gsum;
}
long main() {
	char *h = malloc(4096);
	long i = 0;
	while (i < 512) { h[i] = i; i = i + 1; }
	strcpy(gbuf, "pristine-check");
	return work(200) + h[100];
}`

// runState captures everything observable about a finished run.
type runState struct {
	val   int64
	errS  string
	stats vm.Stats
	mem   map[string][]byte
}

func capture(m *vm.Machine, v int64, err error) runState {
	s := runState{val: v, stats: m.Stats(), mem: m.Mem.Snapshot()}
	if err != nil {
		s.errS = err.Error()
	}
	return s
}

func sameRun(t *testing.T, label string, a, b runState) {
	t.Helper()
	if a.val != b.val || a.errS != b.errS {
		t.Fatalf("%s: result (%d, %q) != (%d, %q)", label, a.val, a.errS, b.val, b.errS)
	}
	if a.stats != b.stats {
		t.Fatalf("%s: stats %+v != %+v", label, a.stats, b.stats)
	}
	for name, data := range a.mem {
		if !bytes.Equal(data, b.mem[name]) {
			t.Fatalf("%s: segment %s diverged", label, name)
		}
	}
}

// TestResetMatchesNew pins the reuse differential at the vm level: a
// Machine that ran once and was Reset must reproduce a fresh Machine's
// run bit-for-bit — result, stats (modeled cycles included) and final
// memory image — across all three execution tiers, for both a baseline
// and a randomizing engine, with jitter enabled.
func TestResetMatchesNew(t *testing.T) {
	prog := compile.MustCompile("pool.c", poolProgSrc)
	for _, tier := range []struct {
		name string
		exec vm.ExecTier
	}{{"switch", vm.TierSwitch}, {"threaded", vm.TierCompiled}, {"block", vm.TierBlock}} {
		for _, scheme := range []string{"fixed", "smokestack"} {
			t.Run(tier.name+"/"+scheme, func(t *testing.T) {
				mkEngine := func() layout.Engine {
					if scheme == "fixed" {
						return layout.NewFixed()
					}
					return layout.NewSmokestack(prog, rng.NewAESCtr(10, rng.SeededTRNG(33)), nil)
				}
				opts := func(seed uint64) *vm.Options {
					return &vm.Options{TRNG: rng.SeededTRNG(seed), Exec: tier.exec, JitterAmp: 0.05, JitterSeed: seed ^ 0xabc}
				}

				// Fresh reference run with seed 2.
				fresh := vm.New(prog, mkEngine(), &vm.Env{}, opts(2))
				v, err := fresh.Run()
				want := capture(fresh, v, err)

				// Pooled path: construct with seed 1, run, reset to seed 2.
				m := vm.New(prog, mkEngine(), &vm.Env{}, opts(1))
				m.SealForReuse()
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
				restored, rerr := m.Reset(mkEngine(), &vm.Env{}, opts(2))
				if rerr != nil {
					t.Fatal(rerr)
				}
				if restored == 0 {
					t.Fatal("copy-on-reset restored zero bytes after a run that wrote memory")
				}
				v, err = m.Run()
				sameRun(t, "reset-vs-new", capture(m, v, err), want)
			})
		}
	}
}

// TestResetPristineAfterBadRuns drives a Machine through every abnormal
// run ending — memory fault via wild store, divide fault, step limit,
// watchdog cancellation — and checks that Reset restores a verifiably
// pristine Machine (byte-level memory audit against the sealed baseline,
// zeroed counters, empty shadow stack) whose next clean run matches a
// fresh Machine's.
func TestResetPristineAfterBadRuns(t *testing.T) {
	prog := compile.MustCompile("pool.c", poolProgSrc)
	faultProg := compile.MustCompile("fault.c", `
long g = 3;
long main() {
	char *p = 99;
	g = 0;
	p[0] = 1;   // wild store: memory fault
	return 5 / g;
}`)
	spinProg := compile.MustCompile("spin.c", `
long main() { long i = 0; while (1) { i = i + 1; } return i; }`)

	mkOpts := func(seed uint64, limit uint64) *vm.Options {
		return &vm.Options{TRNG: rng.SeededTRNG(seed), StepLimit: limit}
	}

	fresh := vm.New(prog, layout.NewFixed(), &vm.Env{}, mkOpts(9, 0))
	v, err := fresh.Run()
	want := capture(fresh, v, err)

	t.Run("memfault", func(t *testing.T) {
		m := vm.New(faultProg, layout.NewFixed(), &vm.Env{}, mkOpts(1, 0))
		m.SealForReuse()
		if _, err := m.Run(); err == nil {
			t.Fatal("fault program succeeded")
		}
		if _, err := m.Reset(layout.NewFixed(), &vm.Env{}, mkOpts(2, 0)); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyPristine(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("steplimit", func(t *testing.T) {
		m := vm.New(spinProg, layout.NewFixed(), &vm.Env{}, mkOpts(1, 10_000))
		m.SealForReuse()
		var sl *vm.StepLimit
		if _, err := m.Run(); !errors.As(err, &sl) {
			t.Fatalf("want StepLimit, got %v", err)
		}
		if _, err := m.Reset(layout.NewFixed(), &vm.Env{}, mkOpts(2, 10_000)); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyPristine(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		m := vm.New(spinProg, layout.NewFixed(), &vm.Env{}, mkOpts(1, 0))
		m.SealForReuse()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		var c *vm.Canceled
		if _, err := m.RunContext(ctx); !errors.As(err, &c) {
			t.Fatalf("want Canceled, got %v", err)
		}
		if _, err := m.Reset(layout.NewFixed(), &vm.Env{}, mkOpts(2, 0)); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyPristine(); err != nil {
			t.Fatal(err)
		}
	})

	// After abuse on other programs, a pooled Machine over the main
	// program still reproduces the fresh reference run.
	t.Run("clean-after-reset", func(t *testing.T) {
		m := vm.New(prog, layout.NewFixed(), &vm.Env{}, mkOpts(1, 0))
		m.SealForReuse()
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Reset(layout.NewFixed(), &vm.Env{}, mkOpts(9, 0)); err != nil {
			t.Fatal(err)
		}
		v, err := m.Run()
		sameRun(t, "clean-after-reset", capture(m, v, err), want)
	})
}

// TestResetEntropyFault pins New-equivalent entropy semantics: a Reset
// whose TRNG is dead marks the Machine with the same construction fault
// New would surface, and a later Reset with a live TRNG revives it.
func TestResetEntropyFault(t *testing.T) {
	prog := compile.MustCompile("pool.c", poolProgSrc)
	dead := func() (uint64, bool) { return 0, false }
	m := vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1)})
	m.SealForReuse()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reset(layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: dead}); err != nil {
		t.Fatalf("entropy death must not fail Reset structurally: %v", err)
	}
	var ef *vm.EntropyFault
	if _, err := m.Run(); !errors.As(err, &ef) {
		t.Fatalf("want EntropyFault from run after dead-TRNG reset, got %v", err)
	}
	if _, err := m.Reset(layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("revived machine failed: %v", err)
	}
}

// TestResetRejectsIncompatible pins the structural-compatibility checks:
// construction-time choices cannot change across Reset.
func TestResetRejectsIncompatible(t *testing.T) {
	prog := compile.MustCompile("pool.c", poolProgSrc)
	m := vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1)})
	m.SealForReuse()
	cases := map[string]*vm.Options{
		"steplimit": {TRNG: rng.SeededTRNG(2), StepLimit: 777},
		"depth":     {TRNG: rng.SeededTRNG(2), MaxCallDepth: 3},
		"costs":     {TRNG: rng.SeededTRNG(2), Costs: &vm.Costs{ALU: 2}},
		"heap":      {TRNG: rng.SeededTRNG(2), HeapSize: 1 << 20},
		"tier":      {TRNG: rng.SeededTRNG(2), Exec: vm.TierSwitch},
	}
	for name, opts := range cases {
		if _, err := m.Reset(layout.NewFixed(), &vm.Env{}, opts); err == nil {
			t.Errorf("%s: incompatible reset accepted", name)
		}
	}
	// Unsealed machines refuse to reset.
	u := vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1)})
	if _, err := u.Reset(layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(2)}); err == nil {
		t.Error("unsealed reset accepted")
	}
}

// TestMachinePoolReuse pins the pool contract: a Put Machine comes back
// on the next compatible Get (same pointer — that is the whole point),
// engine swaps within a shape share one Machine, and the counters add up.
func TestMachinePoolReuse(t *testing.T) {
	prog := compile.MustCompile("pool.c", poolProgSrc)
	pool := vm.NewMachinePool(0)
	opts := &vm.Options{TRNG: rng.SeededTRNG(1)}

	m1 := pool.Get(prog, layout.NewFixed(), &vm.Env{}, opts)
	if _, err := m1.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)

	// Same shape, different engine instance (and even scheme): reuse.
	eng := layout.NewSmokestack(prog, rng.NewAESCtr(10, rng.SeededTRNG(3)), nil)
	m2 := pool.Get(prog, eng, &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(2)})
	if m2 != m1 {
		t.Fatal("pool did not recycle the machine")
	}
	if _, err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Put(m2)

	st := pool.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 2 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 2 puts", st)
	}
	if st.RestoredBytes == 0 {
		t.Fatal("no copy-on-reset bytes accounted")
	}

	pool.Drain()
	m3 := pool.Get(prog, layout.NewFixed(), &vm.Env{}, opts)
	if m3 == m1 {
		t.Fatal("drained pool returned a retained machine")
	}
}

// TestPoolRetire checks that retiring a code cache drops the Machines the
// pool holds for it at once, drops one still out on a run when it is put
// back, and leaves Machines of other caches pooled.
func TestPoolRetire(t *testing.T) {
	prog := compile.MustCompile("pool.c", poolProgSrc)
	pool := vm.NewMachinePool(0)
	private, other := vm.NewCodeCache(), vm.NewCodeCache()
	get := func(c *vm.CodeCache) *vm.Machine {
		return pool.Get(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1), CodeCache: c})
	}
	pooled, running, kept := get(private), get(private), get(other)
	pool.Put(pooled)
	pool.Put(kept)
	if st := pool.Stats(); st.Retained != 2 {
		t.Fatalf("retained %d before Retire, want 2", st.Retained)
	}
	pool.Retire(private)
	if st := pool.Stats(); st.Retained != 1 {
		t.Fatalf("retained %d after Retire, want 1 (the other cache's)", st.Retained)
	}
	drops := pool.Stats().Drops
	pool.Put(running)
	if st := pool.Stats(); st.Retained != 1 || st.Drops != drops+1 {
		t.Fatalf("Put after Retire: retained %d drops %d, want 1 and %d", st.Retained, st.Drops, drops+1)
	}
	if m := get(other); m != kept {
		t.Fatal("Retire dropped another cache's Machine")
	}
	if st := pool.Stats(); st.Retained != 0 {
		t.Fatalf("retained %d after the last Get, want 0", st.Retained)
	}
}

// TestPoolZeroAllocSteadyState pins the headline property: a pooled
// Get/Run/Put cycle in steady state allocates nothing.
func TestPoolZeroAllocSteadyState(t *testing.T) {
	prog := compile.MustCompile("pool.c", poolProgSrc)
	pool := vm.NewMachinePool(0)
	env := &vm.Env{}
	eng := layout.NewFixed()
	opts := &vm.Options{TRNG: rng.SeededTRNG(1)}
	run := func() {
		m := pool.Get(prog, eng, env, opts)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		pool.Put(m)
	}
	run() // warm the pool and every slab
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("pooled steady-state run allocates %.1f objects", avg)
	}
}

func ExampleMachinePool() {
	prog := compile.MustCompile("ex.c", `long main() { return 41 + 1; }`)
	pool := vm.NewMachinePool(0)
	for i := 0; i < 3; i++ {
		m := pool.Get(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(uint64(i))})
		v, _ := m.Run()
		fmt.Println(v)
		pool.Put(m)
	}
	st := pool.Stats()
	fmt.Println(st.Hits, st.Misses)
	// Output:
	// 42
	// 42
	// 42
	// 2 1
}
