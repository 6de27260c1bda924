package vm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/vm"
)

// spinSrc never terminates on its own: only the step limit or the context
// watchdog can stop it.
const spinSrc = `
long main() {
	long x;
	x = 0;
	while (x >= 0) {
		x = x + 1;
		if (x > 1000000000) {
			x = 0;
		}
	}
	return x;
}`

// newSpin builds the infinite loop under the given tier with an
// effectively unbounded step limit. Construction is separate from
// RunContext so tests start their cancellation clocks after vm.New: the
// watchdog contract being pinned here covers execution, not one-time
// lowering latency.
func newSpin(t *testing.T, tier vm.ExecTier) *vm.Machine {
	t.Helper()
	prog := compile.MustCompile("spin.c", spinSrc)
	// 2^32 steps is still hours of simulated work — effectively unbounded
	// for a watchdog test.
	return vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{
		TRNG:      rng.SeededTRNG(1),
		StepLimit: 1 << 32,
		Exec:      tier,
	})
}

var watchdogTiers = []struct {
	name string
	tier vm.ExecTier
}{
	{"switch", vm.TierSwitch},
	{"compiled", vm.TierCompiled},
	{"block", vm.TierBlock}, // alias of TierCompiled; see vm.TierBlock
}

// TestWatchdogCancelsInfiniteLoop pins the supervised-execution contract
// on both tiers: a deadline stops a program that would never halt, the
// error is a typed *vm.Canceled carrying the context cause, and the
// machine still reports coherent partial Stats.
func TestWatchdogCancelsInfiniteLoop(t *testing.T) {
	for _, tc := range watchdogTiers {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m := newSpin(t, tc.tier)
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := m.RunContext(ctx)
			var c *vm.Canceled
			if !errors.As(err, &c) {
				t.Fatalf("want *vm.Canceled, got %T: %v", err, err)
			}
			if !errors.Is(c.Cause, context.DeadlineExceeded) {
				t.Fatalf("cancellation cause = %v, want DeadlineExceeded", c.Cause)
			}
			st := m.Stats()
			if st.Instructions == 0 || st.Cycles == 0 {
				t.Fatalf("partial stats missing after cancellation: %+v", st)
			}
		})
	}
}

// TestWatchdogPartialStatsSemantics pins that both tiers stop at a chunk
// boundary: the instruction count at cancellation is a multiple of the
// supervision interval's granularity only in the sense that both tiers
// expose the same *kind* of partial state — nonzero, internally consistent
// (cycles grow with instructions), and the machine remains queryable.
func TestWatchdogPartialStatsSemantics(t *testing.T) {
	for _, tc := range watchdogTiers {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m := newSpin(t, tc.tier)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			_, err := m.RunContext(ctx)
			var c *vm.Canceled
			if !errors.As(err, &c) {
				t.Fatalf("want *vm.Canceled, got %v", err)
			}
			if !errors.Is(c.Cause, context.Canceled) {
				t.Fatalf("cause = %v, want context.Canceled", c.Cause)
			}
			st := m.Stats()
			if st.Instructions == 0 {
				t.Fatal("no instructions executed before cancellation")
			}
			if st.Cycles <= 0 {
				t.Fatalf("cycles not accounted: %+v", st)
			}
		})
	}
}

// TestRunContextPreCancelled pins that an already-dead context never
// starts execution.
func TestRunContextPreCancelled(t *testing.T) {
	for _, tc := range watchdogTiers {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := newSpin(t, tc.tier)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := m.RunContext(ctx)
			var c *vm.Canceled
			if !errors.As(err, &c) {
				t.Fatalf("want *vm.Canceled, got %v", err)
			}
			if st := m.Stats(); st.Instructions != 0 {
				t.Fatalf("pre-cancelled context still executed %d instructions", st.Instructions)
			}
		})
	}
}

// TestRunContextBackgroundMatchesRun pins that a background context is a
// strict no-op: same result and bit-identical stats as plain Run, so the
// supervised path can be used unconditionally.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	const src = `
long main() {
	long i;
	long acc;
	i = 0;
	acc = 0;
	while (i < 50000) {
		acc = acc + i * 7;
		i = i + 1;
	}
	return acc & 262143;
}`
	prog := compile.MustCompile("bg.c", src)
	for _, tc := range watchdogTiers {
		run := func(ctx context.Context) (int64, vm.Stats, error) {
			m := vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{
				TRNG: rng.SeededTRNG(7), Exec: tc.tier,
			})
			var v int64
			var err error
			if ctx == nil {
				v, err = m.Run()
			} else {
				v, err = m.RunContext(ctx)
			}
			return v, m.Stats(), err
		}
		vPlain, stPlain, errPlain := run(nil)
		vBg, stBg, errBg := run(context.Background())
		if errPlain != nil || errBg != nil {
			t.Fatalf("%s: errors %v / %v", tc.name, errPlain, errBg)
		}
		if vPlain != vBg || stPlain != stBg {
			t.Fatalf("%s: background RunContext diverged from Run:\n%d %+v\n%d %+v",
				tc.name, vPlain, stPlain, vBg, stBg)
		}
	}
}

// TestWatchdogStepLimitStillExact pins that supervised execution does not
// change where the step limit lands: a run under a never-cancelled context
// hits StepLimit at the identical instruction count as an unsupervised one.
func TestWatchdogStepLimitStillExact(t *testing.T) {
	prog := compile.MustCompile("spin.c", spinSrc)
	for _, tc := range watchdogTiers {
		run := func(ctx context.Context) (vm.Stats, error) {
			m := vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{
				TRNG: rng.SeededTRNG(1), StepLimit: 1_000_000, Exec: tc.tier,
			})
			var err error
			if ctx == nil {
				_, err = m.Run()
			} else {
				_, err = m.RunContext(ctx)
			}
			return m.Stats(), err
		}
		ctx, cancel := context.WithCancel(context.Background())
		stSup, errSup := run(ctx)
		cancel()
		stPlain, errPlain := run(nil)
		var slA, slB *vm.StepLimit
		if !errors.As(errSup, &slA) || !errors.As(errPlain, &slB) {
			t.Fatalf("%s: want StepLimit from both, got %v / %v", tc.name, errSup, errPlain)
		}
		if stSup != stPlain {
			t.Fatalf("%s: supervised step-limit landing diverged:\n%+v\n%+v", tc.name, stSup, stPlain)
		}
	}
}
