package vm

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/layout"
	"repro/internal/rng"
)

// shadowSpinSrc keeps several call frames live at all times (main -> outer
// -> inner) so a watchdog cancellation almost certainly lands mid-call,
// with return tokens on the disjoint shadow stack.
const shadowSpinSrc = `
long inner(long x) {
	long i;
	long acc;
	acc = x;
	i = 0;
	while (i < 500) {
		acc = acc + i * 3 + (acc & 7);
		i = i + 1;
	}
	return acc;
}

long outer(long x) {
	return inner(x) + inner(x + 1);
}

long main() {
	long r;
	r = 0;
	while (r >= 0) {
		r = (r + outer(r)) & 1048575;
	}
	return r;
}`

// TestShadowStackBalancedAfterWatchdogCancel is the satellite regression
// test for cancellation under the shadowstack engine: when RunContext's
// watchdog kills a run while nested calls are live, every unwound frame
// must pop its return token (popFrame truncates to savedShadow), leaving
// the shadow stack empty and the machine fully re-runnable — on both
// executor tiers (block runs the TierBlock alias of the compiled tier).
func TestShadowStackBalancedAfterWatchdogCancel(t *testing.T) {
	prog := compile.MustCompile("shadowspin.c", shadowSpinSrc)
	for _, tc := range []struct {
		name string
		tier ExecTier
	}{{"switch", TierSwitch}, {"threaded", TierCompiled}, {"block", TierBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(prog, layout.NewShadowStack(), &Env{}, &Options{
				TRNG: rng.SeededTRNG(9), Exec: tc.tier, StepLimit: 1 << 32,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			_, err := m.RunContext(ctx)
			var c *Canceled
			if !errors.As(err, &c) {
				t.Fatalf("want *Canceled, got %v", err)
			}
			if len(m.shadow) != 0 {
				t.Fatalf("shadow stack unbalanced after cancellation: %d live tokens", len(m.shadow))
			}
			if len(m.frames) != 0 {
				t.Fatalf("frame stack unbalanced after cancellation: %d live frames", len(m.frames))
			}
			// Re-runnable: the cancelled machine must execute fresh calls
			// with intact shadow-stack integrity checks, repeatably.
			v1, err := m.CallByName("outer", 3)
			if err != nil {
				t.Fatalf("CallByName after cancellation: %v", err)
			}
			v2, err := m.CallByName("outer", 3)
			if err != nil || v2 != v1 {
				t.Fatalf("second call diverged: %d, %v (want %d, nil)", v2, err, v1)
			}
			if len(m.shadow) != 0 {
				t.Fatalf("shadow stack leaked tokens across calls: %d", len(m.shadow))
			}
		})
	}
}
