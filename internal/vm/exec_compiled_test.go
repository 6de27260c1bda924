package vm

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/rng"
)

// TestCompiledTierStepLimitSweep lands the step budget at every offset of
// the first few hundred steps of a fused loop: wherever it lands — a group
// boundary or inside a fused group — the compiled tier must report the
// StepLimit fault (or clean result) with stats bit-identical to the switch
// oracle.
func TestCompiledTierStepLimitSweep(t *testing.T) {
	prog := compile.MustCompile("sweep.c", stepSweepSrc)
	for lim := uint64(1); lim <= 600; lim++ {
		vS, eS, sS := runLimited(prog, TierSwitch, nil, lim)
		vC, eC, sC := runLimited(prog, TierCompiled, nil, lim)
		if vS != vC || eS != eC || sS != sC {
			t.Fatalf("limit %d: switch (%d,%q,%+v) != compiled (%d,%q,%+v)",
				lim, vS, eS, sS, vC, eC, sC)
		}
	}
}

// TestFractionalCostsMatchSwitch runs a cost model with fractional entries,
// where float addition is not associative, through the step-limit sweep
// program. The compiled tier keeps a fused group's constituent costs in
// separate fields and adds them one at a time in IR order, so its Stats —
// Cycles included — must equal the switch oracle's exactly wherever the
// step limit lands, and with no limit at all.
func TestFractionalCostsMatchSwitch(t *testing.T) {
	prog := compile.MustCompile("sweep.c", stepSweepSrc)
	costs := DefaultCosts()
	costs.ALU, costs.Load, costs.Mul, costs.AddrCalc, costs.Branch = 0.3, 1.7, 3.1, 0.9, 1.1
	for _, lim := range []uint64{0, 1, 2, 3, 4, 5, 7, 11, 64, 97, 250, 599, 4099, 100_003} {
		vS, eS, sS := runLimited(prog, TierSwitch, &costs, lim)
		vC, eC, sC := runLimited(prog, TierCompiled, &costs, lim)
		if vS != vC || eS != eC || sS != sC {
			t.Fatalf("limit %d: switch (%d,%q,%+v) != compiled (%d,%q,%+v)",
				lim, vS, eS, sS, vC, eC, sC)
		}
		if lim == 0 && (eS != "" || sS.Cycles == math.Trunc(sS.Cycles)) {
			t.Fatalf("unlimited run: err %q, cycles %v; want a clean run with fractional cycles", eS, sS.Cycles)
		}
	}
}

// runLimited runs prog once under the given tier, cost model (nil: the
// default) and step limit (0: the default), returning the result, the
// error text and the stats.
func runLimited(prog *ir.Program, tier ExecTier, costs *Costs, lim uint64) (int64, string, Stats) {
	m := New(prog, layout.NewFixed(), &Env{}, &Options{
		TRNG: rng.SeededTRNG(3), Exec: tier, StepLimit: lim, Costs: costs,
	})
	v, err := m.Run()
	es := ""
	if err != nil {
		es = err.Error()
	}
	return v, es, m.Stats()
}

// stepSweepSrc is a hot fused loop whose first few hundred steps cross
// fused groups at every offset.
const stepSweepSrc = `
long main() {
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < 100000) {
		acc = acc + i * 3 + (acc & 7);
		i = i + 1;
	}
	return acc & 262143;
}`

// TestProfileStepLimitSweep runs the step-limit sweep profiled on every
// tier: wherever the limit lands — a group boundary or inside a fused
// group — op rows must count exactly Stats.Instructions and row cycles
// must match Stats.Cycles. The block row runs TierBlock, the alias of
// TierCompiled that the perfbench module still names.
func TestProfileStepLimitSweep(t *testing.T) {
	prog := compile.MustCompile("sweep.c", stepSweepSrc)
	for _, tc := range []struct {
		name string
		tier ExecTier
	}{{"switch", TierSwitch}, {"compiled", TierCompiled}, {"block", TierBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			for lim := uint64(1); lim <= 600; lim++ {
				p := NewProfile()
				m := New(prog, layout.NewFixed(), &Env{}, &Options{
					TRNG: rng.SeededTRNG(3), Exec: tc.tier, StepLimit: lim, Prof: p,
				})
				m.Run()
				st := m.Stats()
				var ops uint64
				var cyc float64
				for _, r := range p.Rows() {
					if r.Kind == "op" {
						ops += r.Count
					}
					cyc += r.Cycles
				}
				if ops != st.Instructions || math.Abs(cyc-st.Cycles) > 1e-9 {
					t.Fatalf("limit %d: op rows %d, cycles %v; stats %d instructions, %v cycles",
						lim, ops, cyc, st.Instructions, st.Cycles)
				}
			}
		})
	}
}

// TestCancelledRunProfileFlush is the satellite-2 regression test: a run
// cancelled by the RunContext watchdog with a Profile attached must still
// reconcile exactly — every executed instruction attributed (op counts sum
// to Stats.Instructions) and the row cycles matching Stats.Cycles — on
// both tiers (and the TierBlock alias). Cancellation polls fire only at
// fused-group boundaries, so the flush never sees a half-attributed group.
func TestCancelledRunProfileFlush(t *testing.T) {
	const src = `
long work(long n) {
	long acc;
	long i;
	acc = 0;
	i = 0;
	while (i < n) {
		acc = acc + i * 7 + (acc & 3);
		i = i + 1;
	}
	return acc;
}

long main() {
	long r;
	r = 0;
	while (r >= 0) {
		r = r + (work(5000) & 1);
	}
	return r;
}`
	prog := compile.MustCompile("cancelprof.c", src)
	for _, tc := range []struct {
		name string
		tier ExecTier
	}{{"switch", TierSwitch}, {"threaded", TierCompiled}, {"block", TierBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProfile()
			m := New(prog, layout.NewFixed(), &Env{}, &Options{
				TRNG: rng.SeededTRNG(5), Exec: tc.tier, StepLimit: 1 << 32, Prof: p,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			_, err := m.RunContext(ctx)
			var c *Canceled
			if !errors.As(err, &c) {
				t.Fatalf("want *Canceled, got %v", err)
			}
			st := m.Stats()
			if st.Instructions == 0 {
				t.Fatal("no instructions before cancellation")
			}
			var steps uint64
			var cyc float64
			for _, r := range p.Rows() {
				if r.Kind == "op" {
					steps += r.Count
				}
				cyc += r.Cycles
			}
			if steps != st.Instructions {
				t.Fatalf("cancelled-run profile lost instructions: rows %d, stats %d",
					steps, st.Instructions)
			}
			if rel := math.Abs(cyc-st.Cycles) / st.Cycles; rel >= 1e-9 {
				t.Fatalf("cancelled-run cycle drift: rows %v, stats %v (rel %g)", cyc, st.Cycles, rel)
			}
		})
	}
}

// TestFaultedRunProfileFlush extends the satellite audit to typed faults: a
// divide-by-zero raised deep in a call chain unwinds every live frame past
// the interpreter's attribution tail, and the profile must still account
// for every consumed step (this is the path that loses the in-flight
// OpCall/OpCallHost dispatches without pre-attribution).
func TestFaultedRunProfileFlush(t *testing.T) {
	const src = `
long inner(long d) {
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < 200) {
		acc = acc + i * 3;
		i = i + 1;
	}
	return acc / d;
}

long mid(long n) {
	return inner(n - 1) + 1;
}

long main() {
	long i;
	long acc;
	acc = 0;
	i = 5;
	while (i >= 0) {
		acc = acc + mid(i);
		i = i - 1;
	}
	return acc;
}`
	prog := compile.MustCompile("faultprof.c", src)
	for _, tc := range []struct {
		name string
		tier ExecTier
	}{{"switch", TierSwitch}, {"threaded", TierCompiled}, {"block", TierBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProfile()
			m := New(prog, layout.NewFixed(), &Env{}, &Options{
				TRNG: rng.SeededTRNG(5), Exec: tc.tier, Prof: p,
			})
			_, err := m.Run()
			var dz *DivideByZero
			if !errors.As(err, &dz) {
				t.Fatalf("want *DivideByZero, got %v", err)
			}
			st := m.Stats()
			var steps uint64
			var cyc float64
			for _, r := range p.Rows() {
				if r.Kind == "op" {
					steps += r.Count
				}
				cyc += r.Cycles
			}
			if steps != st.Instructions {
				t.Fatalf("faulted-run profile lost instructions: rows %d, stats %d",
					steps, st.Instructions)
			}
			if rel := math.Abs(cyc-st.Cycles) / st.Cycles; rel >= 1e-9 {
				t.Fatalf("faulted-run cycle drift: rows %v, stats %v (rel %g)", cyc, st.Cycles, rel)
			}
		})
	}
}

// TestFaultedFusedGroupProfile faults the memory access of a fused group
// (constant-scaled index, add, load): the group's leading constituents ran
// and were charged before the fault, so the profile must charge them too
// and row cycles must still match Stats.Cycles.
func TestFaultedFusedGroupProfile(t *testing.T) {
	const src = `
long main() {
	long a[4];
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < 50) {
		acc = acc + i;
		i = i + 1;
	}
	return a[acc * 100000000];
}`
	prog := compile.MustCompile("fusedfault.c", src)
	for _, tc := range []struct {
		name string
		tier ExecTier
	}{{"switch", TierSwitch}, {"compiled", TierCompiled}, {"block", TierBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProfile()
			m := New(prog, layout.NewFixed(), &Env{}, &Options{TRNG: rng.SeededTRNG(5), Exec: tc.tier, Prof: p})
			var mf *MemFault
			if _, err := m.Run(); !errors.As(err, &mf) {
				t.Fatalf("want *MemFault, got %v", err)
			}
			st := m.Stats()
			var ops uint64
			var cyc float64
			for _, r := range p.Rows() {
				if r.Kind == "op" {
					ops += r.Count
				}
				cyc += r.Cycles
			}
			if ops != st.Instructions || cyc != st.Cycles {
				t.Fatalf("op rows %d, cycles %v; stats %d instructions, %v cycles",
					ops, cyc, st.Instructions, st.Cycles)
			}
		})
	}
}
