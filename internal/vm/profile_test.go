package vm_test

import (
	"math"
	"testing"

	"repro/internal/compile"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/vm"
)

// profileProbeSrc exercises every attribution bucket: tight arithmetic
// loops (fused superinstructions on the compiled tier), frame-local and
// global memory traffic (AddrLocal surcharge split), nested calls
// (prologue/epilogue categories), and host calls.
const profileProbeSrc = `
long glob;

long leaf(long x) {
	long a[8];
	long i;
	i = 0;
	while (i < 8) {
		a[i] = x * i + 3;
		i = i + 1;
	}
	return a[3] + a[7] % 5;
}

long work(long n) {
	long acc;
	long i;
	acc = 0;
	i = 0;
	while (i < n) {
		acc = acc + leaf(i);
		glob = glob + (acc & 7);
		i = i + 1;
	}
	return acc;
}

long main() {
	long r;
	long total;
	total = 0;
	r = 0;
	while (r < 40) {
		total = total + work(25);
		outbyte(total & 255);
		r = r + 1;
	}
	print(total);
	return total & 65535;
}
`

var profileProbeProg = compile.MustCompile("profileprobe.c", profileProbeSrc)

// profileEngines is the engine matrix for the reconciliation test: the
// fixed baseline, a Smokestack engine (prologue draw/lookup/guard/spread
// categories), and Smokestack under the jitter model (per-function cost
// multipliers exercising the pending-count fold at call boundaries).
func profileEngines(t *testing.T, seed uint64) map[string]func() (layout.Engine, float64) {
	t.Helper()
	return map[string]func() (layout.Engine, float64){
		"fixed": func() (layout.Engine, float64) { return layout.NewFixed(), 0 },
		"smokestack": func() (layout.Engine, float64) {
			return layout.NewSmokestack(profileProbeProg, rng.NewAESCtr(10, rng.SeededTRNG(seed)), nil), 0
		},
		"smokestack+jitter": func() (layout.Engine, float64) {
			return layout.NewSmokestack(profileProbeProg, rng.NewAESCtr(10, rng.SeededTRNG(seed)), nil), 0.026
		},
		// Defense zoo: each exercises a disjoint slice of the defense
		// categories (unsafe.rebase / shadow.push+check / canary.write+check
		// plus the prologue draw).
		"cleanstack": func() (layout.Engine, float64) {
			return layout.NewCleanStack(rng.SeededTRNG(seed)), 0
		},
		"shadowstack": func() (layout.Engine, float64) { return layout.NewShadowStack(), 0 },
		"stackato": func() (layout.Engine, float64) {
			return layout.NewStackato(rng.NewAESCtr(10, rng.SeededTRNG(seed))), 0
		},
	}
}

var profileTiers = []struct {
	name string
	tier vm.ExecTier
}{
	{"switch", vm.TierSwitch},
	{"compiled", vm.TierCompiled},
	{"block", vm.TierBlock}, // alias of TierCompiled; see vm.TierBlock
}

// profileRun executes the probe once, optionally profiled.
func profileRun(t *testing.T, tier vm.ExecTier, mk func() (layout.Engine, float64), prof *vm.Profile) (int64, vm.Stats) {
	t.Helper()
	eng, amp := mk()
	opts := &vm.Options{
		TRNG:      rng.SeededTRNG(7),
		Exec:      tier,
		JitterAmp: amp, JitterSeed: 99,
		Prof: prof,
	}
	m := vm.New(profileProbeProg, eng, &vm.Env{}, opts)
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v, m.Stats()
}

// TestProfileReconciliation pins the attribution contract on both tiers
// and all engine shapes:
//
//  1. Attaching a profile never changes results or modeled cycles — the
//     dormant and profiled runs are bit-identical.
//  2. TotalCycles is exactly the sum of the rows (grid-rounded values sum
//     without rounding error, in any order).
//  3. The row sum reconciles with the VM's own Stats.Cycles accumulator to
//     better than 1e-9 relative error (they cannot be bit-equal: the VM
//     accumulates in flush windows, the profile per bucket).
func TestProfileReconciliation(t *testing.T) {
	for _, tier := range profileTiers {
		for engName, mk := range profileEngines(t, 11) {
			t.Run(tier.name+"/"+engName, func(t *testing.T) {
				v0, s0 := profileRun(t, tier.tier, mk, nil)
				p := vm.NewProfile()
				v1, s1 := profileRun(t, tier.tier, mk, p)
				if v0 != v1 {
					t.Fatalf("profiling changed the result: %d vs %d", v0, v1)
				}
				if s0.Cycles != s1.Cycles || s0.Instructions != s1.Instructions {
					t.Fatalf("profiling changed stats: %+v vs %+v", s0, s1)
				}

				rows := p.Rows()
				if len(rows) == 0 {
					t.Fatal("no attribution rows")
				}
				var sum float64
				for _, r := range rows {
					sum += r.Cycles
				}
				if total := p.TotalCycles(); total != sum {
					t.Fatalf("TotalCycles %v != row sum %v", total, sum)
				}
				// Reverse-order re-sum must be bit-identical: rows are on
				// the 2^-20 grid, so addition order cannot matter.
				var rev float64
				for i := len(rows) - 1; i >= 0; i-- {
					rev += rows[i].Cycles
				}
				if rev != sum {
					t.Fatalf("row sum is order-dependent: %v vs %v", sum, rev)
				}

				rel := math.Abs(sum-s1.Cycles) / s1.Cycles
				if rel >= 1e-9 {
					t.Fatalf("attribution drift: rows sum to %v, Stats.Cycles %v (rel %g)",
						sum, s1.Cycles, rel)
				}

				// The step count must be fully attributed: per-op counts
				// (ops only, not categories) sum to executed instructions.
				var steps uint64
				for _, r := range rows {
					if r.Kind == "op" {
						steps += r.Count
					}
				}
				if steps != s1.Instructions {
					t.Fatalf("op counts sum to %d, want %d instructions", steps, s1.Instructions)
				}

				// Defense engines must attribute their machinery to the
				// dedicated categories (and still sum exactly, per above).
				wantCats := map[string][]string{
					"cleanstack":  {"unsafe.rebase"},
					"shadowstack": {"shadow.push", "shadow.check"},
					"stackato":    {"canary.write", "canary.check"},
				}[engName]
				cats := make(map[string]float64)
				for _, r := range rows {
					if r.Kind == "cat" {
						cats[r.Name] = r.Cycles
					}
				}
				for _, c := range wantCats {
					if cats[c] <= 0 {
						t.Errorf("category %q absent or zero (cats: %v)", c, cats)
					}
				}
			})
		}
	}
}

// TestProfileAllocsPerCall proves the hot paths allocate nothing extra per
// run with a profile attached: the per-Machine counter arrays are
// allocated once at New, and the flush at call exit writes only
// preallocated state (map growth settles after the warm-up run
// testing.AllocsPerRun performs).
func TestProfileAllocsPerCall(t *testing.T) {
	for _, tier := range profileTiers {
		t.Run(tier.name, func(t *testing.T) {
			mk := func(p *vm.Profile) *vm.Machine {
				return vm.New(profileProbeProg, layout.NewFixed(), &vm.Env{},
					&vm.Options{TRNG: rng.SeededTRNG(3), Exec: tier.tier, Prof: p})
			}
			call := func(m *vm.Machine) {
				if _, err := m.CallByName("leaf", 9); err != nil {
					t.Fatal(err)
				}
			}
			base := mk(nil)
			dormant := testing.AllocsPerRun(200, func() { call(base) })
			prof := mk(vm.NewProfile())
			profiled := testing.AllocsPerRun(200, func() { call(prof) })
			if profiled > dormant {
				t.Fatalf("profiled call allocates %.1f/op, dormant %.1f/op", profiled, dormant)
			}
		})
	}
}
