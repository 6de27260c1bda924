package harness_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/rng"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestPooledMatchesUnpooled is the pooling differential: the same grid run
// with recycled Machines (the default) and with a fresh Machine per run
// must produce byte-identical records and JSON. The three experiments
// cover all three machine-acquisition paths — runOnce (fig3, with jitter),
// faultsRun (injected TRNG/host faults), and attack Deployments
// (ablation-rng's prediction scenarios).
func TestPooledMatchesUnpooled(t *testing.T) {
	for _, name := range []string{"fig3", "faults", "ablation-rng"} {
		pooled, err := harness.Run(harness.Config{Seed: 42, Jitter: true, Parallel: 4}, name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := harness.Run(harness.Config{Seed: 42, Jitter: true, Parallel: 4, NoPool: true}, name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pooled, fresh) {
			t.Fatalf("%s: pooled records differ from unpooled", name)
		}
		var pJSON, fJSON bytes.Buffer
		if err := exp.WriteJSON(&pJSON, pooled); err != nil {
			t.Fatal(err)
		}
		if err := exp.WriteJSON(&fJSON, fresh); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pJSON.Bytes(), fJSON.Bytes()) {
			t.Fatalf("%s: pooled JSON differs from unpooled", name)
		}
	}
}

// leakProbeSrc dirties every mutable region — globals, a heap allocation,
// deep stack frames — and then either faults through a wild pointer
// (readint -> 1) or returns a checksum over what it wrote (readint -> 0).
// A reused Machine that leaks any state from the faulted run into the
// clean run diverges from the fresh-Machine reference.
const leakProbeSrc = `
int gsum;
int gbuf[32];

int churn(int depth, int x) {
	int local[16];
	int i;
	for (i = 0; i < 16; i = i + 1) {
		local[i] = x + i * depth;
	}
	if (depth > 0) {
		return churn(depth - 1, x + local[depth % 16]);
	}
	return local[0] + local[15];
}

int main() {
	int *h;
	int i;
	int mode;
	h = malloc(256);
	for (i = 0; i < 32; i = i + 1) {
		gbuf[i] = i * 3;
		gsum = gsum + gbuf[i];
	}
	for (i = 0; i < 64; i = i + 1) {
		h[i] = gsum + i;
	}
	gsum = gsum + churn(6, 5);
	mode = readint();
	if (mode == 1) {
		char *p;
		p = 9;
		p[0] = 1;
	}
	return gsum + h[63];
}
`

// TestMachineReuseNoLeakAcrossEngines runs the leak probe under every
// registered defense engine on every execution tier: a Machine that just
// faulted mid-run is recycled for a clean run, which must match a fresh
// Machine bit-for-bit (value, error, full stats) and verify pristine on
// the way in. This is the registry-wide version of the vm package's
// reuse differentials.
func TestMachineReuseNoLeakAcrossEngines(t *testing.T) {
	w := &workload.Workload{Name: "leakprobe", Source: leakProbeSrc}
	prog := w.Prog()
	for _, tier := range []struct {
		name string
		exec vm.ExecTier
	}{{"switch", vm.TierSwitch}, {"threaded", vm.TierCompiled}, {"block", vm.TierBlock}} {
		opts := func(seed uint64) *vm.Options {
			return &vm.Options{TRNG: rng.SeededTRNG(seed), Exec: tier.exec, StepLimit: 10_000_000}
		}
		for _, name := range harness.EngineNames() {
			t.Run(tier.name+"/"+name, func(t *testing.T) {
				seed := uint64(0xfeed)
				pool := vm.NewMachinePool(0)

				// Faulted run on a pooled Machine.
				eng1, err := harness.BuildEngine(name, prog, seed, harness.SaltSecurity)
				if err != nil {
					t.Fatal(err)
				}
				faultEnv := &vm.Env{Ints: func() int64 { return 1 }}
				m := pool.Get(prog, eng1, faultEnv, opts(1))
				if _, err := m.Run(); err == nil {
					t.Fatal("wild store did not fault")
				} else {
					var mf *vm.MemFault
					if !errors.As(err, &mf) {
						t.Fatalf("fault run: %v", err)
					}
				}
				pool.Put(m)

				// Clean run on the recycled Machine vs a fresh reference.
				eng2, err := harness.BuildEngine(name, prog, seed+7, harness.SaltSecurity)
				if err != nil {
					t.Fatal(err)
				}
				cleanEnv := func() *vm.Env { return &vm.Env{Ints: func() int64 { return 0 }} }
				m2 := pool.Get(prog, eng2, cleanEnv(), opts(2))
				if m2 != m {
					t.Fatal("pool did not recycle the faulted Machine")
				}
				if err := m2.VerifyPristine(); err != nil {
					t.Fatalf("recycled Machine not pristine: %v", err)
				}
				gotV, gotErr := m2.Run()
				gotStats := m2.Stats()

				engRef, err := harness.BuildEngine(name, prog, seed+7, harness.SaltSecurity)
				if err != nil {
					t.Fatal(err)
				}
				ref := vm.New(prog, engRef, cleanEnv(), opts(2))
				wantV, wantErr := ref.Run()
				wantStats := ref.Stats()

				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("err %v != %v", gotErr, wantErr)
				}
				if gotV != wantV {
					t.Fatalf("value %d != %d", gotV, wantV)
				}
				if gotStats != wantStats {
					t.Fatalf("stats %+v != %+v", gotStats, wantStats)
				}
			})
		}
	}
}
