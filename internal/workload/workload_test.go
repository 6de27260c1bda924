package workload_test

import (
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/vm"
	"repro/internal/workload"
)

func TestRegistryShape(t *testing.T) {
	all := workload.All()
	if len(all) != 20 {
		t.Fatalf("expected 20 workloads, got %d", len(all))
	}
	ios := 0
	for _, w := range all {
		if w.Kind == workload.IO {
			ios++
		}
		if w.Want == 0 {
			t.Errorf("%s: missing Want checksum", w.Name)
		}
		if w.Description == "" {
			t.Errorf("%s: missing description", w.Name)
		}
	}
	if ios != 2 {
		t.Fatalf("expected 2 I/O workloads, got %d", ios)
	}
	if len(workload.CPUOnly()) != 18 {
		t.Fatalf("CPUOnly length %d", len(workload.CPUOnly()))
	}
	// I/O workloads come last in presentation order.
	if all[18].Kind != workload.IO || all[19].Kind != workload.IO {
		t.Error("I/O workloads must come last")
	}
	if _, ok := workload.ByName("gobmk"); !ok {
		t.Error("ByName gobmk")
	}
	if _, ok := workload.ByName("nope"); ok {
		t.Error("ByName phantom")
	}
}

// TestChecksumsUnderEveryScheme is the central instrumentation-correctness
// test: every workload computes its recorded checksum under every layout
// engine — randomizing the stack must never change program results.
func TestChecksumsUnderEveryScheme(t *testing.T) {
	schemes := []string{"fixed", "staticrand", "padding", "baserand",
		"smokestack+pseudo", "smokestack+aes-10"}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, scheme := range schemes {
				eng, err := layout.NewByName(scheme, w.Prog(), 3, rng.SeededTRNG(3))
				if err != nil {
					t.Fatal(err)
				}
				m := vm.New(w.Prog(), eng, &vm.Env{}, &vm.Options{
					TRNG: rng.SeededTRNG(5), StepLimit: 2_000_000_000,
				})
				v, err := m.Run()
				if err != nil {
					t.Fatalf("%s: %v", scheme, err)
				}
				if v != w.Want {
					t.Fatalf("%s: checksum %d, want %d", scheme, v, w.Want)
				}
			}
		})
	}
}

func TestProfileShapeParameters(t *testing.T) {
	// The shape features DESIGN.md promises: perlbench's deep call chain,
	// gobmk's ~85KB frame, lbm/libquantum's near-zero call rate.
	run := func(name string) vm.Stats {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no %s", name)
		}
		m := vm.New(w.Prog(), layout.NewFixed(), &vm.Env{}, &vm.Options{
			TRNG: rng.SeededTRNG(1), StepLimit: 2_000_000_000,
		})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	if st := run("perlbench"); st.MaxDepth < 390 {
		t.Errorf("perlbench call depth %d, want ≥390 (paper: 394)", st.MaxDepth)
	}
	if st := run("gobmk"); st.MaxFrameSize < 80<<10 {
		t.Errorf("gobmk max frame %d, want ≥80KB (paper: 85KB)", st.MaxFrameSize)
	}
	if st := run("lbm"); float64(st.Calls) > float64(st.Instructions)/1000 {
		t.Errorf("lbm should be call-starved: %d calls for %d instructions", st.Calls, st.Instructions)
	}
	// I/O workloads: the iodelay cycles must dominate the modeled time.
	w, _ := workload.ByName("proftpd")
	m := vm.New(w.Prog(), layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1)})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Cycles < 10*float64(st.Instructions) {
		t.Errorf("proftpd not I/O bound: %.0f cycles over %d instructions", st.Cycles, st.Instructions)
	}
}

func TestDeterminism(t *testing.T) {
	w, _ := workload.ByName("bzip2")
	var cycles [2]float64
	for i := range cycles {
		m := vm.New(w.Prog(), layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(9)})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		cycles[i] = m.Stats().Cycles
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("baseline cycles not deterministic: %v vs %v", cycles[0], cycles[1])
	}
}

func TestProgCaching(t *testing.T) {
	w, _ := workload.ByName("mcf")
	if w.Prog() != w.Prog() {
		t.Error("Prog should cache the compiled program")
	}
}

// TestPrewarmCompilesAllConcurrently exercises the per-workload
// sync.Once path under concurrent first access (the -race stress for
// this package) and checks Prewarm leaves every program compiled.
func TestPrewarmCompilesAllConcurrently(t *testing.T) {
	workload.Prewarm(8)
	var wg sync.WaitGroup
	for _, w := range workload.All() {
		w := w
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if w.Prog() == nil {
					t.Errorf("%s: nil program after Prewarm", w.Name)
				}
			}()
		}
	}
	wg.Wait()
}
