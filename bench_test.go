// Benchmark harness: one bench target per reproduced table/figure, plus
// microbenchmarks of the mechanisms. Modeled quantities (cycles, bytes) are
// attached with b.ReportMetric; ns/op measures the simulator itself.
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attack"
	"repro/internal/compile"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/pbox"
	"repro/internal/rng"
	"repro/internal/vm"
	"repro/internal/workload"
)

// BenchmarkTable1 regenerates Table I: back-to-back generation rate of each
// randomness source. ns/op is our implementation's host rate;
// model-cycles/op is the paper's measured figure, used by the cost model.
func BenchmarkTable1(b *testing.B) {
	for _, scheme := range []string{"pseudo", "aes-1", "aes-10", "rdrand"} {
		b.Run(scheme, func(b *testing.B) {
			src, err := rng.NewByName(scheme, 1, rng.SeededTRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink ^= src.Next()
			}
			_ = sink
			b.ReportMetric(src.Cost(), "model-cycles/op")
		})
	}
}

// fig3Subset keeps the bench run tractable while covering the interesting
// regimes: call-heavy with deep recursion (perlbench), the 85KB-frame worst
// case (gobmk), the loop-dominated floor (lbm), and an I/O-bound app
// (proftpd). dopbench -exp fig3 runs the full 16-benchmark figure.
var fig3Subset = []string{"perlbench", "gobmk", "lbm", "proftpd"}

// BenchmarkFig3 regenerates Fig 3 rows: each iteration is one full workload
// run; overhead%/op reports the modeled slowdown vs. the fixed baseline.
func BenchmarkFig3(b *testing.B) {
	for _, name := range fig3Subset {
		w, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("no workload %s", name)
		}
		// Baseline cycles measured once per workload.
		base := vm.New(w.Prog(), layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1)})
		if _, err := base.Run(); err != nil {
			b.Fatal(err)
		}
		baseCycles := base.Stats().Cycles
		for _, scheme := range []string{"fixed", "smokestack+pseudo", "smokestack+aes-10", "smokestack+rdrand"} {
			b.Run(fmt.Sprintf("%s/%s", name, scheme), func(b *testing.B) {
				eng, err := layout.NewByName(scheme, w.Prog(), 1, rng.SeededTRNG(1))
				if err != nil {
					b.Fatal(err)
				}
				var cycles float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m := vm.New(w.Prog(), eng, &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(2)})
					if _, err := m.Run(); err != nil {
						b.Fatal(err)
					}
					cycles = m.Stats().Cycles
				}
				b.ReportMetric(cycles, "model-cycles/op")
				b.ReportMetric((cycles-baseCycles)/baseCycles*100, "overhead-%")
			})
		}
	}
}

// BenchmarkFig4 regenerates Fig 4's quantity: P-BOX construction for each
// workload's program, reporting the read-only bytes added (the memory
// overhead source). ns/op measures Algorithm 1's table-generation speed.
func BenchmarkFig4(b *testing.B) {
	for _, name := range []string{"perlbench", "h264ref", "xalancbmk"} {
		w, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("no workload %s", name)
		}
		b.Run(name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				eng := layout.NewSmokestack(w.Prog(), rng.NewPseudo(1), nil)
				bytes = eng.Box().TotalBytes()
			}
			b.ReportMetric(float64(bytes), "pbox-bytes")
		})
	}
}

// BenchmarkPentest measures one full attack attempt (probe + attack run)
// against Smokestack for each synthetic scenario — the §V-C security
// evaluation's unit of work.
func BenchmarkPentest(b *testing.B) {
	for _, s := range attack.PentestMatrix() {
		b.Run(s.Name, func(b *testing.B) {
			src := rng.NewAESCtr(10, rng.SeededTRNG(3))
			eng := layout.NewSmokestack(s.Program.Prog, src, nil)
			d := &attack.Deployment{Program: s.Program, Engine: eng, TRNG: rng.SeededTRNG(4)}
			successes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := s.Attempt(d)
				if err != nil {
					b.Fatal(err)
				}
				if out == attack.Success {
					successes++
				}
			}
			b.ReportMetric(float64(successes)/float64(b.N)*100, "bypass-%")
		})
	}
}

// BenchmarkCVE measures the real-vulnerability exploit attempts against the
// baseline (they land every time — this is the exploit's own cost).
func BenchmarkCVE(b *testing.B) {
	for _, s := range attack.CVEScenarios() {
		b.Run(s.Name, func(b *testing.B) {
			d := &attack.Deployment{Program: s.Program, Engine: layout.NewFixed(), TRNG: rng.SeededTRNG(5)}
			for i := 0; i < b.N; i++ {
				out, err := s.Attempt(d)
				if err != nil {
					b.Fatal(err)
				}
				if out != attack.Success {
					b.Fatalf("exploit failed against the baseline: %v", out)
				}
			}
		})
	}
}

// BenchmarkPBoxBuild measures Algorithm 1's table generation for n-object
// frames (n! permutations each).
func BenchmarkPBoxBuild(b *testing.B) {
	for _, n := range []int{3, 4, 5, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			allocs := make([]pbox.Alloc, n)
			for i := range allocs {
				allocs[i] = pbox.Alloc{Size: int64(8 << (i % 3)), Align: 8}
			}
			cfg := pbox.DefaultConfig()
			for i := 0; i < b.N; i++ {
				box := pbox.New(cfg)
				box.Register(allocs)
			}
		})
	}
}

// BenchmarkLayoutDraw measures the per-invocation layout decision of each
// engine — the host-side cost of what the paper's prologue does — into a
// reused buffer, as the VM's per-depth layout slabs hold it.
func BenchmarkLayoutDraw(b *testing.B) {
	w, _ := workload.ByName("bzip2")
	fn, _ := w.Prog().FuncByName("mtfEncode")
	for _, scheme := range []string{"fixed", "staticrand", "smokestack+pseudo", "smokestack+aes-10"} {
		b.Run(scheme, func(b *testing.B) {
			eng, err := layout.NewByName(scheme, w.Prog(), 1, rng.SeededTRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]int64, len(fn.Allocas)+1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = eng.Layout(fn, buf)
			}
		})
	}
}

// BenchmarkPlanBuild measures Smokestack's compile-time half — P-BOX +
// entry construction for one program — cold versus through the shared
// plan cache the experiment pipeline uses (a cached plan is a map lookup).
func BenchmarkPlanBuild(b *testing.B) {
	w, _ := workload.ByName("perlbench")
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = layout.NewSmokestackPlan(w.Prog(), nil)
		}
	})
	b.Run("cached", func(b *testing.B) {
		planCache := layout.NewPlanCache()
		opts := &layout.SmokestackOptions{TableCache: pbox.NewCache()}
		for i := 0; i < b.N; i++ {
			_ = planCache.Plan(w.Prog(), opts)
		}
	})
}

// BenchmarkFig4Pipeline runs the whole Fig 4 experiment through the
// exp.Runner pipeline serially and at GOMAXPROCS — the speedup ratio is
// the pipeline's payoff, while TestParallelMatchesSerial guarantees both
// settings produce identical records.
func BenchmarkFig4Pipeline(b *testing.B) {
	for _, par := range []int{1, 0} {
		name := "serial"
		if par == 0 {
			name = "gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			cfg := harness.Config{Seed: 42, Parallel: par}
			for i := 0; i < b.N; i++ {
				if _, err := harness.Run(cfg, "fig4"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunSetup isolates the per-run lifecycle cost the Machine pool
// removes: "new" pays full construction for every run (segment mapping,
// stack and heap allocation, image copies), "reset" recycles one pooled
// Machine via copy-on-reset restore plus re-arming. The program is a few
// hundred instructions, so lifecycle cost dominates both sides; the reset
// path's steady state must stay at zero allocs/op (the bench-compare
// zero-alloc gate pins it). "reset-smokestack" and "reset-stackato"
// recycle a Machine running internal/vm's zero-alloc probe
// (testdata/defended_calls.c there) under those engines, so the same gate
// fails on allocation in the defended call path.
func BenchmarkRunSetup(b *testing.B) {
	w := &workload.Workload{Name: "setup-probe", Want: 63, Source: `
int g[64];
int main() {
	int i;
	for (i = 0; i < 64; i = i + 1) { g[i] = i; }
	return g[63];
}
`}
	prog := w.Prog()
	eng := layout.NewFixed()
	trng := rng.SeededTRNG(1)
	env := &vm.Env{}
	opts := &vm.Options{TRNG: trng}
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := vm.New(prog, eng, env, opts)
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	reset := func(b *testing.B, prog *ir.Program, eng layout.Engine) {
		b.ReportAllocs()
		pool := vm.NewMachinePool(0)
		warm := pool.Get(prog, eng, env, opts)
		if _, err := warm.Run(); err != nil {
			b.Fatal(err)
		}
		pool.Put(warm)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := pool.Get(prog, eng, env, opts)
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
			pool.Put(m)
		}
	}
	b.Run("reset", func(b *testing.B) { reset(b, prog, eng) })
	src, err := os.ReadFile(filepath.Join("internal", "vm", "testdata", "defended_calls.c"))
	if err != nil {
		b.Fatal(err)
	}
	probe := compile.MustCompile("defended_calls.c", string(src))
	for _, name := range []string{"smokestack", "stackato"} {
		b.Run("reset-"+name, func(b *testing.B) {
			eng, err := layout.NewByName(name, probe, 1, trng)
			if err != nil {
				b.Fatal(err)
			}
			reset(b, probe, eng)
		})
	}
}

// BenchmarkGridEndToEnd runs a mixed experiment grid — measurement cells
// (fig3's run pairs), fault-injection cells, and attack campaigns
// (entropy's probe/attack attempt loops) — with the shared Machine pool on
// and off. The ratio is the pool's end-to-end payoff on real grids;
// TestPooledMatchesUnpooled guarantees both settings produce identical
// records.
func BenchmarkGridEndToEnd(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noPool bool
	}{{"pooled", false}, {"nopool", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := harness.Config{Seed: 42, Parallel: 4, NoPool: mode.noPool}
			for i := 0; i < b.N; i++ {
				recs, err := harness.Run(cfg, "entropy", "faults", "fig4")
				if err != nil {
					b.Fatal(err)
				}
				// The fault sweep fails some cells by design (classified
				// injected faults); only unclassified failures are bugs.
				if err := exp.UnclassifiedErrors(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// reportThroughput attaches the interpreter-speed metrics shared by the
// throughput benchmarks: simulated instructions per run and per host second.
func reportThroughput(b *testing.B, instr uint64) {
	b.Helper()
	b.ReportMetric(float64(instr), "sim-instructions/op")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(instr)*float64(b.N)/s, "sim-instructions/s")
	}
}

// BenchmarkVMThroughput measures raw interpreter speed (simulated
// instructions per host second) on the lbm kernel — the tight load/store
// loop that exercises the memory fast path hardest.
func BenchmarkVMThroughput(b *testing.B) {
	w, _ := workload.ByName("lbm")
	var instr uint64
	for i := 0; i < b.N; i++ {
		m := vm.New(w.Prog(), layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1)})
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		instr = m.Stats().Instructions
	}
	reportThroughput(b, instr)
}

// BenchmarkVMWorkloads measures interpreter speed across the regimes the
// hot path has to serve: call-heavy recursion (perlbench, pooled frame
// slabs), large frames (gobmk), the load/store floor (lbm, segment cache),
// and host calls (proftpd). Comparing these across interpreter changes
// shows which regime an optimization actually moved.
func BenchmarkVMWorkloads(b *testing.B) {
	for _, name := range fig3Subset {
		w, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("no workload %s", name)
		}
		b.Run(name, func(b *testing.B) {
			var instr uint64
			for i := 0; i < b.N; i++ {
				m := vm.New(w.Prog(), layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1)})
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
				instr = m.Stats().Instructions
			}
			reportThroughput(b, instr)
		})
	}
}

// BenchmarkMemAccess isolates the simulated-memory layer: the segment-
// cached fast path the interpreter uses for loads/stores versus the
// error-returning slow path it falls back to, on the access pattern that
// defeats a one-entry cache (alternating between two segments).
func BenchmarkMemAccess(b *testing.B) {
	build := func() (*mem.Memory, uint64, uint64) {
		m := mem.New()
		heap := m.AddSegment("heap", mem.HeapBase, 1<<16, true)
		stack := m.AddSegment("stack", mem.StackTop-mem.StackSize, mem.StackSize, true)
		return m, heap.Base + 128, stack.Base + 256
	}
	b.Run("fast-alternating", func(b *testing.B) {
		m, ha, sa := build()
		var sink uint64
		for i := 0; i < b.N; i++ {
			v, _ := m.ReadUFast(ha, 8)
			sink ^= v
			m.WriteUFast(sa, 8, sink)
		}
		_ = sink
	})
	b.Run("slow-alternating", func(b *testing.B) {
		m, ha, sa := build()
		var sink uint64
		for i := 0; i < b.N; i++ {
			v, _ := m.ReadU(ha, 8)
			sink ^= v
			_ = m.WriteU(sa, 8, sink)
		}
		_ = sink
	})
}
