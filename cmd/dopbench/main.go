// Command dopbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dopbench -exp fig3|fig4|table1|pentest|bypass|cve|ablation-rng|ablation-pbox|entropy|faults|defenses|all
//	         [-engines a,b,c] [-faults] [-seed N] [-jitter] [-parallel N] [-json]
//	         [-exec switch] [-metrics FILE] [-trace FILE]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// All experiments run through one shared exp.Runner worker pool; -parallel
// bounds the pool (0 = GOMAXPROCS, 1 = serial) and never changes results —
// every cell derives its randomness from the run seed alone. -json swaps
// the paper-style tables for one JSON record per experiment cell on stdout.
//
// -engines replaces the default defense lineup of the lineup-driven
// experiments (pentest, bypass, cve, defenses) with a comma-separated
// subset of registered engine names (see harness.EngineNames); a typo is
// rejected up front with the registered list. Experiments with golden-
// pinned lineups (fig3/fig4/ablations) ignore it.
//
// -exec switch runs every VM on the reference switch interpreter
// (equivalent to setting SMOKESTACK_EXEC=switch) instead of the default
// compiled tier. Both produce bit-identical results; the flag exists for
// tier benchmarking and differential debugging.
//
// -faults is shorthand for -exp faults: the entropy-brownout/host-fault
// sweep. Cells that fail *because of the injected schedule* carry a
// classified error ("injected"); those are reported as warnings and do not
// fail the run — the exit code is 1 only for unclassified (genuine)
// failures, so a partial sweep still exits 0. Each cell runs once: its
// fault schedule derives from the cell seed, so a rerun would replay the
// same faults.
//
// -metrics FILE enables the telemetry registry and writes a JSON metric
// snapshot — counters, cache gauges, runner histograms, and per-cell
// cycle-attribution profiles whose total_cycles is exactly the sum of the
// cell's rows — to FILE after the run, plus a Prometheus text exposition
// to FILE.prom. -trace FILE streams the structured JSONL event trace (cell
// lifecycle, compiles, VM runs, fault-injection firings, watchdog
// cancellations, rng degradation-ladder transitions) to FILE. Both are
// fully dormant when the flags are absent: results are bit-identical.
//
// -cpuprofile and -memprofile write pprof profiles covering the experiment
// run (the CPU profile spans harness.Run; the heap profile is captured
// after it completes, post-GC). Inspect with `go tool pprof`. Profiles are
// flushed on every exit path, including per-cell failures.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

func main() {
	// All the work happens in run so profile-flushing defers execute before
	// the process exits (os.Exit skips defers).
	os.Exit(run())
}

func run() int {
	expName := flag.String("exp", "all", "experiment: fig3, fig4, table1, pentest, bypass, cve, ablation-rng, ablation-pbox, entropy, faults, defenses, all")
	engines := flag.String("engines", "", "comma-separated defense-engine subset for the lineup-driven experiments (empty = default lineups)")
	faults := flag.Bool("faults", false, "run the fault-injection sweep (shorthand for -exp faults)")
	seed := flag.Uint64("seed", 42, "seed for all deterministic random streams")
	jitter := flag.Bool("jitter", true, "enable the instruction-scheduling perturbation model in fig3")
	parallel := flag.Int("parallel", 0, "worker pool size for experiment cells (0 = GOMAXPROCS, 1 = serial)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON records (one per line) instead of tables")
	execTier := flag.String("exec", "", "executor tier for every VM run: switch (default: $SMOKESTACK_EXEC, else the compiled tier)")
	metricsFile := flag.String("metrics", "", "write a JSON metric snapshot to this file (and a Prometheus exposition to FILE.prom)")
	traceFile := flag.String("trace", "", "stream the structured JSONL event trace to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (captured after the run) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dopbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dopbench: -cpuprofile: %v\n", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dopbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dopbench: -memprofile: %v\n", err)
			}
		}()
	}

	if *execTier != "" {
		if _, ok := vm.ParseExecTier(*execTier); !ok {
			fmt.Fprintf(os.Stderr, "dopbench: -exec: unknown tier %q (want switch)\n", *execTier)
			return 2
		}
		// Machines are built deep inside the harness with TierAuto, which
		// consults SMOKESTACK_EXEC per Machine — routing the flag through the
		// environment reaches every run without threading a field through
		// every experiment.
		os.Setenv("SMOKESTACK_EXEC", *execTier)
	}

	cfg := harness.Config{Seed: *seed, Jitter: *jitter, Out: os.Stdout, Parallel: *parallel}

	if *engines != "" {
		for _, name := range strings.Split(*engines, ",") {
			name = strings.TrimSpace(name)
			if !harness.ValidEngine(name) {
				fmt.Fprintf(os.Stderr, "dopbench: -engines: %v\n", harness.UnknownEngineError(name))
				return 2
			}
			cfg.Engines = append(cfg.Engines, name)
		}
	}

	if *metricsFile != "" {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dopbench: -trace: %v\n", err)
			return 2
		}
		tr := telemetry.NewTracer(f)
		cfg.Trace = tr
		// Span mode: cells nest under a trace root, run.end events carry
		// exact attribution rows, and the trace folds with benchjson
		// -tracetree. Records stay byte-identical either way.
		cfg.TraceID = "dopbench"
		defer func() {
			if err := tr.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "dopbench: -trace: %v\n", err)
			}
			f.Close()
		}()
	}

	if *faults {
		*expName = "faults"
	}
	var names []string
	if *expName != "all" {
		if _, ok := harness.ExperimentByName(*expName); !ok {
			var known []string
			for _, e := range harness.Experiments() {
				known = append(known, e.Name)
			}
			fmt.Fprintf(os.Stderr, "dopbench: unknown experiment %q (want one of %v or all)\n", *expName, known)
			return 2
		}
		names = []string{*expName}
	}

	// One harness.Run call: whether it's a single figure or the whole
	// suite, every cell goes through the same shared worker pool and the
	// same build caches.
	recs, err := harness.Run(cfg, names...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dopbench: %v\n", err)
		return 2
	}

	if *asJSON {
		if err := exp.WriteJSON(os.Stdout, recs); err != nil {
			fmt.Fprintf(os.Stderr, "dopbench: %v\n", err)
			return 1
		}
	} else {
		exps := harness.Experiments()
		if len(names) == 1 {
			e, _ := harness.ExperimentByName(names[0])
			exps = []harness.Experiment{e}
		}
		for _, e := range exps {
			fmt.Printf("================ %s ================\n", e.Name)
			e.Render(os.Stdout, recs)
			fmt.Println()
		}
	}

	if *metricsFile != "" {
		if err := writeMetrics(*metricsFile, cfg.Metrics.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "dopbench: -metrics: %v\n", err)
			return 1
		}
	}

	// Per-cell failures are embedded in the records (and rendered with
	// their cell identity above); surface them on stderr without having
	// aborted the healthy cells. Classified failures — expected casualties
	// of an injected fault schedule — are warnings only: the exit code is 1
	// solely for unclassified (genuine) failures, so a fault sweep that
	// degrades exactly as scheduled still exits 0.
	genuine := exp.UnclassifiedErrors(recs)
	if all := exp.Errors(recs); all != nil && genuine == nil {
		fmt.Fprintf(os.Stderr, "dopbench: warning: classified (expected) cell failures:\n%v\n", all)
	}
	if genuine != nil {
		fmt.Fprintf(os.Stderr, "dopbench: %v\n", genuine)
		return 1
	}
	return 0
}

// writeMetrics writes the snapshot as JSON to path and as a Prometheus
// text exposition to path.prom.
func writeMetrics(path string, snap telemetry.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	p, err := os.Create(path + ".prom")
	if err != nil {
		return err
	}
	if err := snap.WritePrometheus(p); err != nil {
		p.Close()
		return err
	}
	return p.Close()
}
