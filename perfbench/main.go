// Command perfbench is the repository's benchmark: seeded workloads run
// end to end, every output checked, the end-to-end metrics printed by
// name and unit, and a final JSON result line.
//
//	perfbench --workload named|inline|cells|grid --seed N --seconds S --trace 0|1
//
// named, inline and cells drive an in-process smokestackd
// (internal/server behind a loopback listener) with a closed loop of one
// client; grid runs the offline experiment grid through the harness
// runner with two workers, one child process per pass. --trace 1 replays
// the same op stream through each layer's public calls with spans and
// prints the per-layer metrics instead (layers.go). Every run is a fresh
// process: the program's code, plan and P-BOX caches and its Machine pool
// are process-wide.
//
// BENCHMARK.json gates cells and grid. named and inline stay runnable but
// ungated. On a shared 2-vCPU host the speed of the same work drifts by a
// sixth to a third over tens of seconds, and named's timings follow it:
// in two sets of ten runs its throughput, median and first-record latency
// spread up to a third of their median, past the largest bound a metric
// may have. inline's stream is capped at 800 sessions because every new
// program leaves a pooled Machine that nothing releases, so its run is
// too short to average the drift out; it reports the pool retention.
//
// Exit status: 0 with a result line; 1 when an output is wrong (the result
// line then says "correct": false); 2 when the benchmark cannot run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/vm"
	"repro/internal/workload"
)

// sessionStepLimit is the server's default per-run step budget.
const sessionStepLimit = 2_000_000_000

// workloads are the benchmark's workloads.
var workloads = []string{"named", "inline", "cells", "grid"}

// tailPct fixes each server workload's tail percentile: tailPercentile of
// the latency sample count the unmodified program completes in a 50 s
// window on a 2-vCPU host, at the slowest that host ran it (named ~230
// sessions, inline its 800-session stream, cells ~1200). The tail is
// printed with its sample count but is not a result metric: it is made of
// the sessions the host's stalls hold up, and over ten seeds of cells its
// p99 spread 0.28 and 0.39 of the median and even its p90 0.15 and 0.36,
// past the largest bound a result metric may have.
var tailPct = map[string]float64{"named": 95, "inline": 98, "cells": 99}

// setupSamples is how many times a run sets the program up: in fresh
// child processes, then once more in the measuring process.
const setupSamples = 5

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: named, inline, cells or grid")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 replays the op stream with spans and prints the per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "set the program up once, print the set-up time and exit")
	onePass := fs.Bool("grid-pass", false, "run one grid pass, print its report and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *wl) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload named|inline|cells|grid, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if v, ok := os.LookupEnv("SMOKESTACK_EXEC"); ok {
		fmt.Fprintf(os.Stderr, "perfbench: SMOKESTACK_EXEC=%q is set; the benchmark measures the default executor\n", v)
		return 2
	}
	if *onePass {
		if err := gridPassChild(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: grid pass: %v\n", err)
			return 2
		}
		return 0
	}
	in := &inputs{}
	var err error
	if !*setupOnly || *wl == "cells" { // set-up needs only the cells warm-up session
		if in, err = prepare(*wl, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: inputs: %v\n", err)
			return 2
		}
	}
	if *setupOnly {
		lb, secs, err := setup(*wl, in)
		if err == nil {
			err = lb.close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 2
		}
		fmt.Printf("setup_s %v\n", secs)
		return 0
	}

	printStamp(*wl, *seed, *trace)
	var setups []float64
	if *trace == 0 {
		if setups, err = childSetups(*wl, *seed, setupSamples-1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 2
		}
	}
	lb, secs, err := setup(*wl, in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
		return 2
	}
	setups = append(setups, secs)
	d := time.Duration(*seconds * float64(time.Second))
	refBefore := hostRef()
	var res *result
	switch {
	case *trace == 1:
		res, err = traced(*wl, *seed, in, lb, d)
	case *wl == "grid":
		res, err = measureGrid(*seed, d)
	default:
		res, err = measureServer(*wl, in, lb, d)
	}
	if cerr := lb.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the server: %w", cerr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Printf("# host reference %.2f ms before the window, %.2f ms after\n", refBefore, hostRef())
	if *trace == 0 {
		res.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

// add records a metric and prints it with its unit and a note (sample
// count, percentile).
func (r *result) add(name string, v float64, unit, note string) {
	v = noteNaN(v, name)
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-30s %14.4f %-6s %s\n", name, v, unit, note)
}

// fail marks the run incorrect and says why on stderr.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: MISMATCH: "+format+"\n", args...)
}

// tailNote documents a tail value: its fixed percentile, the sample count
// and the percentile that count would have chosen.
func tailNote(pct float64, n, beyond int) string {
	return fmt.Sprintf("p%g, n=%d, %d beyond (n=%d supports p%g)", pct, n, beyond, n, tailPercentile(n))
}

// printStamp records the host and build the numbers belong to.
func printStamp(wl string, seed uint64, trace int) {
	fmt.Printf("# perfbench workload=%s seed=%d trace=%d\n", wl, seed, trace)
	fmt.Printf("# cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s SMOKESTACK_EXEC=unset\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out revision when the benchmark runs from the
// root of a git work tree, "unknown" otherwise (an exported checkout).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// hostRef times a fixed piece of work that uses no code of the program
// under test, sorting a seeded half-million-element slice (median of three
// times, ms). Printed before and after the window, it tells a change in
// the host's speed apart from a change in the program's.
func hostRef() float64 {
	xs := make([]uint64, 1<<19)
	var per []float64
	for i := 0; i < 3; i++ {
		r := &splitmix{s: 1}
		start := time.Now()
		for j := range xs {
			xs[j] = r.next()
		}
		slices.Sort(xs)
		per = append(per, ms(time.Since(start)))
	}
	return median(per)
}

// workers is the grid runner's worker count, also the parallelism of
// set-up's prewarm and of the reference computation: two, at most one per
// CPU.
func workers() int { return max(1, min(2, runtime.NumCPU())) }

// inputs are a run's generated requests with their reference outputs,
// made before set-up and outside every timed region.
type inputs struct {
	ops  []op
	warm *op // the cells set-up session
}

func prepare(wl string, seed uint64) (*inputs, error) {
	switch wl {
	case "named":
		return &inputs{ops: namedStream(seed)}, nil
	case "inline":
		ops, progs := inlineStream(seed)
		refs, err := references(progs)
		if err != nil {
			return nil, err
		}
		for i := range ops {
			ops[i].want = refs[ops[i].prog]
		}
		return &inputs{ops: ops}, nil
	case "cells":
		ops, warm, src := cellsStream(seed)
		refs, err := references([]string{src})
		if err != nil {
			return nil, err
		}
		for i := range ops {
			ops[i].want = refs[0]
		}
		warm.want = refs[0]
		return &inputs{ops: ops, warm: &warm}, nil
	}
	return &inputs{}, nil
}

// references computes each program's value on the reference (switch-tier)
// interpreter under the fixed layout, in parallel.
func references(srcs []string) ([]int64, error) {
	refs := make([]int64, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	w := workers()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(srcs); i += w {
				refs[i], errs[i] = reference(srcs[i])
			}
		}(g)
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

func reference(src string) (int64, error) {
	prog, err := compile.Compile("reference.c", src)
	if err != nil {
		return 0, err
	}
	m := vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{
		Exec: vm.TierSwitch, StepLimit: sessionStepLimit, TRNG: rng.SeededTRNG(1),
	})
	return m.Run()
}

// setup builds the program under test and returns the time it took:
// server construction (server workloads; grid has no server and returns a
// nil loopback), compiling and block-mining all 20 workloads, and for
// cells one warm-up session.
func setup(wl string, in *inputs) (*loopback, float64, error) {
	start := time.Now()
	var lb *loopback
	if wl != "grid" {
		var err error
		if lb, err = startServer(); err != nil {
			return nil, 0, err
		}
	}
	workload.Prewarm(workers())
	if in.warm != nil {
		var buf bytes.Buffer
		res := lb.session(in.warm, &buf)
		if res.failure != "" || res.mismatch != "" {
			lb.close()
			return nil, 0, fmt.Errorf("warm-up session: %s%s", res.failure, res.mismatch)
		}
	}
	return lb, time.Since(start).Seconds(), nil
}

// childSetups times n set-ups, each in a fresh child process.
func childSetups(wl string, seed uint64, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--setup-only", "--workload", wl, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		f := strings.Fields(string(b))
		if len(f) != 2 || f[0] != "setup_s" {
			return nil, fmt.Errorf("set-up child printed %q", b)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// window is one closed-loop window of server sessions.
type window struct {
	res        []opResult
	elapsed    time.Duration
	lat, first []float64 // over sessions that did not fail
	// wts weighs lat and first so that every mix class of the op stream
	// (op.mix) carries the same total weight.
	wts        []float64
	classes    int // mix classes among them
	fresh      int // sessions that submitted a new program
	allocBytes float64
	gcShare    float64
	liveBytes  float64 // after the window and a forced GC, server up
}

// drive runs ops through the server for d and folds every session's
// failure or mismatch into out.
func drive(lb *loopback, ops []op, d time.Duration, out *result) (*window, error) {
	before := readRuntime()
	res, elapsed, exhausted := lb.closedLoop(ops, d)
	after := readRuntime()
	runtime.GC()
	w := &window{res: res, elapsed: elapsed, liveBytes: readRuntime().liveBytes,
		allocBytes: after.allocBytes - before.allocBytes,
		gcShare:    (after.gcCPU - before.gcCPU) / (after.totalCPU - before.totalCPU)}
	out.Attempted += len(res)
	perMix := map[string]int{}
	var mixes []string
	for _, r := range res {
		switch {
		case r.failure != "":
			out.Failed++
			out.fail("op %d failed: %s", r.op.idx, r.failure)
			continue
		case r.mismatch != "":
			out.fail("%s", r.mismatch)
		}
		w.lat = append(w.lat, r.latMS)
		w.first = append(w.first, r.firstMS)
		perMix[r.op.mix]++
		mixes = append(mixes, r.op.mix)
		if r.op.newProg {
			w.fresh++
		}
	}
	for _, m := range mixes {
		w.wts = append(w.wts, 1/float64(perMix[m]))
	}
	w.classes = len(perMix)
	if len(w.lat) == 0 {
		return nil, errors.New("no session completed")
	}
	if exhausted {
		fmt.Printf("# the op stream ran out after %d sessions: the window ended after %.2f s\n", len(res), elapsed.Seconds())
	}
	for _, r := range res {
		if !r.op.sample || r.failure != "" {
			continue
		}
		if err := checkOffline(r); err != nil {
			out.fail("%v", err)
		}
	}
	return w, nil
}

// measureServer runs one server workload's measured window and checks
// every streamed record.
func measureServer(wl string, in *inputs, lb *loopback, d time.Duration) (*result, error) {
	out := newResult()
	w, err := drive(lb, in.ops, d, out)
	if err != nil {
		return nil, err
	}
	out.add("ops_per_s", float64(len(w.res))/w.elapsed.Seconds(), "1/s",
		fmt.Sprintf("%d sessions, 1 client, %.2f s window", len(w.res), w.elapsed.Seconds()))
	mixNote := fmt.Sprintf("n=%d", len(w.lat))
	if wl == "named" {
		mixNote += fmt.Sprintf(", each of %d (workload, engine) pairs weighted equally", w.classes)
	}
	out.add("latency_p50_ms", wquantile(w.lat, w.wts, 0.5), "ms", mixNote)
	pct := tailPct[wl]
	tv, n, beyond := tail(w.lat, w.wts, pct)
	fmt.Printf("# latency tail %.4f ms: %s (printed, not a result metric)\n", tv, tailNote(pct, n, beyond))
	out.add("first_record_p50_ms", wquantile(w.first, w.wts, 0.5), "ms", mixNote)
	out.add("ok_frac", float64(out.Attempted-out.Failed)/float64(out.Attempted), "1",
		fmt.Sprintf("%d failed of %d attempted", out.Failed, out.Attempted))
	out.add("alloc_mb_per_op", w.allocBytes/1e6/float64(len(w.res)), "MB",
		"heap allocated in the window (server and in-process client)")
	out.add("retained_heap_mb", w.liveBytes/1e6, "MB", "live heap after the window and a forced GC, server up")
	if wl == "inline" {
		pool := harness.MachinePoolStats()
		plen, phits, pmiss, pev := harness.SessionProgCacheStats()
		fmt.Printf("# inline: %d of %d sessions submitted a new program (%.3f)\n", w.fresh, len(w.lat), float64(w.fresh)/float64(len(w.lat)))
		fmt.Printf("# machine pool: hits=%d misses=%d puts=%d drops=%d; program cache: len=%d hits=%d misses=%d evictions=%d\n",
			pool.Hits, pool.Misses, pool.Puts, pool.Drops, plen, phits, pmiss, pev)
	}
	fmt.Printf("# gc cpu share %.4f over the window\n", w.gcShare)
	return out, nil
}

// checkOffline compares a sampled session's streamed bytes with
// exp.WriteJSON over harness.RunSession of the same spec.
func checkOffline(r opResult) error {
	recs, err := harness.RunSession(harness.Config{}, r.op.spec)
	if err != nil {
		return fmt.Errorf("op %d offline: %w", r.op.idx, err)
	}
	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf, recs); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), r.raw) {
		return fmt.Errorf("op %d: streamed NDJSON differs from harness.RunSession:\nserver  %s\noffline %s", r.op.idx, r.raw, buf.Bytes())
	}
	fmt.Printf("# op %d: %d streamed bytes identical to harness.RunSession\n", r.op.idx, len(r.raw))
	return nil
}
