package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/vm"
	"repro/internal/workload"
)

// gridExperiments are the experiment grid's figures: 167 cells covering
// the dormant VM core, attack campaigns on pooled deployments, fault
// injection and the parallel runner.
var gridExperiments = []string{"fig3", "pentest", "cve", "bypass", "entropy", "defenses", "ablation-rng", "faults"}

// goldenExperiments are the grid experiments whose seed-42 records are
// pinned byte for byte in the repository's record golden.
var goldenExperiments = []string{"pentest", "cve", "bypass", "ablation-rng"}

// replicatedExperiments are the grid experiments whose cells the traced
// replay re-implements call by call; their replayed records must equal
// the real cells' byte for byte.
var replicatedExperiments = []string{"fig3", "pentest", "cve", "bypass"}

const goldenPath = "testdata/records_golden.jsonl"

// gridConfig is the researcher's configuration: seeded, jittered, with
// one runner worker per client slot.
func gridConfig(seed uint64, workers int) harness.Config {
	return harness.Config{Seed: seed, Jitter: true, Parallel: workers}
}

// gridCells builds every cell of the grid experiments in registry order.
func gridCells(cfg harness.Config) ([]exp.Cell, error) {
	var cells []exp.Cell
	for _, name := range gridExperiments {
		e, ok := harness.ExperimentByName(name)
		if !ok {
			return nil, fmt.Errorf("grid: experiment %q is not registered", name)
		}
		cells = append(cells, e.Cells(cfg)...)
	}
	return cells, nil
}

// gridPass runs every grid cell once through the experiment runner with
// the given worker count, timing each cell (ms) from the runner's CellEnd
// hook.
func gridPass(seed uint64, workers int) ([]exp.Record, []float64, error) {
	cfg := gridConfig(seed, workers)
	cells, err := gridCells(cfg)
	if err != nil {
		return nil, nil, err
	}
	runner := cfg.NewRunner()
	var mu sync.Mutex
	var walls []float64
	chained := runner.Hooks.CellEnd
	runner.Hooks.CellEnd = func(c exp.Cell, recs []exp.Record, wall time.Duration, attempts int) {
		if chained != nil {
			chained(c, recs, wall, attempts)
		}
		mu.Lock()
		walls = append(walls, ms(wall))
		mu.Unlock()
	}
	return runner.Run(cells), walls, nil
}

// gridFailures counts records with unclassified errors: classified ones
// (injected faults) are the faults experiment's expected casualties.
func gridFailures(recs []exp.Record) (n int, first string) {
	for _, r := range recs {
		if r.Err != "" && r.ErrClass == "" {
			if n == 0 {
				first = r.Experiment + "/" + r.Cell + ": " + r.Err
			}
			n++
		}
	}
	return n, first
}

// checkGolden compares the seed-42 records of goldenExperiments with
// their lines in the repository's record golden, byte for byte.
func checkGolden(recs []exp.Record) error {
	want, err := goldenLines()
	if err != nil {
		return err
	}
	enc, err := encodeExperiments(recs, goldenExperiments)
	if err != nil {
		return err
	}
	got := nonEmpty(bytes.SplitAfter(enc, []byte("\n")))
	if len(got) != len(want) {
		return fmt.Errorf("golden: %d records for %v, want %d", len(got), goldenExperiments, len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("golden: record %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	return nil
}

// encodeExperiments returns the NDJSON of the named experiments' records,
// grouped in the order of names.
func encodeExperiments(recs []exp.Record, names []string) ([]byte, error) {
	var buf bytes.Buffer
	for _, name := range names {
		if err := exp.WriteJSON(&buf, exp.Filter(recs, name)); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// goldenLines returns the golden's lines for goldenExperiments, grouped
// in goldenExperiments order.
func goldenLines() ([][]byte, error) {
	f, err := os.Open(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	defer f.Close()
	byExp := map[string][][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := append(append([]byte(nil), sc.Bytes()...), '\n')
		for _, name := range goldenExperiments {
			if bytes.HasPrefix(line, []byte(`{"experiment":"`+name+`"`)) {
				byExp[name] = append(byExp[name], line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var out [][]byte
	for _, name := range goldenExperiments {
		out = append(out, byExp[name]...)
	}
	return out, nil
}

func nonEmpty(lines [][]byte) [][]byte {
	out := lines[:0]
	for _, l := range lines {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// passReport is one grid pass as its child process measured it.
type passReport struct {
	Seed         uint64    `json:"seed"`
	WallS        float64   `json:"wall_s"`
	CellMS       []float64 `json:"cell_ms"`
	Failed       int       `json:"failed"`
	FirstFailure string    `json:"first_failure,omitempty"`
	Golden       string    `json:"golden,omitempty"`
	// Replicated is the NDJSON of the replicatedExperiments' records.
	Replicated string  `json:"replicated"`
	AllocBytes float64 `json:"alloc_bytes"`
	LiveBytes  float64 `json:"live_bytes"`
	GCShare    float64 `json:"gc_share"`
	// Records, Pool and the table counters feed the traced run's
	// per-layer metrics.
	Records     int          `json:"records"`
	Pool        vm.PoolStats `json:"pool"`
	TableHits   int          `json:"table_hits"`
	TableMisses int          `json:"table_misses"`
}

// gridPassChild runs one grid pass after set-up and prints its report.
// Each pass gets a fresh process, as each dopbench invocation does: the
// shared Machine pool keeps a Machine for every attack-corpus program a
// campaign cell compiles, so live heap grows by gigabytes per pass and
// in-process passes would tie the run's memory to the program's speed.
func gridPassChild(seed uint64) error {
	workload.Prewarm(workers())
	before := readRuntime()
	start := time.Now()
	recs, walls, err := gridPass(seed, workers())
	if err != nil {
		return err
	}
	rep := passReport{Seed: seed, WallS: time.Since(start).Seconds(), CellMS: walls}
	after := readRuntime()
	runtime.GC()
	rep.LiveBytes = readRuntime().liveBytes
	rep.AllocBytes = after.allocBytes - before.allocBytes
	rep.GCShare = (after.gcCPU - before.gcCPU) / (after.totalCPU - before.totalCPU)
	rep.Failed, rep.FirstFailure = gridFailures(recs)
	rep.Records = len(recs)
	rep.Pool = harness.MachinePoolStats()
	enc, err := encodeExperiments(recs, replicatedExperiments)
	if err != nil {
		return err
	}
	rep.Replicated = string(enc)
	_, _, rep.TableHits, rep.TableMisses = harness.BuildCacheStats()
	if seed == 42 {
		rep.Golden = "ok"
		if err := checkGolden(recs); err != nil {
			rep.Golden = err.Error()
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runGridPass runs one grid pass in a fresh child process.
func runGridPass(seed uint64) (*passReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--grid-pass", "--workload", "grid", "--seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("grid pass child: %w", err)
	}
	var rep passReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("grid pass child printed %q: %w", b, err)
	}
	return &rep, nil
}

// checkPass folds a pass report's failures and golden check into out.
func checkPass(out *result, rep *passReport) {
	out.Attempted += len(rep.CellMS)
	if rep.Failed > 0 {
		out.Failed += rep.Failed
		out.fail("grid seed %d: %d unclassified errors, first %s", rep.Seed, rep.Failed, rep.FirstFailure)
	}
	switch rep.Golden {
	case "":
	case "ok":
		fmt.Printf("# seed 42: %v records identical to %s\n", goldenExperiments, goldenPath)
	default:
		out.fail("%s", rep.Golden)
	}
}

// measureGrid runs grid passes, each in a fresh child process, while
// their summed wall time stays half a pass short of the window, so the
// passes fill it to within half a pass. Pass p uses seed s_p (s_0 is the
// run's seed, so seed 42 checks the golden).
//
// An op is a cell, but the runner hands a pass's records over together,
// so the grid's latency is the pass: what a researcher waits for. Cell
// times would put the median among hundreds of 1-8 ms attack and defense
// cells, which swing by more than the host's speed does.
func measureGrid(seed uint64, d time.Duration) (*result, error) {
	out := newResult()
	var lat, live []float64
	var wall, last, alloc, gc float64
	seeds := &splitmix{s: seed}
	for s := seed; wall == 0 || wall+last/2 < d.Seconds(); s = seeds.next() {
		rep, err := runGridPass(s)
		if err != nil {
			return nil, err
		}
		checkPass(out, rep)
		wall, last = wall+rep.WallS, rep.WallS
		lat = append(lat, 1000*rep.WallS)
		live = append(live, rep.LiveBytes)
		alloc += rep.AllocBytes
		gc += rep.GCShare * rep.WallS
	}

	ok := float64(out.Attempted-out.Failed) / float64(out.Attempted)
	out.add("ops_per_s", float64(out.Attempted)/wall, "1/s",
		fmt.Sprintf("%d cells in %d passes, %d workers, %.2f s of passes", out.Attempted, len(live), workers(), wall))
	out.add("latency_p50_ms", median(lat), "ms", fmt.Sprintf("pass wall time, n=%d passes", len(lat)))
	out.add("first_record_p50_ms", median(lat), "ms", "a pass returns its records together: equals latency_p50_ms")
	out.add("ok_frac", ok, "1", fmt.Sprintf("%d failed of %d attempted", out.Failed, out.Attempted))
	out.add("alloc_mb_per_op", alloc/1e6/float64(out.Attempted), "MB", "heap allocated per cell")
	out.add("retained_heap_mb", median(live)/1e6, "MB", fmt.Sprintf("median over %d passes of the live heap after the pass and a forced GC", len(live)))
	fmt.Printf("# gc cpu share %.4f over the passes\n", gc/wall)
	return out, nil
}
