// benchjson converts `go test -bench` text output (stdin) into a stable
// JSON document for committed benchmark snapshots (BENCH_2.json). It keeps
// every metric a benchmark reports — ns/op, B/op, allocs/op, and the
// b.ReportMetric extras like sim-instructions/s — in the order printed, so
// two snapshots diff cleanly.
//
//	go test -bench=. -benchmem -run='^$' . | go run ./cmd/benchjson -o BENCH_2.json
//
// Diff mode compares two snapshots and prints per-benchmark deltas for
// every metric the two have in common (ns/op, allocs/op, B/op, and rate
// metrics like sim-instructions/s). Time- and allocation-like metrics
// count increases as regressions; rate metrics (unit ending in "/s") count
// decreases. The exit code is 1 when any metric regresses by more than
// -threshold percent, so CI can gate on it:
//
//	go run ./cmd/benchjson -diff -threshold 20 BENCH_2.json BENCH_3.json
//
// Diff mode also accepts `dopbench -json` record streams (JSONL) on either
// side: each record becomes a pseudo-benchmark named experiment/cell with
// one metric per value. Cells carrying an error classification (notably
// "injected" from the fault sweep) are reported but never counted as
// regressions — expected degradation under an injected fault schedule must
// not fail CI. When the two sides disagree on which cells exist, the diff
// ends with an explicit cell-set mismatch section listing every extra and
// missing cell key.
//
// -metrics renders a telemetry snapshot written by `dopbench -metrics` as
// text: gauges, counters, histogram summaries, and per cell the top
// cycle-attribution rows with the cell's exact total:
//
//	go run ./cmd/benchjson -metrics metrics.json
//
// -tracetree folds a span-trace JSONL file (`dopbench -trace`, or a
// session trace fetched from smokestackd's flight recorder) into the
// per-session span tree — trace root → cell → run, each run carrying
// its exact cycle-attribution rows — and verifies that every run span's
// rows sum to its recorded total exactly before printing the tree with
// per-cell and per-tree cycle totals. A trace that fails reconciliation,
// or that has spans but also events outside them, exits 1:
//
//	go run ./cmd/benchjson -tracetree trace.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// Metric is one reported (unit, value) pair.
type Metric struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// Benchmark is one result line.
type Benchmark struct {
	Name    string   `json:"name"`
	Runs    int64    `json:"runs"`
	Metrics []Metric `json:"metrics"`
	// ErrClass carries the error classification of a failed experiment
	// cell loaded from JSONL records ("injected" for fault-injected cells;
	// "" for ordinary benchmarks). Classified cells are expected to
	// degrade, so -diff reports but never regresses them.
	ErrClass string `json:"err_class,omitempty"`
}

// Report is the whole document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func parse(lines *bufio.Scanner) (*Report, error) {
	r := &Report{}
	for lines.Scan() {
		line := strings.TrimSpace(lines.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			r.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			r.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			r.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			r.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		f := strings.Fields(line)
		// Name, run count, then (value, unit) pairs.
		if len(f) < 4 || len(f)%2 != 0 {
			return nil, fmt.Errorf("malformed benchmark line: %q", line)
		}
		runs, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad run count in %q: %v", line, err)
		}
		b := Benchmark{Name: strings.TrimPrefix(f[0], "Benchmark"), Runs: runs}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value in %q: %v", line, err)
			}
			b.Metrics = append(b.Metrics, Metric{Unit: f[i+1], Value: v})
		}
		r.Benchmarks = append(r.Benchmarks, b)
	}
	if err := lines.Err(); err != nil {
		return nil, err
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("no Benchmark lines found on stdin")
	}
	return r, nil
}

// load reads a snapshot: either a Report produced by this tool, or a
// `dopbench -json` JSONL stream of experiment records (one object per
// line), converted so experiment sweeps diff with the same machinery as
// benchmarks. Record values become metrics keyed by value name; the cell's
// error classification is kept so -diff can tolerate fault-injected cells.
func load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err == nil && len(r.Benchmarks) > 0 {
		return &r, nil
	}
	if r2, err2 := loadRecords(b); err2 == nil {
		return r2, nil
	}
	return nil, fmt.Errorf("%s: neither a benchjson snapshot nor dopbench -json records", path)
}

// record mirrors the exp.Record fields this tool consumes.
type record struct {
	Experiment string             `json:"experiment"`
	Cell       string             `json:"cell"`
	Values     map[string]float64 `json:"values"`
	Err        string             `json:"err"`
	ErrClass   string             `json:"err_class"`
}

// loadRecords parses a dopbench -json JSONL stream into a Report. A failed
// cell emits two records under one name — its partial values and the error
// record carrying the classification; they merge into one entry here.
func loadRecords(b []byte) (*Report, error) {
	r := &Report{}
	index := make(map[string]int)
	sc := bufio.NewScanner(strings.NewReader(string(b)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, err
		}
		if rec.Experiment == "" || rec.Cell == "" {
			return nil, fmt.Errorf("line is not an experiment record: %q", line)
		}
		name := rec.Experiment + "/" + rec.Cell
		i, ok := index[name]
		if !ok {
			i = len(r.Benchmarks)
			index[name] = i
			r.Benchmarks = append(r.Benchmarks, Benchmark{Name: name, Runs: 1})
		}
		bench := &r.Benchmarks[i]
		if rec.ErrClass != "" {
			bench.ErrClass = rec.ErrClass
		} else if rec.Err != "" && bench.ErrClass == "" {
			// An unclassified failure has no classification to excuse it;
			// mark it so diff can flag the cell.
			bench.ErrClass = "error"
		}
		// Sort value names so two snapshots of the same sweep align.
		names := make([]string, 0, len(rec.Values))
		for name := range rec.Values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if _, dup := metricValue(bench, name); !dup {
				bench.Metrics = append(bench.Metrics, Metric{Unit: name, Value: rec.Values[name]})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("no records found")
	}
	return r, nil
}

// metricValue finds the first metric with the given unit.
func metricValue(b *Benchmark, unit string) (float64, bool) {
	for _, m := range b.Metrics {
		if m.Unit == unit {
			return m.Value, true
		}
	}
	return 0, false
}

// higherIsBetter classifies a metric's improvement direction: rates (any
// unit ending in "/s") improve upward, everything else — ns/op, B/op,
// allocs/op — improves downward.
func higherIsBetter(unit string) bool { return strings.HasSuffix(unit, "/s") }

// diff prints per-benchmark metric deltas between two snapshots and
// reports whether any metric regressed by more than threshold percent.
// Benchmarks or metrics present on only one side are reported but never
// count as regressions (they have no baseline to regress from).
func diff(w *os.File, oldR, newR *Report, threshold float64) (regressed bool) {
	oldByName := make(map[string]*Benchmark, len(oldR.Benchmarks))
	for i := range oldR.Benchmarks {
		oldByName[oldR.Benchmarks[i].Name] = &oldR.Benchmarks[i]
	}
	matched := make(map[string]bool)
	var extra []string
	for i := range newR.Benchmarks {
		nb := &newR.Benchmarks[i]
		ob, ok := oldByName[nb.Name]
		if !ok {
			extra = append(extra, nb.Name)
			continue
		}
		matched[nb.Name] = true
		// A cell classified on either side degraded by design (fault
		// injection) or failed outright; its numbers are not comparable
		// baselines, so report the classification and never regress on it.
		if nb.ErrClass != "" || ob.ErrClass != "" {
			tag := nb.ErrClass
			if tag == "" {
				tag = ob.ErrClass
			}
			note := "flagged, not a regression"
			if tag == "injected" {
				note = "fault-injected; tolerated"
			}
			fmt.Fprintf(w, "%-40s  (classified %q: %s)\n", nb.Name, tag, note)
			continue
		}
		fmt.Fprintf(w, "%s\n", nb.Name)
		for _, m := range nb.Metrics {
			ov, ok := metricValue(ob, m.Unit)
			if !ok {
				fmt.Fprintf(w, "  %-22s %14.4g  (no baseline metric)\n", m.Unit, m.Value)
				continue
			}
			verdict := ""
			if ov == 0 {
				// No percentage exists from a zero baseline. 0 -> N on a
				// lower-is-better metric is still an unambiguous regression
				// — a zero-alloc benchmark that started allocating is the
				// canonical case — and must not slip through the threshold
				// arithmetic as +0.00%.
				if m.Value != 0 && !higherIsBetter(m.Unit) {
					verdict = "  REGRESSION"
					regressed = true
				}
				fmt.Fprintf(w, "  %-22s %14.4g -> %14.4g  (zero baseline)%s\n", m.Unit, ov, m.Value, verdict)
				continue
			}
			pct := (m.Value - ov) / ov * 100
			worse := pct > 0
			if higherIsBetter(m.Unit) {
				worse = pct < 0
			}
			if worse && pct != 0 && abs(pct) > threshold {
				verdict = "  REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "  %-22s %14.4g -> %14.4g  %+7.2f%%%s\n", m.Unit, ov, m.Value, pct, verdict)
		}
	}
	var missing []string
	for name := range oldByName {
		if !matched[name] {
			missing = append(missing, name)
		}
	}
	// When the two snapshots disagree on which cells exist, list both
	// directions explicitly — a sweep that silently dropped cells would
	// otherwise look like a clean diff.
	if len(extra) > 0 || len(missing) > 0 {
		sort.Strings(extra)
		sort.Strings(missing)
		fmt.Fprintf(w, "\ncell-set mismatch (%d extra, %d missing):\n", len(extra), len(missing))
		for _, name := range extra {
			fmt.Fprintf(w, "  extra    %s  (only in candidate; no baseline to diff)\n", name)
		}
		for _, name := range missing {
			fmt.Fprintf(w, "  missing  %s  (only in baseline; dropped from candidate)\n", name)
		}
	}
	return regressed
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// enforceZeroAlloc requires every benchmark matching re to report zero
// allocs/op and B/op in the snapshot — the gate for pooled steady-state
// paths, whose whole contract is allocation-free runs. A pattern that
// matches nothing fails too: a gate that silently guards nothing is
// misconfigured, not passing.
func enforceZeroAlloc(w *os.File, r *Report, re *regexp.Regexp) (failed bool) {
	matched := 0
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		if !re.MatchString(b.Name) {
			continue
		}
		matched++
		for _, unit := range []string{"allocs/op", "B/op"} {
			if v, ok := metricValue(b, unit); ok && v != 0 {
				fmt.Fprintf(w, "zero-alloc violation: %s  %s = %g\n", b.Name, unit, v)
				failed = true
			}
		}
	}
	if matched == 0 {
		fmt.Fprintf(w, "zero-alloc gate: pattern matched no benchmarks\n")
		return true
	}
	return failed
}

// restrict drops every benchmark whose name does not match re. Applied to
// both sides of a diff, so the cell-set mismatch check still fires when
// the two snapshots disagree within the restricted scope. Lets a gate
// compare the benchmarks a change targets while ignoring host-bound ones
// (hardware entropy latency, stochastic attack rates) that cannot diff
// meaningfully across recording machines.
func restrict(r *Report, re *regexp.Regexp) {
	kept := r.Benchmarks[:0]
	for _, b := range r.Benchmarks {
		if re.MatchString(b.Name) {
			kept = append(kept, b)
		}
	}
	r.Benchmarks = kept
}

// renderMetrics pretty-prints a telemetry snapshot written by
// `dopbench -metrics`: gauges and counters, histogram summaries, then per
// cell the top cycle-attribution rows (op and category buckets, ranked by
// cycles) with the cell's exact total.
func renderMetrics(w *os.File, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := telemetry.ReadSnapshot(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	for _, c := range snap.Counters {
		fmt.Fprintf(w, "counter  %-32s %d\n", c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		fmt.Fprintf(w, "gauge    %-32s %g\n", g.Name, g.Value)
	}
	for _, h := range snap.Histograms {
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		fmt.Fprintf(w, "hist     %-32s n=%d sum=%g mean=%g\n", h.Name, h.Count, h.Sum, mean)
	}
	const topRows = 12
	for _, c := range snap.Cells {
		fmt.Fprintf(w, "\ncell %s  total_cycles=%.6f  wall=%.3fs\n",
			c.Name, c.TotalCycles, c.WallSeconds)
		rows := append([]telemetry.Row(nil), c.Rows...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Cycles > rows[j].Cycles })
		for i, r := range rows {
			if i == topRows {
				rest := 0.0
				for _, rr := range rows[i:] {
					rest += rr.Cycles
				}
				fmt.Fprintf(w, "  ... %d more rows, %.6f cycles\n", len(rows)-i, rest)
				break
			}
			share := 0.0
			if c.TotalCycles > 0 {
				share = r.Cycles / c.TotalCycles * 100
			}
			fmt.Fprintf(w, "  %-4s %-22s %14d x %16.6f cy  %5.1f%%\n", r.Kind, r.Name, r.Count, r.Cycles, share)
		}
		for _, k := range sortedKeys(c.RNG) {
			fmt.Fprintf(w, "  rng  %-22s %d\n", k, c.RNG[k])
		}
	}
	return nil
}

// renderTraceTree folds a span-trace JSONL file into its span tree,
// verifies the exactness contract (every run span's rows sum to its
// recorded total, bit-for-bit), and prints the indented tree followed by
// the per-cell exact cycle totals. A truncated tail, a corrupt line, a
// reconciliation mismatch or an event outside the span tree of a trace
// that has one is an error.
func renderTraceTree(w *os.File, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := telemetry.ReadTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	tree := telemetry.FoldTrace(events)
	if err := tree.Reconcile(); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if n := len(tree.Unspanned); n > 0 && len(tree.Roots) > 0 {
		return fmt.Errorf("%s: %d events outside the span tree (first: %q)", path, n, tree.Unspanned[0].Kind)
	}
	if err := tree.Write(w); err != nil {
		return err
	}
	cells := tree.CellTotals()
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "cell %-40s total_cycles=%.6f\n", name, cells[name])
	}
	return nil
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	note := flag.String("note", "", "free-form note recorded in the snapshot")
	diffMode := flag.Bool("diff", false, "compare two snapshots: benchjson -diff old.json new.json")
	threshold := flag.Float64("threshold", 10, "regression threshold in percent for -diff's exit code")
	only := flag.String("only", "", "for -diff: restrict the comparison to benchmarks whose name matches this regexp")
	zeroAlloc := flag.String("zeroalloc", "", "for -diff: require benchmarks in the new snapshot matching this regexp to report 0 allocs/op and 0 B/op")
	metricsFile := flag.String("metrics", "", "render a dopbench -metrics telemetry snapshot as text")
	traceFile := flag.String("tracetree", "", "fold a span-trace JSONL file into its reconciled span tree")
	flag.Parse()

	if *metricsFile != "" {
		if err := renderMetrics(os.Stdout, *metricsFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		return
	}

	if *traceFile != "" {
		if err := renderTraceTree(os.Stdout, *traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two snapshot files: old.json new.json")
			os.Exit(2)
		}
		oldR, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		newR, err := load(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		zeroFailed := false
		if *zeroAlloc != "" {
			re, err := regexp.Compile(*zeroAlloc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: bad -zeroalloc regexp:", err)
				os.Exit(2)
			}
			// Checked against the full new snapshot, before -only narrows
			// the diff scope.
			zeroFailed = enforceZeroAlloc(os.Stdout, newR, re)
		}
		scope := ""
		if *only != "" {
			re, err := regexp.Compile(*only)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: bad -only regexp:", err)
				os.Exit(2)
			}
			restrict(oldR, re)
			restrict(newR, re)
			scope = fmt.Sprintf(", only %q", *only)
		}
		fmt.Printf("benchjson diff: %s -> %s (threshold %.1f%%%s)\n\n", flag.Arg(0), flag.Arg(1), *threshold, scope)
		regressed := diff(os.Stdout, oldR, newR, *threshold)
		if regressed {
			fmt.Fprintf(os.Stderr, "benchjson: regression beyond %.1f%% detected\n", *threshold)
		}
		if zeroFailed {
			fmt.Fprintln(os.Stderr, "benchjson: zero-alloc gate failed")
		}
		if regressed || zeroFailed {
			os.Exit(1)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	r, err := parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	r.Note = *note
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(r.Benchmarks))
}
