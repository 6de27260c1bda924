package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/harness"
)

// The traced run (--trace 1). Half the window runs the workload untraced,
// as the end-to-end run does, for the untraced latency, the GC share and
// the program's own cache and pool counters. The other half replays the
// same op stream from its start through each layer's public calls under
// spans (replay.go); probes time the layers a workload's ops leave idle
// on inputs of their own. The spans fold into per-op self times
// (trace.go); their medians are the per-layer metrics.

// prediction is each layer's heavy and idle workloads: a change to the
// layer should move the heavy workload's metric and leave the idle one's
// unchanged, so an idle layer should take under idleShare of the idle
// workload's per-op time.
var prediction = map[string]map[string]string{
	"compile":   {"inline": "heavy", "named": "idle", "cells": "idle"},
	"vm.lower":  {"inline": "heavy", "named": "idle", "cells": "idle"},
	"vm.mine":   {"inline": "heavy", "named": "idle", "cells": "idle"},
	"vm.new":    {"inline": "heavy", "named": "idle", "cells": "idle"},
	"vm.reset":  {"cells": "heavy", "grid": "heavy", "named": "idle"},
	"vm.run":    {"named": "heavy", "grid": "heavy", "inline": "idle"},
	"rng":       {"named": "heavy", "grid": "heavy", "inline": "idle"},
	"layout":    {"inline": "heavy", "named": "idle", "cells": "idle"},
	"harness":   {"cells": "heavy", "inline": "heavy", "named": "idle"},
	"telemetry": {"cells": "heavy", "grid": "idle"},
	"exp":       {"cells": "heavy", "grid": "heavy", "named": "idle"},
	"attack":    {"grid": "heavy", "named": "idle", "inline": "idle", "cells": "idle"},
	"server":    {"cells": "heavy", "named": "idle"},
	"runtime":   {"inline": "heavy", "named": "idle"},
}

const idleShare = 0.05

// untracedRun is what the traced run keeps of its untraced half.
type untracedRun struct {
	p50MS       float64         // per-op latency (session or grid cell)
	latMS       map[int]float64 // untraced latency by op (server workloads)
	gcShare     float64
	recordsOp   float64
	poolHits    float64
	poolMisses  float64
	restored    float64
	tableHits   float64
	tableMisses float64
	progHits    float64
	progMisses  float64
	progEvicts  float64
}

func traced(wl string, seed uint64, in *inputs, lb *loopback, d time.Duration) (*result, error) {
	out := newResult()
	rp := newReplayer()
	rp.drawNS = rngProbe()
	half := d / 2

	var u untracedRun
	var rep *passReport
	if wl == "grid" {
		var err error
		rep, err = runGridPass(seed)
		if err != nil {
			return nil, err
		}
		checkPass(out, rep)
		u = untracedRun{p50MS: median(rep.CellMS), gcShare: rep.GCShare,
			recordsOp: float64(rep.Records) / float64(len(rep.CellMS)),
			poolHits:  float64(rep.Pool.Hits), poolMisses: float64(rep.Pool.Misses),
			restored: float64(rep.Pool.RestoredBytes), tableHits: float64(rep.TableHits), tableMisses: float64(rep.TableMisses)}
	} else {
		// The replay submits the stream's head again; for inline it is held
		// to a quarter of the stream, the untraced half to a half, so the
		// traced run stays within the stream's memory ceiling.
		ops := in.ops
		if wl == "inline" {
			ops = ops[:len(ops)/2]
		}
		lb.keepRaw = true
		w, err := drive(lb, ops, half, out)
		if err != nil {
			return nil, err
		}
		lat := map[int]float64{}
		rp.streamed = map[int][]byte{}
		var records int
		for _, r := range w.res {
			records += r.records
			if r.failure == "" {
				lat[r.op.idx] = r.latMS
				rp.streamed[r.op.idx] = r.raw
			}
		}
		pool := harness.MachinePoolStats()
		_, ph, pm, pe := harness.SessionProgCacheStats()
		_, _, th, tm := harness.BuildCacheStats()
		u = untracedRun{p50MS: wquantile(w.lat, w.wts, 0.5), latMS: lat, gcShare: w.gcShare,
			recordsOp: float64(records) / float64(len(w.res)),
			poolHits:  float64(pool.Hits), poolMisses: float64(pool.Misses), restored: float64(pool.RestoredBytes),
			tableHits: float64(th), tableMisses: float64(tm),
			progHits: float64(ph), progMisses: float64(pm), progEvicts: float64(pe)}
	}

	start := time.Now()
	var cellMS map[string][]float64
	replayed := 0
	if wl == "grid" || wl == "named" {
		rp.programProbe()
	}
	if wl == "grid" {
		recs, err := rp.gridReplay(seed)
		if err != nil {
			return nil, err
		}
		replayed = len(rp.opSpans)
		if n, first := gridFailures(recs); n > 0 {
			out.Failed += n
			out.fail("grid replay: %d unclassified errors, first %s", n, first)
		}
		var all bytes.Buffer
		rp.encode(-1, 0, recs, &all)
		enc, err := encodeExperiments(recs, replicatedExperiments)
		if err != nil {
			return nil, err
		}
		if string(enc) != rep.Replicated {
			out.fail("grid replay: %v records differ from the untraced pass's:\nreplay %s\npass   %s", replicatedExperiments, enc, rep.Replicated)
		} else {
			fmt.Printf("# replayed %v records identical to the untraced pass's\n", replicatedExperiments)
		}
	} else {
		limit := len(in.ops)
		if wl == "inline" {
			limit /= 4
		}
		for ; replayed < limit && (replayed == 0 || time.Since(start) < half); replayed++ {
			rp.session(&in.ops[replayed])
		}
		rp.attackProbe()
		var err error
		if cellMS, err = gridCellProbe(seed); err != nil {
			return nil, err
		}
	}
	out.Attempted += replayed
	if wl != "grid" {
		if rp.compared == 0 {
			out.fail("replay: no replayed session ran in the untraced half to compare with")
		}
		fmt.Printf("# %d replayed sessions checked against the streamed bytes\n", rp.compared)
	}
	for _, w := range rp.wrong {
		out.fail("replay: %s", w)
	}

	spans := rp.tr.snapshot()
	f, err := fold(spans)
	if err != nil {
		return nil, fmt.Errorf("trace fold: %w", err)
	}
	path := filepath.Join(".bench_build", "perfbench", "spans-"+wl+"-"+strconv.FormatUint(seed, 10)+".jsonl")
	if err := rp.tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# %d ops replayed, %d spans folded, written to %s\n", len(f.opMS), len(spans), path)
	if wl == "grid" {
		cellMS = map[string][]float64{}
		for i, label := range f.opLabel {
			cellMS[label] = append(cellMS[label], f.opMS[i])
		}
	}
	// The server's own time per session is the untraced latency minus the
	// replayed session, paired by op; for grid the gap is the tracing
	// overhead on the median cell.
	gap := u.p50MS - median(f.opMS)
	if wl != "grid" {
		var d []float64
		for i, op := range f.opIDs {
			if l, ok := u.latMS[op]; ok {
				d = append(d, l-f.opMS[i])
			}
		}
		gap = median(d)
	}
	layerMetrics(out, rp, f, spans, u, cellMS, gap)
	shareTable(wl, f, rp, u, gap)
	return out, nil
}

// layerMetrics adds the 35 per-layer metrics and the unattributed time.
func layerMetrics(out *result, rp *replayer, f *folded, spans []span, u untracedRun, cellMS map[string][]float64, gap float64) {
	self := func(name string) []float64 { return f.selfMS[name] }
	var planMiss []float64
	instr := map[string]float64{}
	runMS := map[string]float64{}
	for _, s := range spans {
		switch {
		case s.Name == "layout.plan" && s.Label == "miss":
			planMiss = append(planMiss, s.ms())
		case s.Name == "vm.run.twin":
			instr[s.Label] += float64(s.Count)
			runMS[s.Label] += s.ms()
		}
	}
	var draws []float64
	for _, n := range rp.draws {
		draws = append(draws, n)
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	n := func(xs []float64) string { return fmt.Sprintf("n=%d", len(xs)) }
	out.add("compile.ms", median(self("compile")), "ms", n(self("compile"))+" compiles")
	out.add("compile.ir_instrs", median(rp.irSizes), "count", n(rp.irSizes)+" programs")
	out.add("vm.lower_ms", median(rp.lowerMS), "ms", "cold TierCompiled vm.New minus warm, "+n(rp.lowerMS))
	out.add("vm.mine_ms", median(rp.mineMS), "ms", "TierBlock vm.New on the lowered cache minus warm, "+n(rp.mineMS))
	out.add("vm.new_ms", median(self("vm.new")), "ms", n(self("vm.new"))+" constructions")
	out.add("vm.reset_us", 1000*median(self("vm.reset")), "us", n(self("vm.reset"))+" pool hits")
	out.add("vm.restored_kb", u.restored/1024/math.Max(u.poolHits, 1), "kB", "copy-on-reset bytes per pool hit, untraced half")
	out.add("vm.pool_hit_ratio", ratio(u.poolHits, u.poolMisses), "1", "untraced half")
	out.add("vm.run_ms", median(self("vm.run")), "ms", n(self("vm.run"))+" runs")
	out.add("vm.minstr_per_s", instr["profiled"]/runMS["profiled"]/1e3, "Minstr/s", "with Options.Prof, paired twin runs")
	out.add("vm.minstr_per_s_dormant", instr["dormant"]/runMS["dormant"]/1e3, "Minstr/s", "without Options.Prof, the same runs")
	for _, scheme := range harness.Schemes {
		out.add("rng.draw_ns."+scheme, rp.drawNS[scheme], "ns", "median of 7 batches of 65536 Next calls")
	}
	out.add("rng.draws_per_op", median(draws), "count", n(draws)+" ops with profiled runs")
	out.add("layout.plan_ms", median(planMiss), "ms", n(planMiss)+" plan builds")
	out.add("pbox.table_hit_ratio", ratio(u.tableHits, u.tableMisses), "1", "harness.BuildCacheStats, untraced half")
	out.add("harness.engine_us", 1000*median(self("harness.engine")), "us", n(self("harness.engine"))+" engines")
	out.add("harness.progcache_hit_ratio", ratio(u.progHits, u.progMisses), "1", "untraced half (0 without inline programs)")
	out.add("harness.progcache_evictions", u.progEvicts, "count", "untraced half")
	out.add("telemetry.us_per_cell", 1000*median(self("telemetry")), "us", n(self("telemetry"))+" profile flushes")
	out.add("exp.encode_us", 1000*median(self("exp.encode")), "us", n(self("exp.encode"))+" records")
	for _, name := range gridExperiments {
		out.add("exp.cell_ms."+name, median(cellMS[name]), "ms", n(cellMS[name])+" cells")
	}
	out.add("attack.attempt_ms", median(self("attack.attempt")), "ms", n(self("attack.attempt"))+" attempts")
	out.add("server.records_per_op", u.recordsOp, "count", "untraced half")
	out.add("server.unattributed_ms", gap, "ms", "median over ops of untraced latency minus the replayed op")
	out.add("runtime.gc_cpu_share", u.gcShare, "1", "GC CPU over total CPU, untraced half")
	out.add("unattributed", median(f.unattributedMS), "ms", "per-op time outside every layer span, "+n(f.unattributedMS))
}

// shareTable prints each layer's share of the replayed per-op time next
// to its prediction for the workload, flagging idle layers over
// idleShare. rng runs inside vm.run, so its share is estimated from the
// ops' draw counts at the probe's cost per draw; server and runtime come
// from the untraced half.
func shareTable(wl string, f *folded, rp *replayer, u untracedRun, gap float64) {
	total := sum(f.opMS)
	shares := map[string]float64{}
	for _, l := range f.layers() {
		shares[l] = f.share(l)
	}
	var drawMS float64
	for _, t := range rp.drawTime {
		drawMS += t
	}
	if total > 0 {
		shares["rng"] = drawMS / total
	}
	if wl != "grid" {
		shares["server"] = math.Max(0, gap/u.p50MS)
	}
	shares["runtime"] = u.gcShare
	fmt.Printf("# layer shares of %s per-op time (%d ops, %.1f ms median op)\n", wl, len(f.opMS), median(f.opMS))
	for _, l := range append(sortedKeys(prediction), "unattributed") {
		s, ok := shares[l]
		if !ok && l != "server" { // a layer with no span inside an op has no share
			s, ok = f.share(l), true
		}
		pred := prediction[l][wl]
		verdict := ""
		if pred == "idle" && s >= idleShare {
			verdict = fmt.Sprintf("  IDLE LAYER OVER %.0f%%", idleShare*100)
		}
		if !ok {
			fmt.Printf("#   %-13s %7s  %-5s\n", l, "n/a", pred)
			continue
		}
		fmt.Printf("#   %-13s %6.2f%%  %-5s%s\n", l, 100*s, pred, verdict)
	}
}

// noteNaN keeps the result line valid JSON: a metric with no samples
// reports 0 and says so.
func noteNaN(v float64, name string) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "perfbench: %s has no samples; reporting 0\n", name)
		return 0
	}
	return v
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
