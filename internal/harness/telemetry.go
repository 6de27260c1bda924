// Telemetry glue: how the experiment harness feeds the observability layer.
// Everything in this file is dormant when Config.Metrics, Config.Trace and
// Config.CellDone are all nil — the cells run exactly as before, with nil
// *vm.Profile pointers, nil exp.Hooks and no gauges registered — so goldens
// and the invariance suite see bit-identical results.
//
// Threading model: one obs per experiment cell. The obs owns the cell's
// *vm.Profile (shared by every Machine the cell constructs, which run
// sequentially within the cell), mirrors fault-injector firings and rng
// degradation-ladder transitions into the trace, and folds the accumulated
// profile into the Registry cell when the cell finishes. Finished obs are
// pooled with their profile and row buffer, and trace events are built
// only when a tracer is attached, so an untraced observed cell allocates
// nothing for its observation but the cell key.
//
// Span mode (Config.TraceID set alongside Trace) threads a deterministic
// span hierarchy through the same paths: trace root → cell → run. Span IDs
// hash the path from the trace root, so the runner hooks and the cell's
// obs derive identical IDs without sharing state.

package harness

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// obs is a per-cell observation context; a nil *obs is the dormant case
// and every method no-ops on it.
type obs struct {
	reg  *telemetry.Registry
	tr   *telemetry.Tracer
	cell string
	prof *vm.Profile
	// Span-mode state, zero otherwise. span is the cell span; cur the
	// innermost active span (the cell between runs, the run during one).
	// cur is only touched from the cell goroutine — the fault and rng
	// callbacks fire synchronously on it — so it needs no lock.
	span     telemetry.Span
	cur      telemetry.Span
	runs     int
	prevRows []telemetry.Row
	rngh     map[string]uint64
	cellDone func(cell string, rows []telemetry.Row, rngHealth map[string]uint64)
	// spare and rows outlive the cell in obsPool: the profile prof uses
	// when the cell is profiled, and the buffer done lays its rows into.
	spare *vm.Profile
	rows  []telemetry.Row
}

// obsPool recycles finished observation contexts.
var obsPool = sync.Pool{New: func() any { return new(obs) }}

// obs builds the observation context for one cell, or nil when telemetry
// is dormant.
func (c Config) obs(experiment, name string) *obs {
	if c.Metrics == nil && c.Trace == nil && c.CellDone == nil {
		return nil
	}
	o := obsPool.Get().(*obs)
	*o = obs{reg: c.Metrics, tr: c.Trace, cell: experiment + "/" + name, cellDone: c.CellDone, spare: o.spare, rows: o.rows}
	spanned := c.Trace != nil && c.TraceID != ""
	if c.Metrics != nil || c.CellDone != nil || spanned {
		if o.spare == nil {
			o.spare = vm.NewProfile()
		}
		o.prof = o.spare
		o.prof.Reset()
	}
	if spanned {
		o.span = telemetry.NewSpan(c.TraceID).Child("cell", o.cell)
		o.cur = o.span
	}
	return o
}

// profile returns the profile to pass as vm.Options.Prof (nil when
// dormant, which keeps the VM hot paths call-free).
func (o *obs) profile() *vm.Profile {
	if o == nil {
		return nil
	}
	return o.prof
}

// runStart traces the start of one VM run within the cell. In span mode
// each run opens its own child span of the cell.
func (o *obs) runStart(label string) {
	if o == nil || o.tr == nil {
		return
	}
	if o.span.ID != "" {
		o.runs++
		o.cur = o.span.Child("run", strconv.Itoa(o.runs), label)
	}
	o.tr.SpanEvent("run.start", o.cell, o.cur, map[string]any{"label": label})
}

// runEnd traces the end of one VM run with its modeled stats. In span mode
// the run.end event additionally carries the run's exact attribution
// delta: the profile rows accumulated by this run alone (grid-rounded
// cycles subtract exactly) plus their sum, the reconciliation target for
// FoldTrace.Reconcile, which `make smoke` runs through benchjson
// -tracetree and the selftest, and `make race` through the span tests.
func (o *obs) runEnd(label string, m *vm.Machine, err error) {
	if o == nil || o.tr == nil {
		return
	}
	f := map[string]any{"label": label}
	if m != nil {
		st := m.Stats()
		f["cycles"] = st.Cycles
		f["instructions"] = st.Instructions
	}
	if err != nil {
		f["err"] = err.Error()
		var c *vm.Canceled
		if errors.As(err, &c) {
			o.tr.SpanEvent("watchdog.cancel", o.cell, o.cur, map[string]any{"label": label, "err": err.Error()})
		}
	}
	if o.span.ID != "" && o.prof != nil {
		rows := o.prof.Rows()
		delta := deltaRows(rows, o.prevRows)
		o.prevRows = rows
		var total float64
		for _, r := range delta {
			total += r.Cycles
		}
		f["rows"] = delta
		f["total_cycles"] = total
	}
	o.tr.SpanEvent("run.end", o.cell, o.cur, f)
	o.cur = o.span
}

// deltaRows subtracts the prev snapshot from cur by (kind, name). Both
// sides are monotone accumulations of 2^-20-grid cycles, so counts never
// go negative and the cycle subtraction is exact.
func deltaRows(cur, prev []telemetry.Row) []telemetry.Row {
	type key struct{ kind, name string }
	old := make(map[key]telemetry.Row, len(prev))
	for _, r := range prev {
		old[key{r.Kind, r.Name}] = r
	}
	var out []telemetry.Row
	for _, r := range cur {
		p := old[key{r.Kind, r.Name}]
		r.Count -= p.Count
		r.Cycles -= p.Cycles
		if r.Count != 0 || r.Cycles != 0 {
			out = append(out, r)
		}
	}
	return out
}

// rngHealth exports the entropy source's health counters into the cell
// snapshot (satellite: rng.Health through the telemetry snapshot) and
// retains them for CellDone.
func (o *obs) rngHealth(src rng.Source) {
	if o == nil {
		return
	}
	h, ok := rng.HealthOf(src)
	if !ok {
		return
	}
	m := map[string]uint64{
		"draws":     h.Draws,
		"retries":   h.Retries,
		"fallbacks": h.Fallbacks,
		"reseeds":   h.Reseeds,
		"failures":  h.Failures,
	}
	o.rngh = m
	if o.reg != nil {
		o.reg.Cell(o.cell).SetRNG(m)
	}
}

// watchRNG mirrors the source's degradation-ladder transitions (reseed,
// fallback engagement, reprobe recovery, exhaustion) into the trace,
// scoped to the innermost active span.
func (o *obs) watchRNG(src rng.Source) {
	if o == nil || o.tr == nil {
		return
	}
	fn := func(event string) {
		o.tr.SpanEvent("rng.ladder", o.cell, o.cur, map[string]any{"event": event})
	}
	switch s := src.(type) {
	case *rng.AESCtr:
		s.Notify = fn
	case *rng.RDRand:
		s.Notify = fn
	}
}

// watchFaults mirrors the injector's applied faults into the trace, in
// application order (the trace's global sequence numbers replay a sweep's
// injection events exactly), scoped to the innermost active span.
func (o *obs) watchFaults(inj *faultinject.Injector) {
	if o == nil || o.tr == nil || inj == nil {
		return
	}
	inj.Observe(func(kind string, index uint64, detail string) {
		f := map[string]any{"index": index}
		if detail != "" {
			f["name"] = detail
		}
		o.tr.SpanEvent("fault."+kind, o.cell, o.cur, f)
	})
}

// done folds the cell's accumulated VM profile into the registry cell and
// hands the capture to CellDone, then returns the obs to obsPool. Call
// after the cell's last machine has finished (machine profiles flush at
// Run exit, so the rows are complete by then) and use the obs no more.
func (o *obs) done() {
	if o == nil {
		return
	}
	if o.prof != nil { // always, when CellDone is set
		o.rows = o.prof.AppendRows(o.rows[:0])
		if c := o.reg.Cell(o.cell); c != nil {
			c.AddRows(o.rows)
			o.prof.EachCounter(c.AddCounter)
		}
	}
	if o.cellDone != nil {
		o.cellDone(o.cell, o.rows, o.rngh)
	}
	*o = obs{spare: o.spare, rows: o.rows}
	obsPool.Put(o)
}

// auditDetection emits a structured security audit event when err is a
// defense detection; other errors and a nil sink are ignored, so call
// sites need no guards.
func (c Config) auditDetection(cell, engine string, seed uint64, err error) {
	if c.Audit == nil || err == nil {
		return
	}
	e := telemetry.AuditEvent{
		Tenant: c.Tenant, Trace: c.TraceID, Cell: cell, Engine: engine,
		Seed: seed, Detail: err.Error(),
	}
	var (
		cv *vm.CanaryViolation
		sv *vm.ShadowStackViolation
		gv *vm.GuardViolation
	)
	switch {
	case errors.As(err, &cv):
		e.Kind, e.Slot, e.Func, e.Addr = "canary", "canary", cv.Func, cv.Addr
	case errors.As(err, &sv):
		e.Kind, e.Slot, e.Func, e.Addr = "shadowstack", "return", sv.Func, sv.Addr
	case errors.As(err, &gv):
		e.Kind, e.Slot, e.Func, e.Addr = "guard", "guard", gv.Func, gv.Addr
	default:
		return
	}
	c.Audit.Emit(e)
}

// hooks builds the runner lifecycle hooks feeding cell wall-time metrics
// plus cell.start/end trace events (span-scoped in span mode). Dormant
// configurations return the zero Hooks (all nil).
func (c Config) hooks() exp.Hooks {
	reg, tr := c.Metrics, c.Trace
	if reg == nil && tr == nil {
		return exp.Hooks{}
	}
	key := func(cell exp.Cell) string { return cell.Experiment + "/" + cell.Name }
	root := telemetry.Span{}
	if tr != nil && c.TraceID != "" {
		root = telemetry.NewSpan(c.TraceID)
	}
	// Child on the zero Span returns the zero Span, and SpanEvent with it
	// degrades to a plain Event — outside span mode these hooks emit
	// byte-identical records to earlier versions.
	cellSpan := func(cell exp.Cell) telemetry.Span { return root.Child("cell", key(cell)) }
	h := exp.Hooks{
		CellEnd: func(cell exp.Cell, recs []exp.Record, wall time.Duration, _ int) {
			if reg != nil {
				reg.Histogram("exp.cell.wall_seconds", wallBounds).Observe(wall.Seconds())
				reg.Cell(key(cell)).Timing(wall.Seconds())
			}
			if tr == nil {
				return // the events below would be built only to be dropped
			}
			failed := 0
			for _, r := range recs {
				if r.Err != "" {
					failed++
				}
			}
			tr.SpanEvent("cell.end", key(cell), cellSpan(cell), map[string]any{
				"wall_ns": wall.Nanoseconds(), "records": len(recs), "failed": failed,
			})
		},
	}
	if tr != nil {
		h.CellStart = func(cell exp.Cell) {
			tr.SpanEvent("cell.start", key(cell), cellSpan(cell), nil)
		}
	}
	return h
}

// wallBounds is the fixed histogram bucket layout for the runner's cell
// wall-time metric (seconds).
var wallBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60}

// registerGauges points the registry at the shared build caches and the
// process-wide compiled-code cache, and mirrors code-cache compiles into
// the trace — in span mode under the trace root's compile span, as
// SessionCells records an inline program's compile. Idempotent per
// Config; called once per Run, which calls the returned func when it
// returns so later compiles stay out of the finished Run's trace.
func (c Config) registerGauges() (unhook func()) {
	unhook = func() {}
	reg, tr := c.Metrics, c.Trace
	if tr != nil {
		// The zero Span (no TraceID) keeps flat traces byte-identical.
		sp := telemetry.NewSpan(c.TraceID).Child("compile")
		unhook = vm.DefaultCodeCache().OnCompile(func(prog string, funcs int) {
			tr.SpanEvent("compile", "", sp, map[string]any{"prog": prog, "funcs": funcs})
		})
	}
	if reg == nil {
		return unhook
	}
	reg.SetGauge("layout.plancache.len", func() float64 { return float64(planCache.Len()) })
	reg.SetGauge("layout.plancache.hits", func() float64 { h, _ := planCache.Stats(); return float64(h) })
	reg.SetGauge("layout.plancache.misses", func() float64 { _, m := planCache.Stats(); return float64(m) })
	reg.SetGauge("pbox.cache.len", func() float64 { return float64(tableCache.Len()) })
	reg.SetGauge("pbox.cache.hits", func() float64 { h, _ := tableCache.Stats(); return float64(h) })
	reg.SetGauge("pbox.cache.misses", func() float64 { _, m := tableCache.Stats(); return float64(m) })
	cc := vm.DefaultCodeCache()
	reg.SetGauge("vm.codecache.len", func() float64 { return float64(cc.Len()) })
	reg.SetGauge("vm.codecache.hits", func() float64 { h, _ := cc.Stats(); return float64(h) })
	reg.SetGauge("vm.codecache.misses", func() float64 { _, m := cc.Stats(); return float64(m) })
	reg.SetGauge("vm.pool.hits", func() float64 { return float64(machinePool.Stats().Hits) })
	reg.SetGauge("vm.pool.misses", func() float64 { return float64(machinePool.Stats().Misses) })
	reg.SetGauge("vm.pool.puts", func() float64 { return float64(machinePool.Stats().Puts) })
	reg.SetGauge("vm.pool.drops", func() float64 { return float64(machinePool.Stats().Drops) })
	reg.SetGauge("vm.pool.retained", func() float64 { return float64(machinePool.Stats().Retained) })
	reg.SetGauge("vm.pool.retained_bytes", func() float64 { return float64(machinePool.Stats().RetainedBytes) })
	reg.SetGauge("mem.snapshot.restored_bytes", func() float64 { return float64(machinePool.Stats().RestoredBytes) })
	return unhook
}
