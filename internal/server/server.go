// Package server is smokestackd's core: a long-lived, fault-tolerant,
// multi-tenant execution service over the Smokestack engine. Tenants POST
// sessions — a MiniC program or named workload plus an engine lineup and
// seed — and the server compiles once into the shared cache tier, executes
// through pooled Machines under per-session watchdog deadlines, and
// streams typed exp.Records back as JSON lines.
//
// The design headline is robustness, not routing:
//
//   - Admission control: per-tenant token buckets and in-flight quotas
//     (429), a bounded work queue that sheds overload with typed 503s —
//     goroutine count is bounded by slots + waiters at any offered load.
//   - Panic isolation: a poisoned cell is contained by the experiment
//     runner's recovery; a poisoned handler by the recover middleware.
//     Neither takes down the process.
//   - Deadlines: each session's deadline propagates into the VM watchdog;
//     when it (or a client disconnect, or a drain) fires, in-flight runs
//     cancel at the next supervision boundary and the remaining cells are
//     shed as classified "canceled" records.
//   - Graceful drain: stop admitting, give in-flight sessions a grace
//     period, then cancel them and wait for the unwind — bounded, and
//     every shed session still streams a complete, classified record set.
//   - Memory bounds: inline programs live in a bounded compile cache whose
//     evictions take the programs' pooled Machines with them; the Machine
//     pool is also capped per key and drained by an idle janitor.
//
// Determinism survives the service boundary: a session's streamed bytes
// are identical to exp.WriteJSON over the same spec run through the
// offline harness.RunSession (the chaos suite pins this byte-for-byte).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

// Config parameterizes a Server. The zero value selects documented
// defaults sized for tests and single-host serving.
type Config struct {
	// RatePerSec and Burst shape each tenant's token bucket
	// (defaults 5/s, burst 10).
	RatePerSec float64
	Burst      float64
	// MaxSessionsPerTenant bounds one tenant's concurrent sessions
	// (default 4).
	MaxSessionsPerTenant int
	// MaxTenants bounds the admission table (default 10000).
	MaxTenants int
	// MaxConcurrent bounds sessions executing at once (default
	// GOMAXPROCS). MaxQueued bounds sessions waiting for a slot (default
	// 2×MaxConcurrent); QueueTimeout bounds the wait (default 5s).
	MaxConcurrent int
	MaxQueued     int
	QueueTimeout  time.Duration
	// Limits bound individual requests (see Limits).
	Limits Limits
	// HardStopGrace bounds how long Drain waits for cancelled sessions to
	// unwind after the grace period (default 10s).
	HardStopGrace time.Duration
	// IdleEvictAfter drains the Machine pool after the server has been
	// idle this long (default 1 min; < 0 disables the janitor).
	IdleEvictAfter time.Duration
	// Metrics receives service counters and gauges (default: a fresh
	// registry, exposed at /metrics either way).
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives the harness JSONL event stream.
	// Sessions submitted with "trace": true capture into a per-session
	// buffer instead (served at /v1/debug/sessions/{id}/trace).
	Trace *telemetry.Tracer
	// Audit receives structured security events for defense detections
	// (default: a count-only sink, so detection counters and the flight
	// recorder's detection tail work with no audit file configured).
	Audit *telemetry.AuditSink
	// FlightCap bounds the flight recorder's session ring (default 128;
	// < 0 disables the recorder).
	FlightCap int
	// NoPool disables Machine pooling (differential tests).
	NoPool bool
	// Log receives operational messages (default: silent).
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.RatePerSec <= 0 {
		c.RatePerSec = 5
	}
	if c.Burst <= 0 {
		c.Burst = 10
	}
	if c.MaxSessionsPerTenant <= 0 {
		c.MaxSessionsPerTenant = 4
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 10000
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 2 * c.MaxConcurrent
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.HardStopGrace <= 0 {
		c.HardStopGrace = 10 * time.Second
	}
	if c.IdleEvictAfter == 0 {
		c.IdleEvictAfter = time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.Audit == nil {
		c.Audit = telemetry.NewAuditSink(nil)
	}
	if c.FlightCap == 0 {
		c.FlightCap = 128
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// Server is the execution service. Create with New, serve via Handler,
// shut down via Drain (then Close).
type Server struct {
	cfg    Config
	adm    *admission
	q      *workQueue
	gate   *sessionGate
	mux    *http.ServeMux
	flight *flightRecorder

	// admitCtx dies when drain starts: queued waiters shed immediately.
	admitCtx    context.Context
	admitCancel context.CancelFunc
	// hardCtx dies at drain's hard phase: in-flight sessions cancel.
	hardCtx    context.Context
	hardCancel context.CancelFunc
	// rootCtx is the server lifetime (janitor); dies at Close.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	seq        atomic.Uint64
	lastActive atomic.Int64 // unix nanos of the last session end
	drained    atomic.Bool
}

// New builds a Server and registers its gauges. Call Close (or Drain)
// to release the janitor.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		adm:    newAdmission(cfg.RatePerSec, cfg.Burst, cfg.MaxSessionsPerTenant, cfg.MaxTenants),
		q:      newWorkQueue(cfg.MaxConcurrent, cfg.MaxQueued, cfg.QueueTimeout),
		gate:   &sessionGate{},
		mux:    http.NewServeMux(),
		flight: newFlightRecorder(cfg.FlightCap),
	}
	s.admitCtx, s.admitCancel = context.WithCancel(context.Background())
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	s.lastActive.Store(time.Now().UnixNano())

	s.mux.HandleFunc("POST /v1/sessions", s.recoverWrap(s.handleSession))
	s.mux.HandleFunc("GET /metrics", s.recoverWrap(s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.recoverWrap(s.handleHealth))
	s.mux.HandleFunc("GET /v1/stats", s.recoverWrap(s.handleStats))
	s.mux.HandleFunc("GET /v1/debug/sessions", s.recoverWrap(s.handleDebugSessions))
	s.mux.HandleFunc("GET /v1/debug/sessions/{id}", s.recoverWrap(s.handleDebugSession))
	s.mux.HandleFunc("GET /v1/debug/sessions/{id}/trace", s.recoverWrap(s.handleDebugTrace))

	harness.RegisterGauges(cfg.Metrics)
	reg := cfg.Metrics
	// Detections tee: every audit event lands in the flight recorder's
	// detection tail and the labeled detection counters, whether or not
	// the sink serializes to a file.
	cfg.Audit.OnEvent(func(e telemetry.AuditEvent) {
		s.flight.addDetection(e)
		reg.CounterWith("server.detections", map[string]string{
			"kind": e.Kind, "engine": e.Engine,
		}).Inc()
	})
	reg.SetGauge("server.sessions.active", func() float64 { return float64(s.gate.active()) })
	reg.SetGauge("server.queue.executing", func() float64 { e, _ := s.q.depth(); return float64(e) })
	reg.SetGauge("server.queue.waiting", func() float64 { _, w := s.q.depth(); return float64(w) })
	reg.SetGauge("server.tenants.tracked", func() float64 { t, _ := s.adm.snapshot(); return float64(t) })

	if cfg.IdleEvictAfter > 0 {
		go s.janitor()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// janitor drains the Machine pool after an idle period, bounding a quiet
// server's resident memory to the compiled-program tier.
func (s *Server) janitor() {
	t := time.NewTicker(s.cfg.IdleEvictAfter / 2)
	defer t.Stop()
	for {
		select {
		case <-s.rootCtx.Done():
			return
		case <-t.C:
			idleFor := time.Since(time.Unix(0, s.lastActive.Load()))
			if s.gate.active() == 0 && idleFor >= s.cfg.IdleEvictAfter {
				harness.DrainMachinePool()
				s.cfg.Metrics.Counter("server.pool.idle_evictions").Inc()
			}
			// Labeled series shed on the same cadence and bound as the
			// admission tenant table.
			s.cfg.Metrics.SweepLabels(s.cfg.IdleEvictAfter)
		}
	}
}

// recoverWrap is the panic bulkhead: one poisoned request must never take
// down the process. (Cell panics are already contained by the experiment
// runner; this catches server bugs.)
func (s *Server) recoverWrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.cfg.Metrics.Counter("server.panics").Inc()
				s.cfg.Log.Printf("panic in %s %s: %v", r.Method, r.URL.Path, p)
				// Best-effort typed response; if the stream already
				// started this lands mid-body and the client sees a
				// truncated session, which is the honest signal.
				writeError(w, errf(http.StatusInternalServerError, CodeInternal, "internal error"))
			}
		}()
		h(w, r)
	}
}

// writeError emits a typed error response. Safe to call after streaming
// started (the WriteHeader is then a no-op and the JSON line lands
// in-band, distinguishable from records by its "code" key).
func writeError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(e.Status)
	_ = json.NewEncoder(w).Encode(e)
}

// reject counts and writes a refusal: the historical per-code counter
// plus the labeled refusal family.
func (s *Server) reject(w http.ResponseWriter, e *Error) {
	s.cfg.Metrics.Counter("server.rejected." + e.Code).Inc()
	s.cfg.Metrics.CounterWith("server.rejected", map[string]string{"code": e.Code}).Inc()
	writeError(w, e)
}

// handleSession is the submit → admit → queue → execute → stream path.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	s.cfg.Metrics.Counter("server.sessions.submitted").Inc()
	if !s.gate.begin() {
		s.reject(w, errf(http.StatusServiceUnavailable, CodeDraining, "server is draining"))
		return
	}
	defer func() {
		s.lastActive.Store(time.Now().UnixNano())
		s.gate.end()
	}()

	req, aerr := ParseRequest(http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes), s.cfg.Limits)
	if aerr != nil {
		s.reject(w, aerr)
		return
	}
	spec, aerr := req.Spec(s.cfg.Limits)
	if aerr != nil {
		s.reject(w, aerr)
		return
	}

	// Admission: tenant rate + quota, then a bounded execution slot.
	if aerr := s.adm.admit(req.Tenant, time.Now()); aerr != nil {
		s.reject(w, aerr)
		return
	}
	defer s.adm.release(req.Tenant)
	qStart := time.Now()
	release, aerr := s.q.acquire(r.Context(), s.admitCtx)
	qOutcome := "acquired"
	if aerr != nil {
		qOutcome = aerr.Code
	}
	s.cfg.Metrics.HistogramWith("server.queue.wait_seconds", queueWaitBounds,
		map[string]string{"outcome": qOutcome}).Observe(time.Since(qStart).Seconds())
	if aerr != nil {
		s.reject(w, aerr)
		return
	}
	defer release()

	// Session context: request deadline ∧ client liveness ∧ drain hard-stop.
	deadline := req.Deadline(s.cfg.Limits)
	ctx, cancel := context.WithTimeoutCause(r.Context(), deadline,
		errf(http.StatusGatewayTimeout, "deadline", "session deadline %v exceeded", deadline))
	defer cancel()
	stopHard := context.AfterFunc(s.hardCtx, cancel)
	defer stopHard()

	// Session identity and optional per-session span trace. A traced
	// session captures into a bounded buffer served from the flight
	// recorder after the session ends; untraced sessions keep the global
	// (flat) tracer, so their event bytes are unchanged.
	id := s.seq.Add(1)
	sid := fmt.Sprintf("%d", id)
	tracer := s.cfg.Trace
	traceID := ""
	var traceBuf *limitBuffer
	if req.Trace {
		traceBuf = &limitBuffer{max: flightTraceCap}
		tracer = telemetry.NewTracer(traceBuf)
		traceID = "session-" + sid
	}
	capture := newFlightCapture()

	hcfg := harness.Config{
		Ctx:      ctx,
		Metrics:  s.cfg.Metrics,
		Trace:    tracer,
		TraceID:  traceID,
		Tenant:   req.Tenant,
		Audit:    s.cfg.Audit,
		CellDone: capture.cellDone,
		NoPool:   s.cfg.NoPool,
	}
	root := telemetry.NewSpan(traceID)
	tracer.SpanEvent("session.start", "", root, map[string]any{
		"id": sid, "tenant": req.Tenant, "engines": len(spec.Engines), "runs": spec.Runs,
	})
	cells, err := harness.SessionCells(hcfg, spec)
	if err != nil {
		s.reject(w, specError(err))
		return
	}

	// Stream. From here the status is committed: failures inside cells
	// surface as classified records, not HTTP errors.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Session-Id", sid)
	if traceID != "" {
		w.Header().Set("X-Trace-Ref", "/v1/debug/sessions/"+sid+"/trace")
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// A slow client cannot hold the slot past its deadline: writes past
	// it fail, which cancels the session.
	_ = rc.SetWriteDeadline(time.Now().Add(deadline + time.Second))

	st := &recordStream{w: w, rc: rc, cancel: cancel}
	runner := hcfg.NewRunner()
	runner.Workers = 1 // one slot = one session = one executing cell
	chainedEnd := runner.Hooks.CellEnd
	runner.Hooks.CellEnd = func(c exp.Cell, recs []exp.Record, wall time.Duration, ran int) {
		if chainedEnd != nil {
			chainedEnd(c, recs, wall, ran)
		}
		st.write(recs)
	}
	start := time.Now()
	startNS := nowNS()
	recs := runner.Run(cells)
	wall := time.Since(start)
	outcome := s.observeOutcome(req.Tenant, recs, wall, st)
	tracer.SpanEvent("session.end", "", root, map[string]any{
		"id": sid, "outcome": outcome, "records": len(recs), "wall_ns": wall.Nanoseconds(),
	})

	entry := &flightEntry{SessionSummary: SessionSummary{
		ID: sid, Tenant: req.Tenant, SpecDigest: specDigest(spec),
		Workload: spec.Workload, Engines: spec.Engines, Seed: spec.Seed,
		Runs: max(spec.Runs, 1), StartNS: startNS, WallSeconds: wall.Seconds(),
		Outcome: outcome, Records: len(recs), Cells: capture.summaries(recs),
	}}
	for _, cs := range entry.Cells {
		if isDetection(cs.Err) {
			entry.Detections++
		}
		if cs.Class != "ok" && cs.Class != "canceled" {
			s.flight.addError(FlightError{
				TimeNS: nowNS(), Session: sid, Tenant: req.Tenant,
				Cell: cs.Cell, Class: cs.Class, Err: cs.Err,
			})
		}
	}
	if traceID != "" {
		if err := tracer.Flush(); err != nil {
			s.cfg.Metrics.Counter("server.trace.capped").Inc()
		}
		entry.TraceRef = "/v1/debug/sessions/" + sid + "/trace"
		entry.trace = traceBuf.buf.Bytes()
	}
	s.flight.record(entry)
}

// queueWaitBounds buckets slot-wait latency (seconds).
var queueWaitBounds = []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1, 2, 5}

// observeOutcome folds a finished session into the service counters —
// the historical unlabeled series plus the tenant/outcome-labeled
// families — and returns the outcome class.
func (s *Server) observeOutcome(tenant string, recs []exp.Record, wall time.Duration, st *recordStream) string {
	reg := s.cfg.Metrics
	reg.Counter("server.records.streamed").Add(uint64(st.records))
	outcome := "completed"
	for _, rec := range recs {
		if rec.ErrClass == "canceled" {
			outcome = "canceled"
			break
		}
	}
	if st.err != nil {
		outcome = "disconnected"
	}
	reg.Histogram("server.session.wall_seconds", sessionWallBounds).Observe(wall.Seconds())
	reg.HistogramWith("server.session.wall_seconds", sessionWallBounds,
		map[string]string{"tenant": tenant, "outcome": outcome}).Observe(wall.Seconds())
	reg.Counter("server.sessions." + outcome).Inc()
	reg.CounterWith("server.sessions.outcome",
		map[string]string{"tenant": tenant, "outcome": outcome}).Inc()
	// Count per (engine, class) first, then look each labeled series up
	// once: a session's records fall into a few series, and every lookup
	// builds a label map and key.
	type series struct {
		engine, class string
		n             uint64
	}
	var tally []series
	for _, rec := range recs {
		class := rec.ErrClass
		if rec.Err == "" {
			class = "ok"
		} else if class == "" {
			class = "error"
		}
		engine := rec.Labels["engine"]
		i := slices.IndexFunc(tally, func(c series) bool { return c.engine == engine && c.class == class })
		if i < 0 {
			i = len(tally)
			tally = append(tally, series{engine: engine, class: class})
		}
		tally[i].n++
	}
	for _, c := range tally {
		reg.CounterWith("server.cells.outcome",
			map[string]string{"engine": c.engine, "class": c.class}).Add(c.n)
	}
	s.cfg.Log.Printf("session tenant=%s records=%d wall=%v outcome=%s", tenant, len(recs), wall, outcome)
	return outcome
}

// sessionWallBounds buckets whole-session wall time (seconds).
var sessionWallBounds = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60}

// recordStream writes records as JSON lines with per-cell flushes. The
// first write failure (client gone, write deadline) cancels the session
// context so execution stops shedding classified records instead of
// computing for nobody.
type recordStream struct {
	w       io.Writer
	rc      *http.ResponseController
	cancel  context.CancelFunc
	err     error
	records int
}

func (st *recordStream) write(recs []exp.Record) {
	if st.err != nil {
		return
	}
	if err := exp.WriteJSON(st.w, recs); err != nil {
		st.err = err
		st.cancel()
		return
	}
	st.records += len(recs)
	if err := st.rc.Flush(); err != nil {
		st.err = err
		st.cancel()
	}
}

// handleMetrics serves the telemetry snapshot: Prometheus text by
// default, JSON with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.cfg.Metrics.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = snap.WritePrometheus(w)
}

// handleHealth reports liveness and drain state.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.gate.isDraining() {
		writeError(w, errf(http.StatusServiceUnavailable, CodeDraining, "server is draining"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// StatsSnapshot is the /v1/stats payload: a superset of the historical
// fields (existing assertions keep passing) plus the Machine pool, work
// queue, program cache, audit and flight-recorder views.
type StatsSnapshot struct {
	ActiveSessions int               `json:"active_sessions"`
	Executing      int64             `json:"executing"`
	Queued         int64             `json:"queued"`
	Tenants        int               `json:"tenants"`
	Inflight       int               `json:"inflight"`
	Draining       bool              `json:"draining"`
	PoolHits       uint64            `json:"pool_hits"`
	PoolMisses     uint64            `json:"pool_misses"`
	PoolPuts       uint64            `json:"pool_puts"`
	PoolDrops      uint64            `json:"pool_drops"`
	PoolRetained   int               `json:"pool_retained"`
	PoolBytes      uint64            `json:"pool_retained_bytes"`
	QueueSlots     int               `json:"queue_slots"`
	QueueMaxWait   int               `json:"queue_max_waiters"`
	ProgCacheLen   int               `json:"progcache_len"`
	ProgCacheHits  uint64            `json:"progcache_hits"`
	ProgCacheMiss  uint64            `json:"progcache_misses"`
	ProgCacheEvict uint64            `json:"progcache_evictions"`
	AuditEvents    uint64            `json:"audit_events"`
	AuditByKind    map[string]uint64 `json:"audit_by_kind,omitempty"`
	FlightSessions int               `json:"flight_sessions"`
}

func (s *Server) stats() StatsSnapshot {
	e, q := s.q.depth()
	tenants, inflight := s.adm.snapshot()
	pool := harness.MachinePoolStats()
	progLen, progHits, progMiss, progEvict := harness.SessionProgCacheStats()
	return StatsSnapshot{
		ActiveSessions: s.gate.active(),
		Executing:      e,
		Queued:         q,
		Tenants:        tenants,
		Inflight:       inflight,
		Draining:       s.gate.isDraining(),
		PoolHits:       pool.Hits,
		PoolMisses:     pool.Misses,
		PoolPuts:       pool.Puts,
		PoolDrops:      pool.Drops,
		PoolRetained:   pool.Retained,
		PoolBytes:      pool.RetainedBytes,
		QueueSlots:     s.cfg.MaxConcurrent,
		QueueMaxWait:   s.cfg.MaxQueued,
		ProgCacheLen:   progLen,
		ProgCacheHits:  progHits,
		ProgCacheMiss:  progMiss,
		ProgCacheEvict: progEvict,
		AuditEvents:    s.cfg.Audit.Total(),
		AuditByKind:    s.cfg.Audit.Counts(),
		FlightSessions: s.flight.sessions(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.stats())
}

// Drain is the graceful shutdown sequence: stop admitting (new sessions
// get typed 503s, queued waiters shed immediately), give in-flight
// sessions the grace period to finish on their own, then cancel them —
// watchdogs stop in-flight runs, remaining cells shed as "canceled"
// records, streams complete — and wait up to HardStopGrace for the
// unwind. Idempotent; returns nil when the server is fully idle.
func (s *Server) Drain(grace time.Duration) error {
	s.gate.startDrain()
	s.admitCancel()
	s.cfg.Log.Printf("drain: admission stopped, %d sessions in flight", s.gate.active())

	graceCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := s.gate.waitIdle(graceCtx)
	if err != nil {
		s.cfg.Log.Printf("drain: grace %v expired with %d sessions live; hard-cancelling", grace, s.gate.active())
		s.cfg.Metrics.Counter("server.drain.hard_cancels").Inc()
		s.hardCancel()
		hardCtx, cancelHard := context.WithTimeout(context.Background(), s.cfg.HardStopGrace)
		defer cancelHard()
		err = s.gate.waitIdle(hardCtx)
	}
	s.finish()
	if err != nil {
		return fmt.Errorf("server: drain incomplete, %d sessions still live: %w", s.gate.active(), err)
	}
	s.cfg.Metrics.Counter("server.drain.completed").Inc()
	return nil
}

// Close releases the janitor and cancels everything outstanding without
// the grace dance. Drain already finishes with the same cleanup; Close
// after Drain is a no-op.
func (s *Server) Close() {
	s.gate.startDrain()
	s.admitCancel()
	s.hardCancel()
	s.finish()
}

func (s *Server) finish() {
	if s.drained.CompareAndSwap(false, true) {
		s.rootCancel()
		harness.DrainMachinePool()
	}
}
