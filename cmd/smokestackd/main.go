// Command smokestackd serves the Smokestack engine as a long-lived,
// multi-tenant HTTP/JSON service. Tenants POST sessions — a MiniC program
// or named workload, an engine lineup, a seed — and receive the typed
// experiment records as an NDJSON stream, byte-identical to what the
// offline experiment pipeline would emit for the same spec.
//
// Usage:
//
//	smokestackd [-addr :8677] [-rate 5] [-burst 10] [-tenant-sessions 4]
//	            [-concurrency N] [-queue N] [-queue-timeout 5s]
//	            [-deadline 30s] [-max-deadline 2m] [-drain-grace 15s]
//	            [-audit FILE] [-debug-addr :8678] [-v]
//
// Endpoints:
//
//	POST /v1/sessions            submit a session, stream records (NDJSON);
//	                             "trace": true captures a span trace
//	GET  /metrics                telemetry (Prometheus text; ?format=json)
//	GET  /healthz                liveness + drain state
//	GET  /v1/stats               admission/queue/pool/audit snapshot
//	GET  /v1/debug/sessions      flight recorder: recent session summaries
//	GET  /v1/debug/sessions/{id}        one session's flight record
//	GET  /v1/debug/sessions/{id}/trace  its captured span trace (JSONL)
//
// -audit FILE appends structured security events (canary / shadow-stack /
// guard violations with tenant, engine, cell seed and slot address) as
// JSONL. -debug-addr serves net/http/pprof on a separate listener, so
// profiling is never exposed on the tenant-facing address.
//
// On SIGTERM or SIGINT the daemon drains: new sessions get typed 503s,
// in-flight sessions run to completion within the drain grace, stragglers
// are watchdog-cancelled (their clients still receive complete record
// streams, the tail classified "canceled"), telemetry is flushed to
// stderr, and the process exits 0.
//
// -selftest starts the daemon on an ephemeral port, exercises the
// submit → stream → drain cycle against it — including a traced session
// whose canary detection is verified through the flight recorder, the
// folded span trace and the audit log, with a dormant twin checked
// byte-identical — and exits. `make smoke` runs it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8677", "listen address")
	rate := flag.Float64("rate", 5, "per-tenant sessions per second")
	burst := flag.Float64("burst", 10, "per-tenant burst")
	tenantSessions := flag.Int("tenant-sessions", 4, "per-tenant concurrent session quota")
	concurrency := flag.Int("concurrency", 0, "concurrent sessions (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queued sessions beyond the concurrency slots (0 = 2x)")
	queueTimeout := flag.Duration("queue-timeout", 5*time.Second, "max wait for an execution slot")
	deadline := flag.Duration("deadline", 30*time.Second, "default session deadline")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "ceiling for requested deadlines")
	drainGrace := flag.Duration("drain-grace", 15*time.Second, "drain grace before hard-cancelling sessions")
	auditPath := flag.String("audit", "", "append security audit events (JSONL) to this file")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	verbose := flag.Bool("v", false, "log sessions to stderr")
	selftest := flag.Bool("selftest", false, "run the submit/stream/drain smoke cycle and exit")
	flag.Parse()

	logger := log.New(io.Discard, "", 0)
	if *verbose || *selftest {
		logger = log.New(os.Stderr, "smokestackd: ", log.LstdFlags)
	}

	// The selftest verifies the audit path end-to-end, so it provisions a
	// scratch file when none was given.
	if *selftest && *auditPath == "" {
		f, err := os.CreateTemp("", "smokestackd-audit-*.jsonl")
		if err != nil {
			fmt.Fprintf(os.Stderr, "smokestackd: audit temp file: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		*auditPath = f.Name()
		defer os.Remove(f.Name())
	}
	var audit *telemetry.AuditSink
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smokestackd: audit file: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		audit = telemetry.NewAuditSink(f)
		defer audit.Flush()
	}

	reg := telemetry.NewRegistry()
	srv := server.New(server.Config{
		RatePerSec:           *rate,
		Burst:                *burst,
		MaxSessionsPerTenant: *tenantSessions,
		MaxConcurrent:        *concurrency,
		MaxQueued:            *queue,
		QueueTimeout:         *queueTimeout,
		Limits: server.Limits{
			DefaultDeadline: *deadline,
			MaxDeadline:     *maxDeadline,
		},
		Metrics: reg,
		Audit:   audit,
		Log:     logger,
	})

	if *debugAddr != "" {
		// pprof registers on the default mux; serving it on its own
		// listener keeps profiling off the tenant-facing address.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smokestackd: debug listen %s: %v\n", *debugAddr, err)
			os.Exit(1)
		}
		go func() { _ = http.Serve(dln, http.DefaultServeMux) }()
		logger.Printf("pprof on %s", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smokestackd: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("serving on %s", ln.Addr())

	if *selftest {
		if err := runSelftest(ln.Addr().String(), srv, httpSrv, *drainGrace, audit, *auditPath); err != nil {
			fmt.Fprintf(os.Stderr, "smokestackd: selftest: %v\n", err)
			os.Exit(1)
		}
		flushTelemetry(reg, logger)
		fmt.Println("smokestackd: selftest ok")
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-stop:
		logger.Printf("received %v, draining (grace %v)", sig, *drainGrace)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "smokestackd: serve: %v\n", err)
		os.Exit(1)
	}

	if err := shutdown(srv, httpSrv, *drainGrace); err != nil {
		logger.Printf("drain: %v", err)
	}
	flushTelemetry(reg, logger)
	logger.Printf("drained, exiting")
}

// shutdown drains the session layer first (typed refusals, classified
// cancellation) and only then closes the HTTP listener, so every in-flight
// stream completes.
func shutdown(srv *server.Server, httpSrv *http.Server, grace time.Duration) error {
	drainErr := srv.Drain(grace)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return errors.Join(drainErr, err)
	}
	return drainErr
}

// flushTelemetry writes the final metrics snapshot to stderr so a drained
// daemon leaves its counters behind even with no scraper attached.
func flushTelemetry(reg *telemetry.Registry, logger *log.Logger) {
	var sb strings.Builder
	if err := reg.Snapshot().WriteJSON(&sb); err == nil {
		logger.Printf("final telemetry: %s", strings.TrimSpace(sb.String()))
	}
}

// smashSrc overruns a 32-byte buffer by exactly 8 bytes. Under Stackato
// the locals and the canary shift by the same per-call pad, so the canary
// always sits 32 bytes above buf and the 40-byte ascending write covers
// it completely while staying inside the (canary+8 ≤ Size) frame — a
// deterministic canary detection with no possible MemFault, for any pad.
const smashSrc = `long smash(long n) {
  long i;
  char buf[32];
  i = 0;
  while (i < n) { buf[i] = 65; i = i + 1; }
  return i;
}
long main() { return smash(40); }`

// runSelftest drives one full service lifecycle against the live
// listener: healthz, a clean streamed session, a typed rejection, a
// faulted session with classified records, metrics, the observability
// cycle (traced canary detection → flight record → folded trace → audit
// log, with a dormant twin byte-identical), then drain.
func runSelftest(addr string, srv *server.Server, httpSrv *http.Server, grace time.Duration, audit *telemetry.AuditSink, auditPath string) error {
	base := "http://" + addr
	client := &http.Client{Timeout: 60 * time.Second}

	resp, err := client.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %v (status %v)", err, statusOf(resp))
	}
	resp.Body.Close()

	// Clean session streams one record per engine×run, all measured.
	body := `{"tenant":"selftest","workload":"lbm","engines":["fixed","smokestack+aes-10"],"seed":7,"runs":2}`
	recs, err := streamSession(client, base, body)
	if err != nil {
		return fmt.Errorf("clean session: %w", err)
	}
	if len(recs) != 4 {
		return fmt.Errorf("clean session: %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if r.Err != "" {
			return fmt.Errorf("clean session record %s failed: %s", r.Cell, r.Err)
		}
	}

	// A bad request must be a typed 4xx.
	resp, err = client.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"tenant":"selftest","engines":["warpdrive"],"workload":"lbm"}`))
	if err != nil {
		return fmt.Errorf("bad request: %w", err)
	}
	var typed struct {
		Code string `json:"code"`
	}
	err = json.NewDecoder(resp.Body).Decode(&typed)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || typed.Code != "unknown_engine" {
		return fmt.Errorf("bad request: status %d code %q (decode err %v)", resp.StatusCode, typed.Code, err)
	}

	// Chaos: an entropy blackout degrades into classified records.
	recs, err = streamSession(client, base,
		`{"tenant":"selftest","workload":"lbm","engines":["smokestack+aes-10"],"seed":7,"faults":{"entropy_period":1,"entropy_burst":1}}`)
	if err != nil {
		return fmt.Errorf("faulted session: %w", err)
	}
	for _, r := range recs {
		if r.Err != "" && r.ErrClass != "injected" {
			return fmt.Errorf("faulted record %s: class %q, want injected", r.Cell, r.ErrClass)
		}
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "server_sessions_completed") {
		return fmt.Errorf("metrics missing session counters")
	}

	if err := observabilityCycle(client, base, audit, auditPath); err != nil {
		return fmt.Errorf("observability: %w", err)
	}

	if err := shutdown(srv, httpSrv, grace); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// observabilityCycle is the observability end-to-end `make smoke` runs
// through -selftest: a traced session whose canary-engine detection must
// be observable through (a) its flight record, (b) its folded span trace
// — with span cycle sums reconciling against the flight record's exact
// TotalCycles — and (c) the audit log with matching tenant/engine/trace,
// while a dormant run of the same spec streams byte-identical NDJSON
// records.
func observabilityCycle(client *http.Client, base string, audit *telemetry.AuditSink, auditPath string) error {
	spec, _ := json.Marshal(map[string]any{
		"tenant": "selftest", "program": smashSrc, "engines": []string{"stackato"}, "seed": 11,
	})
	tracedSpec, _ := json.Marshal(map[string]any{
		"tenant": "selftest", "program": smashSrc, "engines": []string{"stackato"}, "seed": 11,
		"trace": true,
	})

	dormant, _, err := streamRaw(client, base, string(spec))
	if err != nil {
		return fmt.Errorf("dormant run: %w", err)
	}
	tracedBody, hdr, err := streamRaw(client, base, string(tracedSpec))
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	if !bytes.Equal(dormant, tracedBody) {
		return fmt.Errorf("traced records differ from dormant records:\n%s\nvs\n%s", tracedBody, dormant)
	}
	if !strings.Contains(string(tracedBody), "canary check failed") {
		return fmt.Errorf("no canary detection in records: %s", tracedBody)
	}
	sid := hdr.Get("X-Session-Id")
	traceRef := hdr.Get("X-Trace-Ref")
	if sid == "" || traceRef == "" {
		return fmt.Errorf("missing X-Session-Id (%q) or X-Trace-Ref (%q)", sid, traceRef)
	}

	// (a) Flight record by session ID.
	resp, err := client.Get(base + "/v1/debug/sessions/" + sid)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("flight record: %v (status %v)", err, statusOf(resp))
	}
	var flight struct {
		ID         string `json:"id"`
		Tenant     string `json:"tenant"`
		Detections uint64 `json:"detections"`
		Cells      []struct {
			Cell        string  `json:"cell"`
			Class       string  `json:"class"`
			Err         string  `json:"err"`
			TotalCycles float64 `json:"total_cycles"`
		} `json:"cells"`
	}
	err = json.NewDecoder(resp.Body).Decode(&flight)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("flight record decode: %w", err)
	}
	if flight.ID != sid || flight.Tenant != "selftest" || flight.Detections != 1 {
		return fmt.Errorf("flight record mismatch: id=%q tenant=%q detections=%d", flight.ID, flight.Tenant, flight.Detections)
	}
	if len(flight.Cells) != 1 || flight.Cells[0].Cell != "stackato/run0" ||
		!strings.Contains(flight.Cells[0].Err, "canary check failed") {
		return fmt.Errorf("flight cells mismatch: %+v", flight.Cells)
	}
	if flight.Cells[0].TotalCycles <= 0 {
		return fmt.Errorf("flight cell has no attributed cycles: %+v", flight.Cells[0])
	}

	// (b) Fold the captured span trace and reconcile exactly.
	resp, err = client.Get(base + traceRef)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace fetch: %v (status %v)", err, statusOf(resp))
	}
	events, rerr := telemetry.ReadTrace(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return fmt.Errorf("trace parse: %w", rerr)
	}
	tree := telemetry.FoldTrace(events)
	if err := tree.Reconcile(); err != nil {
		return fmt.Errorf("trace reconcile: %w", err)
	}
	got := tree.CellTotals()["session/stackato/run0"]
	if got != flight.Cells[0].TotalCycles {
		return fmt.Errorf("span cycle sum %v != flight TotalCycles %v", got, flight.Cells[0].TotalCycles)
	}

	// (c) The detection is in the audit log with matching identity.
	if err := audit.Flush(); err != nil {
		return fmt.Errorf("audit flush: %w", err)
	}
	af, err := os.Open(auditPath)
	if err != nil {
		return fmt.Errorf("audit open: %w", err)
	}
	auditEvents, aerr := telemetry.ReadAudit(af)
	af.Close()
	if aerr != nil {
		return fmt.Errorf("audit parse: %w", aerr)
	}
	found := false
	for _, e := range auditEvents {
		if e.Kind == "canary" && e.Tenant == "selftest" && e.Engine == "stackato" &&
			e.Trace == "session-"+sid && e.Seed != 0 && e.Func == "smash" && e.Addr != 0 {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("no matching canary audit event among %d events", len(auditEvents))
	}
	return nil
}

// record is the subset of exp.Record the selftest asserts on.
type record struct {
	Cell     string `json:"cell"`
	Err      string `json:"err"`
	ErrClass string `json:"err_class"`
}

func streamSession(client *http.Client, base, body string) ([]record, error) {
	resp, err := client.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var recs []record
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("bad record line %q: %w", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// streamRaw posts a session and returns the exact NDJSON bytes plus the
// response headers (the byte-identity and trace-reference checks).
func streamRaw(client *http.Client, base, body string) ([]byte, http.Header, error) {
	resp, err := client.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return b, resp.Header, nil
}

func statusOf(r *http.Response) any {
	if r == nil {
		return "no response"
	}
	return r.StatusCode
}
