// Flight recorder: a bounded ring of recent session summaries plus the
// last-K error and security-detection records, kept server-side so a
// session remains diagnosable after its client disconnected (the NDJSON
// stream is gone; the summary, per-cell outcome classes, timing, RNG
// health, top cycle categories — and the span trace, when the session
// opted in — are not). Everything here is bounded: the ring caps entries,
// each entry caps its trace bytes, the error and detection tails cap
// their lengths; a hostile tenant cannot grow the recorder without bound.
package server

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

const (
	// flightErrorCap bounds the recent-errors and recent-detections tails.
	flightErrorCap = 64
	// flightTopRows bounds the per-cell top-cycle-category list.
	flightTopRows = 8
	// flightTraceCap bounds one session's captured trace bytes. The capped
	// writer fails writes past the limit, so the Tracer latches its error
	// and the stored prefix stays line-aligned for ReadTrace.
	flightTraceCap = 8 << 20
)

// CellSummary is one session cell's flight record: outcome class, exact
// cycle attribution (matching the trace tree's per-cell totals
// bit-for-bit), top cycle categories and RNG health.
type CellSummary struct {
	Cell        string            `json:"cell"`
	Class       string            `json:"class"`
	Err         string            `json:"err,omitempty"`
	TotalCycles float64           `json:"total_cycles"`
	TopRows     []telemetry.Row   `json:"top_rows,omitempty"`
	RNG         map[string]uint64 `json:"rng,omitempty"`
}

// SessionSummary is one session's flight record.
type SessionSummary struct {
	ID          string        `json:"id"`
	Tenant      string        `json:"tenant"`
	SpecDigest  string        `json:"spec_digest"`
	Workload    string        `json:"workload,omitempty"`
	Engines     []string      `json:"engines"`
	Seed        uint64        `json:"seed"`
	Runs        int           `json:"runs"`
	StartNS     int64         `json:"start_ns"`
	WallSeconds float64       `json:"wall_seconds"`
	Outcome     string        `json:"outcome"`
	Records     int           `json:"records"`
	Detections  uint64        `json:"detections,omitempty"`
	TraceRef    string        `json:"trace_ref,omitempty"`
	Cells       []CellSummary `json:"cells,omitempty"`
}

// FlightError is one entry of the recent-errors tail.
type FlightError struct {
	TimeNS  int64  `json:"time_ns"`
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Cell    string `json:"cell,omitempty"`
	Class   string `json:"class,omitempty"`
	Err     string `json:"err"`
}

// flightEntry pairs a summary with its captured trace bytes (kept out of
// the list payload).
type flightEntry struct {
	SessionSummary
	trace []byte
}

// flightRecorder is the bounded ring plus the error/detection tails. A
// nil recorder (FlightCap < 0) no-ops everywhere.
type flightRecorder struct {
	mu         sync.Mutex
	cap        int
	entries    []*flightEntry // oldest first
	byID       map[string]*flightEntry
	errors     []FlightError
	detections []telemetry.AuditEvent
}

func newFlightRecorder(cap int) *flightRecorder {
	if cap <= 0 {
		return nil
	}
	return &flightRecorder{cap: cap, byID: make(map[string]*flightEntry)}
}

func (f *flightRecorder) record(e *flightEntry) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.entries) >= f.cap {
		old := f.entries[0]
		f.entries = f.entries[1:]
		delete(f.byID, old.ID)
	}
	f.entries = append(f.entries, e)
	f.byID[e.ID] = e
}

func (f *flightRecorder) get(id string) (*flightEntry, bool) {
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.byID[id]
	return e, ok
}

// list returns summaries newest first plus copies of the tails.
func (f *flightRecorder) list() (sessions []SessionSummary, errs []FlightError, dets []telemetry.AuditEvent) {
	if f == nil {
		return nil, nil, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	sessions = make([]SessionSummary, 0, len(f.entries))
	for i := len(f.entries) - 1; i >= 0; i-- {
		sessions = append(sessions, f.entries[i].SessionSummary)
	}
	errs = append(errs, f.errors...)
	dets = append(dets, f.detections...)
	return sessions, errs, dets
}

func (f *flightRecorder) addError(e FlightError) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.errors = append(f.errors, e)
	if len(f.errors) > flightErrorCap {
		f.errors = f.errors[len(f.errors)-flightErrorCap:]
	}
}

func (f *flightRecorder) addDetection(e telemetry.AuditEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.detections = append(f.detections, e)
	if len(f.detections) > flightErrorCap {
		f.detections = f.detections[len(f.detections)-flightErrorCap:]
	}
}

func (f *flightRecorder) sessions() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

// flightCapture collects one in-flight session's per-cell observations via
// harness.Config.CellDone, which fires once per cell that runs with the
// cell's full rows; their sum equals the trace tree's per-cell run.end
// sums exactly (the run deltas sum to the cell's rows, and grid-rounded
// cycles add exactly in any order). Each cell folds to its total and top
// rows as it finishes: CellDone's rows are a reused buffer, and a session
// need not hold every cell's rows until it ends.
type flightCapture struct {
	mu    sync.Mutex
	cells map[string]cellCapture
}

type cellCapture struct {
	total float64
	top   []telemetry.Row
	rng   map[string]uint64
}

func newFlightCapture() *flightCapture {
	return &flightCapture{cells: make(map[string]cellCapture)}
}

func (fc *flightCapture) cellDone(cell string, rows []telemetry.Row, rngHealth map[string]uint64) {
	c := cellCapture{top: topRows(rows, flightTopRows), rng: rngHealth}
	for _, r := range rows {
		c.total += r.Cycles
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.cells[cell] = c
}

// summaries folds the capture and the session's final records into
// per-cell summaries, in record order. A failed cell yields two records
// (the partial measurement plus the error record), so records fold by
// cell name: the error record sets the cell's class and message. Records
// name cells without the "session/" experiment prefix the capture keys
// carry.
func (fc *flightCapture) summaries(recs []exp.Record) []CellSummary {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	var out []CellSummary
	index := make(map[string]int)
	for _, rec := range recs {
		i, ok := index[rec.Cell]
		if !ok {
			i = len(out)
			index[rec.Cell] = i
			cs := CellSummary{Cell: rec.Cell, Class: "ok"}
			if c, ok := fc.cells["session/"+rec.Cell]; ok {
				cs.TotalCycles, cs.TopRows, cs.RNG = c.total, c.top, c.rng
			}
			out = append(out, cs)
		}
		if rec.Err != "" {
			out[i].Err = rec.Err
			out[i].Class = rec.ErrClass
			if out[i].Class == "" {
				out[i].Class = "error"
			}
		}
	}
	return out
}

// topRows returns the n highest-cycle rows, ties broken by name for
// determinism. It selects into a slice of exactly that many rows: the
// flight ring keeps the result, so it must not pin a copy of every row.
func topRows(rows []telemetry.Row, n int) []telemetry.Row {
	k := min(n, len(rows))
	if k <= 0 {
		return nil
	}
	top := make([]telemetry.Row, 0, k)
	for _, r := range rows {
		if len(top) == k {
			if rankRows(r, top[k-1]) >= 0 {
				continue
			}
			top = top[:k-1]
		}
		i, _ := slices.BinarySearchFunc(top, r, rankRows)
		top = slices.Insert(top, i, r)
	}
	return top
}

// rankRows orders rows by descending cycles, then kind and name.
func rankRows(a, b telemetry.Row) int {
	if c := cmp.Compare(b.Cycles, a.Cycles); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	return cmp.Compare(a.Name, b.Name)
}

// specDigest is a stable content address for a session spec (flight
// records correlate resubmissions of the same spec without storing tenant
// source code).
func specDigest(spec harness.SessionSpec) string {
	b, _ := json.Marshal(spec)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// errTraceCapped latches the per-session tracer once its capture buffer
// fills; the stored prefix stays line-aligned for ReadTrace.
var errTraceCapped = errors.New("server: session trace capture capped")

// limitBuffer is a bounded in-memory capture: writes that would exceed
// max fail instead of truncating mid-line.
type limitBuffer struct {
	buf bytes.Buffer
	max int
}

func (b *limitBuffer) Write(p []byte) (int, error) {
	if b.buf.Len()+len(p) > b.max {
		return 0, errTraceCapped
	}
	return b.buf.Write(p)
}

// handleDebugSessions serves the flight-recorder index: recent session
// summaries (newest first) plus the error and detection tails.
func (s *Server) handleDebugSessions(w http.ResponseWriter, _ *http.Request) {
	sessions, errs, dets := s.flight.list()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Sessions   []SessionSummary       `json:"sessions"`
		Errors     []FlightError          `json:"recent_errors,omitempty"`
		Detections []telemetry.AuditEvent `json:"recent_detections,omitempty"`
	}{sessions, errs, dets})
}

// handleDebugSession serves one session's full flight record by ID.
func (s *Server) handleDebugSession(w http.ResponseWriter, r *http.Request) {
	e, ok := s.flight.get(r.PathValue("id"))
	if !ok {
		writeError(w, errf(http.StatusNotFound, CodeBadRequest, "no flight record for session %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(e.SessionSummary)
}

// handleDebugTrace serves one session's captured span trace as raw JSONL.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	e, ok := s.flight.get(r.PathValue("id"))
	if !ok || len(e.trace) == 0 {
		writeError(w, errf(http.StatusNotFound, CodeBadRequest, "no trace captured for session %q (submit with \"trace\": true)", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_, _ = w.Write(e.trace)
}

// isDetection recognizes the VM's defense-detection messages in a
// record's error text (the typed violation is gone by the time it has
// crossed the record boundary as a string).
func isDetection(err string) bool {
	return strings.Contains(err, "canary check failed") ||
		strings.Contains(err, "shadow stack mismatch") ||
		strings.Contains(err, "function identifier check failed")
}

// nowNS is indirected for tests.
var nowNS = func() int64 { return time.Now().UnixNano() }
