// Observability tests: the /v1/stats JSON shape, labeled metric families
// in the exposition, the flight recorder and trace/debug endpoints, the
// security audit bridge, traced/dormant byte-identity, and goroutine
// hygiene across traced sessions.
package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// smashSrc deterministically trips the stackato canary: the 40-byte
// ascending write always covers the canary 32 bytes above buf while
// staying inside the padded frame.
const smashSrc = `long smash(long n) { long i; char buf[32]; i = 0;
  while (i < n) { buf[i] = 65; i = i + 1; } return i; }
long main() { return smash(40); }`

// TestStatsJSONShape pins the /v1/stats wire shape as a superset of what
// the chaos suite asserts: renaming or dropping a field is an API break
// callers discover here rather than in production dashboards.
func TestStatsJSONShape(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Audit = telemetry.NewAuditSink(nil)
	})
	resp := postSession(t, ts, sessionBody(""))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer st.Body.Close()
	var shape map[string]any
	if err := json.NewDecoder(st.Body).Decode(&shape); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	for _, key := range []string{
		"active_sessions", "executing", "queued", "tenants", "inflight", "draining",
		"pool_hits", "pool_misses", "pool_puts", "pool_drops", "pool_retained", "pool_retained_bytes",
		"queue_slots", "queue_max_waiters",
		"progcache_len", "progcache_hits", "progcache_misses", "progcache_evictions",
		"audit_events", "flight_sessions",
	} {
		if _, ok := shape[key]; !ok {
			t.Errorf("stats JSON missing %q: %v", key, shape)
		}
	}
	if n, ok := shape["flight_sessions"].(float64); !ok || n < 1 {
		t.Fatalf("flight_sessions = %v, want >= 1 after a session", shape["flight_sessions"])
	}
	if n, ok := shape["queue_slots"].(float64); !ok || n != 4 {
		t.Fatalf("queue_slots = %v, want the configured 4", shape["queue_slots"])
	}
}

// TestLabeledMetricsExposition pins the labeled families a session leaves
// behind: wall-time histograms split by tenant and outcome, per-cell
// outcome counters split by engine and class, with conformant
// _bucket/_sum/_count series.
func TestLabeledMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postSession(t, ts, sessionBody(""))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body := mustRead(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`smokestack_server_session_wall_seconds_bucket{le="+Inf",outcome="completed",tenant="t1"} 1`,
		`smokestack_server_session_wall_seconds_count{outcome="completed",tenant="t1"} 1`,
		`smokestack_server_sessions_outcome{outcome="completed",tenant="t1"} 1`,
		`smokestack_server_cells_outcome{class="ok",engine="fixed"} 2`,
		`smokestack_server_cells_outcome{class="ok",engine="smokestack+aes-10"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestCellOutcomeSeriesMatchRecords runs a session whose cells end both
// ok and with injected entropy faults. The server counts outcomes per
// (engine, class) series; its /metrics lines for the family must equal
// the exposition of one Inc per streamed record, so folding the counts
// changes nothing a scraper sees.
func TestCellOutcomeSeriesMatchRecords(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postSession(t, ts, fmt.Sprintf(
		`{"tenant":"t1","program":%q,"engines":["fixed","padding","smokestack+aes-10"],"seed":7,"runs":3,"faults":{"entropy_period":1,"entropy_burst":1}}`,
		testSrc))
	recs := decodeRecords(t, resp.Body)
	resp.Body.Close()

	ref := telemetry.NewRegistry()
	classes := map[string]int{}
	for _, rec := range recs {
		class := rec.ErrClass
		if rec.Err == "" {
			class = "ok"
		} else if class == "" {
			class = "error"
		}
		classes[class]++
		ref.CounterWith("server.cells.outcome",
			map[string]string{"engine": rec.Labels["engine"], "class": class}).Inc()
	}
	if classes["ok"] == 0 || len(classes) < 2 {
		t.Fatalf("record classes %v: want ok cells and faulted cells", classes)
	}
	family := func(exposition string) []string {
		var out []string
		for _, line := range strings.Split(exposition, "\n") {
			if strings.HasPrefix(line, "smokestack_server_cells_outcome{") ||
				line == "# TYPE smokestack_server_cells_outcome counter" {
				out = append(out, line)
			}
		}
		return out
	}
	var want bytes.Buffer
	if err := ref.Snapshot().WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	got := mustRead(mresp.Body)
	mresp.Body.Close()
	if g, w := family(got), family(want.String()); !slices.Equal(g, w) {
		t.Fatalf("cells.outcome series:\n%s\nwant, counting per record:\n%s",
			strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
}

// TestTracedSessionEndToEnd is the server-side observability acceptance
// path, run by `make race`: a traced session with a canary detection is
// observable through the flight recorder, the folded trace (reconciling
// exactly against the flight record), and the audit log — while a dormant
// twin of the same spec streams byte-identical records.
func TestTracedSessionEndToEnd(t *testing.T) {
	var auditBuf bytes.Buffer
	sink := telemetry.NewAuditSink(&auditBuf)
	_, ts := newTestServer(t, func(c *Config) {
		c.Audit = sink
	})
	spec := fmt.Sprintf(`{"tenant":"t1","program":%q,"engines":["stackato"],"seed":11}`, smashSrc)
	traced := strings.TrimSuffix(spec, "}") + `,"trace":true}`

	dresp := postSession(t, ts, spec)
	dormantBytes := mustRead(dresp.Body)
	dresp.Body.Close()

	tresp := postSession(t, ts, traced)
	tracedBytes := mustRead(tresp.Body)
	tresp.Body.Close()
	if tracedBytes != dormantBytes {
		t.Fatalf("traced stream differs from dormant stream:\n%s\nvs\n%s", tracedBytes, dormantBytes)
	}
	if !strings.Contains(tracedBytes, "canary check failed") {
		t.Fatalf("no detection in records: %s", tracedBytes)
	}
	sid := tresp.Header.Get("X-Session-Id")
	ref := tresp.Header.Get("X-Trace-Ref")
	if sid == "" || ref != "/v1/debug/sessions/"+sid+"/trace" {
		t.Fatalf("session %q trace ref %q", sid, ref)
	}
	if dresp.Header.Get("X-Trace-Ref") != "" {
		t.Fatal("untraced session carries a trace ref")
	}

	// Flight record: detection counted, cell classified, cycles attributed.
	fresp, err := http.Get(ts.URL + "/v1/debug/sessions/" + sid)
	if err != nil || fresp.StatusCode != 200 {
		t.Fatalf("flight record: %v %v", err, fresp.StatusCode)
	}
	var flight SessionSummary
	if err := json.NewDecoder(fresp.Body).Decode(&flight); err != nil {
		t.Fatalf("flight decode: %v", err)
	}
	fresp.Body.Close()
	if flight.ID != sid || flight.Tenant != "t1" || flight.Detections != 1 ||
		flight.TraceRef != ref || flight.SpecDigest == "" {
		t.Fatalf("flight summary mismatch: %+v", flight)
	}
	if len(flight.Cells) != 1 || flight.Cells[0].Class != "error" ||
		!strings.Contains(flight.Cells[0].Err, "canary check failed") ||
		flight.Cells[0].TotalCycles <= 0 || len(flight.Cells[0].TopRows) == 0 {
		t.Fatalf("flight cells mismatch: %+v", flight.Cells)
	}

	// The trace folds, reconciles, and matches the flight record exactly.
	trresp, err := http.Get(ts.URL + ref)
	if err != nil || trresp.StatusCode != 200 {
		t.Fatalf("trace fetch: %v %v", err, trresp.StatusCode)
	}
	events, err := telemetry.ReadTrace(trresp.Body)
	trresp.Body.Close()
	if err != nil {
		t.Fatalf("trace parse: %v", err)
	}
	tree := telemetry.FoldTrace(events)
	if err := tree.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if got := tree.CellTotals()["session/stackato/run0"]; got != flight.Cells[0].TotalCycles {
		t.Fatalf("span cycle sum %v != flight TotalCycles %v", got, flight.Cells[0].TotalCycles)
	}

	// The untraced twin has a flight record too, but no trace.
	dsid := dresp.Header.Get("X-Session-Id")
	ntr, err := http.Get(ts.URL + "/v1/debug/sessions/" + dsid + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	ntr.Body.Close()
	if ntr.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced session's trace endpoint: status %d, want 404", ntr.StatusCode)
	}

	// Debug index: both sessions listed newest-first, detection in the tail.
	iresp, err := http.Get(ts.URL + "/v1/debug/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var index struct {
		Sessions   []SessionSummary       `json:"sessions"`
		Detections []telemetry.AuditEvent `json:"recent_detections"`
	}
	if err := json.NewDecoder(iresp.Body).Decode(&index); err != nil {
		t.Fatalf("index decode: %v", err)
	}
	iresp.Body.Close()
	if len(index.Sessions) != 2 || index.Sessions[0].ID != sid {
		t.Fatalf("index sessions: %+v", index.Sessions)
	}
	if len(index.Detections) != 2 {
		t.Fatalf("recent detections = %d, want 2 (both runs tripped)", len(index.Detections))
	}

	// Audit: two detections (dormant + traced run), the traced one tied to
	// its session by trace ID; stats and metrics see them too.
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	auditEvents, err := telemetry.ReadAudit(&auditBuf)
	if err != nil {
		t.Fatal(err)
	}
	matched := false
	for _, e := range auditEvents {
		if e.Kind == "canary" && e.Tenant == "t1" && e.Engine == "stackato" &&
			e.Trace == "session-"+sid && e.Seed != 0 && e.Addr != 0 {
			matched = true
		}
	}
	if len(auditEvents) != 2 || !matched {
		t.Fatalf("audit log: %d events, matched=%v: %+v", len(auditEvents), matched, auditEvents)
	}
	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsSnapshot
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if stats.AuditEvents != 2 || stats.AuditByKind["canary"] != 2 {
		t.Fatalf("stats audit counters: %+v", stats)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := mustRead(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(mbody, `smokestack_server_detections{engine="stackato",kind="canary"} 2`) {
		t.Fatalf("labeled detection counter missing from exposition:\n%s", mbody)
	}
}

// TestFlightRecorderBounds pins the ring semantics: the cap evicts oldest
// entries (and their traces), and FlightCap < 0 disables recording
// entirely.
func TestFlightRecorderBounds(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.FlightCap = 2 })
	var ids []string
	for i := 0; i < 3; i++ {
		resp := postSession(t, ts, fmt.Sprintf(
			`{"tenant":"t1","program":"long main() { return %d; }","engines":["fixed"],"seed":%d,"trace":true}`, i, i))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ids = append(ids, resp.Header.Get("X-Session-Id"))
	}
	iresp, err := http.Get(ts.URL + "/v1/debug/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var index struct {
		Sessions []SessionSummary `json:"sessions"`
	}
	if err := json.NewDecoder(iresp.Body).Decode(&index); err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if len(index.Sessions) != 2 || index.Sessions[0].ID != ids[2] || index.Sessions[1].ID != ids[1] {
		t.Fatalf("ring kept %+v, want the 2 newest of %v", index.Sessions, ids)
	}
	gone, err := http.Get(ts.URL + "/v1/debug/sessions/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session: status %d, want 404", gone.StatusCode)
	}

	_, tsOff := newTestServer(t, func(c *Config) { c.FlightCap = -1 })
	resp := postSession(t, tsOff, `{"tenant":"t1","program":"long main() { return 1; }","engines":["fixed"],"trace":true}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	oresp, err := http.Get(tsOff.URL + "/v1/debug/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var off struct {
		Sessions []SessionSummary `json:"sessions"`
	}
	if err := json.NewDecoder(oresp.Body).Decode(&off); err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if len(off.Sessions) != 0 {
		t.Fatalf("disabled recorder kept %+v", off.Sessions)
	}
}

// TestTracedSessionsNoGoroutineLeak pins flight-recorder hygiene: traced
// sessions whose results outlive their clients leave no goroutines
// behind.
func TestTracedSessionsNoGoroutineLeak(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// Warm shared caches and the HTTP client pool before baselining.
	resp := postSession(t, ts, sessionBody(`,"trace":true`))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	runtime.GC()
	base := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		resp := postSession(t, ts, sessionBody(`,"trace":true`))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return // settled back to baseline (idle HTTP keep-alives wobble by a couple)
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after traced sessions", base, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestTopRowsSelection checks topRows against a full sort of every row,
// tie-breaks included, and that the selection holds exactly n rows.
func TestTopRowsSelection(t *testing.T) {
	var rows []telemetry.Row
	for i := 0; i < 40; i++ {
		kind := [2]string{"op", "cat"}[i%2]
		rows = append(rows, telemetry.Row{Kind: kind, Name: fmt.Sprintf("r%02d", (i*7)%40), Count: uint64(i), Cycles: float64((i * 13) % 9)})
	}
	for _, n := range []int{1, 8, 40, 50} {
		want := append([]telemetry.Row(nil), rows...)
		slices.SortFunc(want, func(a, b telemetry.Row) int {
			switch {
			case a.Cycles != b.Cycles:
				return cmp.Compare(b.Cycles, a.Cycles)
			case a.Kind != b.Kind:
				return cmp.Compare(a.Kind, b.Kind)
			}
			return cmp.Compare(a.Name, b.Name)
		})
		want = want[:min(n, len(want))]
		got := topRows(rows, n)
		if !slices.Equal(got, want) || cap(got) != len(want) {
			t.Fatalf("topRows(n=%d) = %v (cap %d), want %v", n, got, cap(got), want)
		}
	}
	if got := topRows(nil, 8); got != nil {
		t.Fatalf("topRows of no rows = %v, want nil", got)
	}
	if got := topRows(rows, 0); got != nil {
		t.Fatalf("topRows(n=0) = %v, want nil", got)
	}
}
