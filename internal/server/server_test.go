package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// testSrc is a small MiniC program for endpoint tests.
const testSrc = `
long work(long n) {
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < n) {
		acc = acc + i * 3;
		i = i + 1;
	}
	return acc;
}

long main() {
	long t;
	t = work(200) + work(100);
	print(t);
	return t & 32767;
}
`

// newTestServer starts a server with test-friendly defaults; overrides
// tweak the config before construction.
func newTestServer(t *testing.T, override func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		RatePerSec:           1000,
		Burst:                1000,
		MaxSessionsPerTenant: 64,
		MaxConcurrent:        4,
		MaxQueued:            8,
		QueueTimeout:         2 * time.Second,
		IdleEvictAfter:       -1, // no janitor in unit tests
	}
	if override != nil {
		override(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postSession(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sessions: %v", err)
	}
	return resp
}

func decodeError(t *testing.T, resp *http.Response) *Error {
	t.Helper()
	defer resp.Body.Close()
	var e Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	e.Status = resp.StatusCode
	return &e
}

func decodeRecords(t *testing.T, r io.Reader) []exp.Record {
	t.Helper()
	var recs []exp.Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec exp.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad record line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning stream: %v", err)
	}
	return recs
}

func sessionBody(extra string) string {
	return fmt.Sprintf(`{"tenant":"t1","program":%q,"engines":["fixed","smokestack+aes-10"],"seed":7,"runs":2%s}`,
		testSrc, extra)
}

func TestSessionEndpointStreams(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postSession(t, ts, sessionBody(""))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (body: %s)", resp.StatusCode, mustRead(resp.Body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	if resp.Header.Get("X-Session-Id") == "" {
		t.Fatal("missing X-Session-Id")
	}
	recs := decodeRecords(t, resp.Body)
	if len(recs) != 4 { // 2 engines × 2 runs
		t.Fatalf("got %d records, want 4: %+v", len(recs), recs)
	}
	for _, r := range recs {
		if r.Err != "" {
			t.Fatalf("record %s failed: %s", r.Cell, r.Err)
		}
		if r.Values["cycles"] <= 0 || r.Labels["engine"] == "" {
			t.Fatalf("record %s missing measurements: %+v", r.Cell, r)
		}
	}
}

func TestSessionWorkloadByName(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postSession(t, ts, `{"tenant":"t1","workload":"lbm","engines":["fixed"],"seed":1}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (body: %s)", resp.StatusCode, mustRead(resp.Body))
	}
	recs := decodeRecords(t, resp.Body)
	if len(recs) != 1 || recs[0].Err != "" {
		t.Fatalf("unexpected records: %+v", recs)
	}
	if recs[0].Labels["workload"] != "lbm" {
		t.Fatalf("workload label %q, want lbm", recs[0].Labels["workload"])
	}
}

func TestTypedRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Limits.MaxBodyBytes = 4 << 10
	})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed json", `{"tenant":`, 400, CodeBadRequest},
		{"unknown field", `{"tenant":"t1","bogus":1}`, 400, CodeBadRequest},
		{"trailing data", `{"tenant":"t1","program":"long main() { return 1; }","engines":["fixed"]} {"x":1}`, 400, CodeBadRequest},
		{"bad tenant", `{"tenant":"no spaces","program":"long main() { return 1; }","engines":["fixed"]}`, 400, CodeBadRequest},
		{"no engines", `{"tenant":"t1","program":"long main() { return 1; }"}`, 400, CodeBadRequest},
		{"unknown engine", `{"tenant":"t1","program":"long main() { return 1; }","engines":["warpdrive"]}`, 400, CodeUnknownEngine},
		{"unknown workload", `{"tenant":"t1","workload":"solitaire","engines":["fixed"]}`, 404, CodeUnknownWorkload},
		{"both sources", `{"tenant":"t1","workload":"lbm","program":"long main() { return 1; }","engines":["fixed"]}`, 400, CodeBadRequest},
		{"compile error", `{"tenant":"t1","program":"long main( {","engines":["fixed"]}`, 400, CodeCompile},
		{"negative runs", `{"tenant":"t1","program":"long main() { return 1; }","engines":["fixed"],"runs":-1}`, 400, CodeBadRequest},
		{"bad fault", `{"tenant":"t1","program":"long main() { return 1; }","engines":["fixed"],"faults":{"host_delay_cycles":-3}}`, 400, CodeBadRequest},
		{"oversized body", `{"tenant":"t1","program":"` + strings.Repeat("x", 8<<10) + `","engines":["fixed"]}`, 413, CodeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSession(t, ts, tc.body)
			e := decodeError(t, resp)
			if e.Status != tc.status || e.Code != tc.code {
				t.Fatalf("got (%d, %s %q), want (%d, %s)", e.Status, e.Code, e.Msg, tc.status, tc.code)
			}
		})
	}
}

// TestRequestDeadlineClamp pins Deadline's clamp on decoded requests:
// deadline_ms values too large for a time.Duration resolve to MaxDeadline
// instead of wrapping to a deadline that cancels the session at once, and
// a configured default above the ceiling is clamped to it too.
func TestRequestDeadlineClamp(t *testing.T) {
	lim := Limits{}.withDefaults()
	cases := []struct {
		ms   string
		want time.Duration
	}{
		{"9223372036854775807", lim.MaxDeadline},
		{"4611686018427387904", lim.MaxDeadline}, // 1<<62
		{"18446744073710", lim.MaxDeadline},
		{"120001", lim.MaxDeadline},
		{"120000", lim.MaxDeadline},
		{"1500", 1500 * time.Millisecond},
		{"0", lim.DefaultDeadline},
	}
	for _, tc := range cases {
		body := `{"tenant":"t1","workload":"lbm","engines":["fixed"],"deadline_ms":` + tc.ms + `}`
		req, aerr := ParseRequest(strings.NewReader(body), lim)
		if aerr != nil {
			t.Fatalf("deadline_ms %s: %v", tc.ms, aerr)
		}
		if got := req.Deadline(lim); got != tc.want {
			t.Errorf("deadline_ms %s: Deadline = %v, want %v", tc.ms, got, tc.want)
		}
	}
	high := Limits{DefaultDeadline: 5 * time.Minute, MaxDeadline: 2 * time.Minute}
	if got := (&Request{}).Deadline(high); got != high.MaxDeadline {
		t.Errorf("default deadline %v over ceiling %v: Deadline = %v, want the ceiling",
			high.DefaultDeadline, high.MaxDeadline, got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
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
	for _, want := range []string{"server_sessions_submitted", "server_records_streamed", "server_sessions_active"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %s:\n%s", want, body)
		}
	}

	jresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatalf("GET /metrics?format=json: %v", err)
	}
	defer jresp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
}

func TestHealthAndStats(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()

	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var snap StatsSnapshot
	if err := json.NewDecoder(st.Body).Decode(&snap); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	st.Body.Close()
	if snap.Draining {
		t.Fatal("fresh server reports draining")
	}

	// After drain: healthz refuses, sessions refuse with typed draining.
	if err := s.Drain(time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after drain: %v", err)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: status %d, want 503", hresp.StatusCode)
	}
	hresp.Body.Close()
	e := decodeError(t, postSession(t, ts, sessionBody("")))
	if e.Code != CodeDraining || e.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain session got (%d, %s), want (503, draining)", e.Status, e.Code)
	}
}

func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.mux.HandleFunc("GET /boom", s.recoverWrap(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("GET /boom: %v", err)
	}
	e := decodeError(t, resp)
	if e.Status != 500 || e.Code != CodeInternal {
		t.Fatalf("panic surfaced as (%d, %s), want (500, internal)", e.Status, e.Code)
	}
	// The process survived; normal service continues.
	ok := postSession(t, ts, sessionBody(""))
	defer ok.Body.Close()
	if ok.StatusCode != 200 {
		t.Fatalf("session after panic: status %d", ok.StatusCode)
	}
	io.Copy(io.Discard, ok.Body)
}

func mustRead(r io.Reader) string {
	b, _ := io.ReadAll(r)
	return string(b)
}
