package server

// Chaos suite: drive a live server through injected engine faults, hostile
// clients, overload and shutdown, and assert it behaves like a service —
// keeps serving, degrades into typed errors and classified records (never
// panics, never leaks goroutines), drains cleanly, and streams bytes
// identical to the offline experiment pipeline. Run under -race by the
// `make race` gate.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/harness"
)

// chaosSpin runs long enough (tens of ms per run) for deadlines, drains
// and disconnects to land mid-session.
const chaosSpin = `
long main() {
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < 2000000) {
		acc = acc + i;
		i = i + 1;
	}
	return acc & 4095;
}
`

// TestChaosServerOfflineParity pins the tentpole determinism claim: for a
// given (tenant, seed, config) the server's streamed bytes are identical
// to the offline Runner over the same spec — including under injected
// faults.
func TestChaosServerOfflineParity(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		spec harness.SessionSpec
	}{
		{
			"clean",
			fmt.Sprintf(`{"tenant":"par1","program":%q,"engines":["fixed","smokestack+aes-10","stackato"],"seed":41,"runs":3}`, testSrc),
			harness.SessionSpec{Source: testSrc, Engines: []string{"fixed", "smokestack+aes-10", "stackato"}, Seed: 41, Runs: 3},
		},
		{
			"entropy brownout",
			fmt.Sprintf(`{"tenant":"par2","program":%q,"engines":["smokestack+aes-10","baserand"],"seed":99,"runs":2,"faults":{"entropy_period":4,"entropy_burst":2}}`, testSrc),
			harness.SessionSpec{
				Source: testSrc, Engines: []string{"smokestack+aes-10", "baserand"}, Seed: 99, Runs: 2,
				Fault: &faultinject.Plan{Seed: 99, EntropyPeriod: 4, EntropyBurst: 2},
			},
		},
		{
			"host faults",
			fmt.Sprintf(`{"tenant":"par3","program":%q,"engines":["fixed","padding"],"seed":5,"runs":2,"faults":{"host_fault_every":3}}`, testSrc),
			harness.SessionSpec{
				Source: testSrc, Engines: []string{"fixed", "padding"}, Seed: 5, Runs: 2,
				Fault: &faultinject.Plan{Seed: 5, HostFaultEvery: 3},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSession(t, ts, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d (body: %s)", resp.StatusCode, mustRead(resp.Body))
			}
			streamed, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("reading stream: %v", err)
			}
			offline, err := harness.RunSession(harness.Config{}, tc.spec)
			if err != nil {
				t.Fatalf("RunSession: %v", err)
			}
			var want bytes.Buffer
			if err := exp.WriteJSON(&want, offline); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			if !bytes.Equal(streamed, want.Bytes()) {
				t.Fatalf("server stream differs from offline pipeline\nserver:\n%s\noffline:\n%s", streamed, want.Bytes())
			}
		})
	}
}

// TestChaosInjectedFaultsClassified: engine-level chaos (entropy brownout
// killing the randomizing engine) degrades into a 200 with records
// classified "injected" — and the server keeps serving afterwards.
func TestChaosInjectedFaultsClassified(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := fmt.Sprintf(`{"tenant":"chaos","program":%q,"engines":["smokestack+aes-10"],"seed":7,"runs":4,"faults":{"entropy_period":1,"entropy_burst":1}}`, testSrc)
	resp := postSession(t, ts, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 — cell faults are records, not HTTP errors", resp.StatusCode)
	}
	recs := decodeRecords(t, resp.Body)
	failed := 0
	for _, r := range recs {
		if r.Err == "" {
			continue
		}
		failed++
		if r.ErrClass != "injected" {
			t.Errorf("record %s: ErrClass %q (err %s), want injected", r.Cell, r.ErrClass, r.Err)
		}
	}
	if failed == 0 {
		t.Fatal("total blackout produced no failures")
	}

	// Service is unharmed: a clean session still works.
	ok := postSession(t, ts, sessionBody(""))
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("session after chaos: status %d", ok.StatusCode)
	}
	io.Copy(io.Discard, ok.Body)
}

// TestChaosDeadlinePropagates: a session deadline lands mid-run; the
// watchdog stops the run and the remaining cells are shed as classified
// "canceled" records on a 200 stream.
func TestChaosDeadlinePropagates(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := fmt.Sprintf(`{"tenant":"dl","program":%q,"engines":["fixed","baserand","padding"],"seed":3,"runs":8,"deadline_ms":150}`, chaosSpin)
	start := time.Now()
	resp := postSession(t, ts, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (body: %s)", resp.StatusCode, mustRead(resp.Body))
	}
	recs := decodeRecords(t, resp.Body)
	wall := time.Since(start)
	if wall > 10*time.Second {
		t.Fatalf("deadline did not cut the session short (took %v)", wall)
	}
	if len(recs) != 24+1 && len(recs) != 24 {
		// 24 cells; a cell interrupted mid-run contributes both its partial
		// measurement record and an error record.
		t.Logf("note: %d records for 24 cells", len(recs))
	}
	canceled := 0
	for _, r := range recs {
		if r.ErrClass == "canceled" {
			canceled++
		} else if r.Err != "" {
			t.Errorf("record %s: unclassified error %q", r.Cell, r.Err)
		}
	}
	if canceled == 0 {
		t.Fatal("no canceled records — deadline did not propagate into the session")
	}
}

// TestChaosMidStreamDisconnect: the client walks away mid-stream; the
// server cancels the session instead of computing for nobody, and the
// slot frees for the next tenant.
func TestChaosMidStreamDisconnect(t *testing.T) {
	s, ts := newTestServer(t, nil)
	body := fmt.Sprintf(`{"tenant":"rude","program":%q,"engines":["fixed"],"seed":1,"runs":64,"deadline_ms":60000}`, chaosSpin)
	resp := postSession(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Read one record, then hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first record: %v", err)
	}
	resp.Body.Close()

	// The session must unwind promptly (write failure → context cancel →
	// watchdog stop → remaining cells shed).
	deadline := time.Now().Add(15 * time.Second)
	for s.gate.active() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.gate.active(); n != 0 {
		t.Fatalf("%d sessions still live %v after disconnect", n, 15*time.Second)
	}

	// And the server still serves.
	ok := postSession(t, ts, sessionBody(""))
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("session after disconnect: status %d", ok.StatusCode)
	}
	io.Copy(io.Discard, ok.Body)
}

// TestChaosSlowClient: a client that dribbles reads must not deadlock the
// session; the stream completes correctly through OS buffering.
func TestChaosSlowClient(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postSession(t, ts, sessionBody(""))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	chunk := make([]byte, 64)
	for {
		n, err := resp.Body.Read(chunk)
		buf.Write(chunk[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("slow read: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	recs := decodeRecords(t, &buf)
	if len(recs) != 4 {
		t.Fatalf("slow client got %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if r.Err != "" {
			t.Fatalf("record %s failed: %s", r.Cell, r.Err)
		}
	}
}

// TestChaosQueueSaturation floods a 1-slot server and requires overload to
// degrade into typed refusals — 200s for the lucky, queue_full /
// queue_timeout / session_quota / rate_limited for the rest, nothing else,
// and full recovery afterwards.
func TestChaosQueueSaturation(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueued = 2
		c.QueueTimeout = 100 * time.Millisecond
		c.MaxSessionsPerTenant = 64
	})
	// Occupy the slot with a long session.
	holdBody := fmt.Sprintf(`{"tenant":"hold","program":%q,"engines":["fixed"],"seed":1,"runs":64,"deadline_ms":30000}`, chaosSpin)
	hold := postSession(t, ts, holdBody)
	defer func() {
		hold.Body.Close()
	}()
	if hold.StatusCode != http.StatusOK {
		t.Fatalf("holder status %d", hold.StatusCode)
	}
	// Wait until the holder actually owns the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e, _ := s.q.depth(); e == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	const flood = 12
	codes := make(chan string, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"tenant":"flood%d","program":"long main() { return 1; }","engines":["fixed"],"seed":1}`, i)
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
			if err != nil {
				codes <- "transport_error"
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				codes <- "ok"
				return
			}
			var e Error
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				codes <- fmt.Sprintf("untyped_%d", resp.StatusCode)
				return
			}
			codes <- e.Code
		}(i)
	}
	wg.Wait()
	close(codes)

	allowed := map[string]bool{
		"ok": true, CodeQueueFull: true, CodeQueueTimeout: true,
		CodeSessionQuota: true, CodeRateLimited: true,
	}
	shed := 0
	for c := range codes {
		if !allowed[c] {
			t.Errorf("overload produced %q — overload must be a typed refusal", c)
		}
		if c != "ok" {
			shed++
		}
	}
	if shed == 0 {
		t.Error("flood of 12 against 1 slot + 2 waiters shed nothing")
	}

	// Recovery: hang up on the holder, then a normal session succeeds.
	hold.Body.Close()
	deadline = time.Now().Add(15 * time.Second)
	for s.gate.active() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	ok := postSession(t, ts, `{"tenant":"after","program":"long main() { return 7; }","engines":["fixed"],"seed":1}`)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("post-flood session: status %d (body %s)", ok.StatusCode, mustRead(ok.Body))
	}
}

// TestChaosTenantLimitsOverHTTP: per-tenant rate and quota surface as
// typed 429s end to end.
func TestChaosTenantLimitsOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.RatePerSec = 0.001
		c.Burst = 2
		c.MaxSessionsPerTenant = 1
		c.MaxConcurrent = 4
	})
	quick := `{"tenant":"greedy","program":"long main() { return 1; }","engines":["fixed"],"seed":1}`
	// Burst of 2: two sessions pass (sequentially, so the quota of 1
	// in-flight is respected), third hits the rate limit.
	for i := 0; i < 2; i++ {
		resp := postSession(t, ts, quick)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst session %d: status %d (%s)", i, resp.StatusCode, mustRead(resp.Body))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	e := decodeError(t, postSession(t, ts, quick))
	if e.Status != http.StatusTooManyRequests || e.Code != CodeRateLimited {
		t.Fatalf("got (%d, %s), want (429, rate_limited)", e.Status, e.Code)
	}

	// Quota: hold one slow session in flight, second submission → 429.
	slow := fmt.Sprintf(`{"tenant":"slowpoke","program":%q,"engines":["fixed"],"seed":1,"runs":64,"deadline_ms":30000}`, chaosSpin)
	hold := postSession(t, ts, slow)
	defer hold.Body.Close()
	if hold.StatusCode != http.StatusOK {
		t.Fatalf("holder: status %d", hold.StatusCode)
	}
	e = decodeError(t, postSession(t, ts, fmt.Sprintf(`{"tenant":"slowpoke","program":%q,"engines":["fixed"],"seed":2}`, testSrc)))
	if e.Status != http.StatusTooManyRequests || e.Code != CodeSessionQuota {
		t.Fatalf("got (%d, %s), want (429, session_quota)", e.Status, e.Code)
	}
	// Other tenants are unaffected.
	ok := postSession(t, ts, `{"tenant":"bystander","program":"long main() { return 2; }","engines":["fixed"],"seed":1}`)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("bystander: status %d", ok.StatusCode)
	}
	io.Copy(io.Discard, ok.Body)
}

// TestChaosDrainUnderLoad: SIGTERM semantics — stop admitting, cancel
// in-flight sessions past the grace period, and still hand every client a
// complete, classified record stream.
func TestChaosDrainUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 2
		c.HardStopGrace = 20 * time.Second
	})
	body := fmt.Sprintf(`{"tenant":"drainee","program":%q,"engines":["fixed"],"seed":1,"runs":64,"deadline_ms":60000}`, chaosSpin)
	type result struct {
		recs []exp.Record
		err  error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results <- result{err: fmt.Errorf("status %d", resp.StatusCode)}
				return
			}
			var recs []exp.Record
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
			for sc.Scan() {
				var r exp.Record
				if e := json.Unmarshal(sc.Bytes(), &r); e == nil {
					recs = append(recs, r)
				}
			}
			results <- result{recs: recs, err: sc.Err()}
		}()
	}
	// Wait for both sessions to be live, then drain with a tiny grace so
	// the hard-cancel path runs.
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.active() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.gate.active() < 2 {
		t.Fatal("sessions did not start")
	}
	drainStart := time.Now()
	if err := s.Drain(50 * time.Millisecond); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	drainWall := time.Since(drainStart)
	t.Logf("drain completed in %v", drainWall)
	if drainWall > 15*time.Second {
		t.Fatalf("drain took %v — hard cancel did not bite", drainWall)
	}

	// Every in-flight client still got a complete, classified stream.
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("drained client %d: %v", i, r.err)
		}
		canceled := 0
		for _, rec := range r.recs {
			if rec.ErrClass == "canceled" {
				canceled++
			} else if rec.Err != "" {
				t.Errorf("drained client %d: unclassified error %q", i, rec.Err)
			}
		}
		if canceled == 0 {
			t.Errorf("drained client %d: no canceled records in %d", i, len(r.recs))
		}
	}

	// Admission stays off.
	e := decodeError(t, postSession(t, ts, `{"tenant":"late","program":"long main() { return 1; }","engines":["fixed"],"seed":1}`))
	if e.Code != CodeDraining {
		t.Fatalf("post-drain code %s, want draining", e.Code)
	}
}

// TestChaosNoGoroutineLeaks runs a burst of mixed traffic — clean
// sessions, faulted sessions, rejections, disconnects — and requires the
// goroutine count to settle back to baseline.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 2
		c.MaxQueued = 2
		c.QueueTimeout = 100 * time.Millisecond
	})
	client := ts.Client()

	// Warm up (http transport, pools) before the baseline.
	resp := postSession(t, ts, sessionBody(""))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var body string
			switch i % 4 {
			case 0:
				body = sessionBody("")
			case 1: // faulted
				body = fmt.Sprintf(`{"tenant":"leak%d","program":%q,"engines":["smokestack+aes-10"],"seed":3,"faults":{"entropy_period":1,"entropy_burst":1}}`, i, testSrc)
			case 2: // invalid
				body = `{"tenant":"leak","engines":["nope"]}`
			case 3: // disconnects mid-stream
				body = fmt.Sprintf(`{"tenant":"leak%d","program":%q,"engines":["fixed"],"seed":1,"runs":32,"deadline_ms":30000}`, i, chaosSpin)
			}
			r, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			if i%4 == 3 {
				br := bufio.NewReader(r.Body)
				br.ReadString('\n')
				r.Body.Close()
				return
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}(i)
	}
	wg.Wait()

	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if s.gate.active() == 0 && runtime.NumGoroutine() <= baseline+8 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: baseline %d, now %d (active sessions %d) — leak",
		baseline, runtime.NumGoroutine(), s.gate.active())
}
