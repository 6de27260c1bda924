package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
)

// loopback is an in-process smokestackd (internal/server) behind a
// loopback HTTP listener, plus the client the load generator uses.
type loopback struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	// keepRaw keeps every session's streamed bytes (the traced run compares
	// them with its replay), not only the byte-identity samples'.
	keepRaw bool
}

// startServer builds the server with admission limits that never bind:
// the benchmark measures execution, not refusal policy. Execution slots
// keep the server default (MaxConcurrent = GOMAXPROCS).
func startServer() (*loopback, error) {
	srv := server.New(server.Config{
		RatePerSec:           1e9,
		Burst:                1e9,
		MaxSessionsPerTenant: 1 << 20,
		QueueTimeout:         time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/v1/sessions",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}},
		served: make(chan error, 1),
	}
	go func() { lb.served <- lb.hs.Serve(ln) }()
	return lb, nil
}

// close stops the listener, waits for the serve loop to return and
// releases the server. A nil loopback (grid) has nothing to close.
func (lb *loopback) close() error {
	if lb == nil {
		return nil
	}
	lb.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := lb.hs.Shutdown(ctx)
	if serr := <-lb.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	lb.srv.Close()
	return err
}

// opResult is one completed session as the client saw it.
type opResult struct {
	op *op
	// latMS runs from sending the request to reading the last record;
	// firstMS to reading the first.
	latMS, firstMS float64
	records        int
	// failure is a non-200 response, an in-band error line, a record with
	// err, or a truncated stream ("" = none); mismatch is a record whose
	// value differs from the reference.
	failure, mismatch string
	// raw keeps the streamed bytes of byte-identity samples (of every
	// session with keepRaw).
	raw []byte
}

// streamRecord is the part of a streamed line the client checks.
type streamRecord struct {
	Code   string             `json:"code"` // set only on in-band error lines
	Err    string             `json:"err"`
	Values map[string]float64 `json:"values"`
}

// session sends one op and reads its NDJSON stream. buf is the client's
// reusable read buffer.
func (lb *loopback) session(o *op, buf *bytes.Buffer) opResult {
	res := opResult{op: o}
	body := o.body()
	start := time.Now()
	resp, err := lb.client.Post(lb.url, "application/json", bytes.NewReader(body))
	if err != nil {
		res.failure = err.Error()
		return res
	}
	defer resp.Body.Close()
	buf.Reset()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var readErr error
	for {
		line, err := br.ReadSlice('\n')
		buf.Write(line)
		if len(line) > 0 && res.firstMS == 0 && line[len(line)-1] == '\n' {
			res.firstMS = ms(time.Since(start))
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
	}
	res.latMS = ms(time.Since(start))
	if o.sample || lb.keepRaw {
		res.raw = append([]byte(nil), buf.Bytes()...)
	}
	want := o.spec.Runs
	if want <= 0 {
		want = 1
	}
	want *= len(o.spec.Engines)
	res.check(resp.StatusCode, buf.Bytes(), readErr, want)
	return res
}

// check classifies a finished stream: failures first, then reference
// mismatches of otherwise healthy records.
func (res *opResult) check(status int, body []byte, readErr error, want int) {
	if status != http.StatusOK {
		res.failure = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
		return
	}
	if readErr != nil {
		res.failure = "read: " + readErr.Error()
		return
	}
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			res.failure = "truncated stream: last line has no newline"
			return
		}
		var rec streamRecord
		if err := json.Unmarshal(body[:i], &rec); err != nil {
			res.failure = fmt.Sprintf("record %d: %v", res.records, err)
			return
		}
		body = body[i+1:]
		switch {
		case rec.Code != "":
			res.failure = fmt.Sprintf("in-band error line %q", rec.Code)
			return
		case rec.Err != "":
			res.failure = fmt.Sprintf("record %d: %s", res.records, rec.Err)
			return
		case int64(rec.Values["value"]) != res.op.want && res.mismatch == "":
			res.mismatch = fmt.Sprintf("op %d record %d: value %d, want %d",
				res.op.idx, res.records, int64(rec.Values["value"]), res.op.want)
		}
		res.records++
	}
	if res.records != want {
		res.failure = fmt.Sprintf("truncated stream: %d of %d records", res.records, want)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop drives ops through the server from one client, which sends
// its next session only after the previous stream ended. It takes ops in
// stream order and starts none after d has elapsed (or the stream ran
// out); the window closes when the last session ends.
//
// One client leaves the second CPU of a 2-vCPU host to the server's HTTP
// handler, the client's stream reads and the garbage collector. With one
// client per CPU, both CPUs run VM loops, and a record waits for the Go
// scheduler to preempt one of them before it is written or read: the
// cells workload's first record then took about 7 ms instead of 0.9 ms.
func (lb *loopback) closedLoop(ops []op, d time.Duration) (res []opResult, window time.Duration, exhausted bool) {
	var buf bytes.Buffer
	start := time.Now()
	for time.Since(start) < d {
		if len(res) == len(ops) {
			return res, time.Since(start), true
		}
		res = append(res, lb.session(&ops[len(res)], &buf))
	}
	return res, time.Since(start), false
}
