// Structured run tracing: a Tracer serializes timestamped events as one
// JSON object per line (JSONL). Events carry a global monotonic sequence
// number so a reader can replay the whole run — or any one cell's slice of
// it — in exact emission order even when cells ran concurrently.
//
// Span mode layers a trace/span ID hierarchy on top (trace root → cell →
// run): callers that thread a Span through SpanEvent get
// events that fold into a per-session tree (FoldTrace), while plain Event
// callers keep emitting byte-identical records — the span fields are
// omitempty and a zero Span adds nothing.
package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"
	"time"
)

// Event is one trace record. Kind is dot-namespaced (cell.start, cell.end,
// compile, run.start, run.end, fault.entropy, fault.hostdelay,
// fault.hostfail, watchdog.cancel, rng.ladder, session.start,
// session.end); Cell scopes the event to an experiment cell
// when one is in scope. Trace/Span/Parent are set only in span mode: Span
// identifies the span the event belongs to and Parent that span's parent,
// denormalized per event so a trace folds into a tree without external
// state.
type Event struct {
	Seq    uint64         `json:"seq"`
	TimeNS int64          `json:"time_ns"` // wall clock, UnixNano
	Kind   string         `json:"kind"`
	Cell   string         `json:"cell,omitempty"`
	Trace  string         `json:"trace,omitempty"`
	Span   string         `json:"span,omitempty"`
	Parent string         `json:"parent,omitempty"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Span names one node of a trace's span tree. IDs are deterministic
// hashes of the path from the trace root, so independent emitters (the
// runner hooks, the per-cell observation context) derive identical IDs
// for the same logical span without coordination. The zero Span is "no
// span": SpanEvent with it behaves exactly like Event.
type Span struct {
	Trace  string
	ID     string
	Parent string
}

// NewSpan returns the root span of a trace.
func NewSpan(trace string) Span {
	if trace == "" {
		return Span{}
	}
	return Span{Trace: trace, ID: spanID(trace)}
}

// Child derives a deterministic child span from the path parts.
func (s Span) Child(parts ...string) Span {
	if s.ID == "" {
		return Span{}
	}
	return Span{Trace: s.Trace, ID: spanID(s.ID + "/" + strings.Join(parts, "/")), Parent: s.ID}
}

// spanID hashes a span path to a compact stable identifier.
func spanID(path string) string {
	h := fnv.New64a()
	h.Write([]byte(path))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Tracer writes events as JSONL. All methods are safe for concurrent use
// and no-op on a nil receiver, so dormant call sites need no guards. The
// sequence counter is global across all cells: sorting a trace by seq
// reproduces emission order exactly.
type Tracer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	seq uint64
	err error
	now func() int64
}

// NewTracer creates a tracer writing to w. Call Flush before discarding.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{bw: bw, enc: json.NewEncoder(bw), now: func() int64 { return time.Now().UnixNano() }}
}

// Event emits one record. fields may be nil.
func (t *Tracer) Event(kind, cell string, fields map[string]any) {
	t.SpanEvent(kind, cell, Span{}, fields)
}

// SpanEvent emits one record scoped to a span. A zero Span degrades to a
// plain Event — span-aware call sites need no dormant guard.
func (t *Tracer) SpanEvent(kind, cell string, sp Span, fields map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.seq++
	t.err = t.enc.Encode(Event{
		Seq: t.seq, TimeNS: t.now(), Kind: kind, Cell: cell,
		Trace: sp.Trace, Span: sp.ID, Parent: sp.Parent,
		Fields: fields,
	})
}

// Flush drains buffered events and returns the first error encountered
// while encoding or writing.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}

// TruncatedTraceError reports a trace whose tail was cut or corrupted
// (crashed writer, full disk, capped capture buffer). ReadTrace returns it
// alongside the valid prefix so post-mortem tooling keeps everything that
// survived.
type TruncatedTraceError struct {
	Line int // 1-based line number of the first bad line
	Err  error
}

func (e *TruncatedTraceError) Error() string {
	return fmt.Sprintf("telemetry: trace truncated or corrupt at line %d: %v", e.Line, e.Err)
}

func (e *TruncatedTraceError) Unwrap() error { return e.Err }

// ReadTrace parses a JSONL trace written by a Tracer. A malformed line —
// typically a partial tail after a crash — terminates the parse with the
// valid prefix and a *TruncatedTraceError instead of failing outright;
// every event before the bad line is returned.
func ReadTrace(r io.Reader) ([]Event, error) {
	var events []Event
	br := bufio.NewReader(r)
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		if len(raw) > 0 {
			line++
			if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 {
				var e Event
				if jerr := json.Unmarshal(trimmed, &e); jerr != nil {
					return events, &TruncatedTraceError{Line: line, Err: jerr}
				}
				events = append(events, e)
			}
		}
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, &TruncatedTraceError{Line: line + 1, Err: err}
		}
	}
}
