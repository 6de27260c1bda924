// Tests for the observability layer: labeled metric families (cardinality
// bounds, Prometheus conformance, name-collision safety), span tracing and
// trace-tree folding (exact reconciliation through a JSON round-trip),
// hardened trace reading, and the security audit sink.
package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLabeledCounterSeries(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("srv.req", map[string]string{"tenant": "a"}).Add(2)
	r.CounterWith("srv.req", map[string]string{"tenant": "a"}).Inc()
	r.CounterWith("srv.req", map[string]string{"tenant": "b"}).Inc()

	snap := r.Snapshot()
	got := map[string]uint64{}
	for _, c := range snap.Counters {
		if c.Name == "srv.req" {
			got[c.Labels["tenant"]] = c.Value
		}
	}
	if got["a"] != 3 || got["b"] != 1 {
		t.Fatalf("labeled counters = %v, want a:3 b:1", got)
	}
	if n := r.LabelSeries("srv.req"); n != 2 {
		t.Fatalf("LabelSeries = %d, want 2", n)
	}
}

// TestLabelCardinalityBound floods a family with distinct label sets from
// many goroutines and verifies the live-series count stays at the cap,
// the overflow counter accounts for every shed series exactly, and no
// observation is lost (the catch-all absorbs them). Run under -race this
// also pins the locking discipline.
func TestLabelCardinalityBound(t *testing.T) {
	r := NewRegistry()
	const cap = 8
	r.SetLabelCap(cap)

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				labels := map[string]string{"tenant": fmt.Sprintf("t%d-%d", w, i)}
				r.CounterWith("flood.req", labels).Inc()
				r.HistogramWith("flood.wait", []float64{1, 10}, labels).Observe(0.5)
			}
		}(w)
	}
	wg.Wait()

	// cap distinct series plus the one catch-all.
	if n := r.LabelSeries("flood.req"); n > cap+1 {
		t.Fatalf("flood.req series = %d, want <= %d", n, cap+1)
	}
	if n := r.LabelSeries("flood.wait"); n > cap+1 {
		t.Fatalf("flood.wait series = %d, want <= %d", n, cap+1)
	}

	snap := r.Snapshot()
	var total, overflowSeries, overflowCount uint64
	for _, c := range snap.Counters {
		switch c.Name {
		case "flood.req":
			total += c.Value
			if c.Labels["overflow"] == "true" {
				overflowSeries = c.Value
			}
		case "flood.req.label_overflow":
			overflowCount = c.Value
		}
	}
	const emitted = workers * perWorker
	if total != emitted {
		t.Fatalf("total flood.req across series = %d, want %d (observations must fold, not drop)", total, emitted)
	}
	if overflowSeries == 0 || overflowCount == 0 {
		t.Fatalf("overflow series = %d, overflow counter = %d; both must be > 0 past the cap", overflowSeries, overflowCount)
	}
	// Everything past the cap distinct series went to the catch-all.
	if overflowSeries != emitted-cap {
		t.Fatalf("overflow series absorbed %d, want %d", overflowSeries, emitted-cap)
	}
	var histTotal uint64
	for _, h := range snap.Histograms {
		if h.Name == "flood.wait" {
			histTotal += h.Count
		}
	}
	if histTotal != emitted {
		t.Fatalf("total flood.wait observations = %d, want %d", histTotal, emitted)
	}
}

func TestSweepLabelsEvictsIdle(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	r.labelNow = func() time.Time { return now }

	r.CounterWith("srv.req", map[string]string{"tenant": "old"}).Inc()
	now = now.Add(time.Hour)
	r.CounterWith("srv.req", map[string]string{"tenant": "new"}).Inc()

	if dropped := r.SweepLabels(time.Hour); dropped != 1 {
		t.Fatalf("SweepLabels dropped %d, want 1", dropped)
	}
	if n := r.LabelSeries("srv.req"); n != 1 {
		t.Fatalf("series after sweep = %d, want 1", n)
	}
	// A swept family fully empties and disappears.
	now = now.Add(2 * time.Hour)
	if dropped := r.SweepLabels(time.Hour); dropped != 1 {
		t.Fatalf("second sweep dropped %d, want 1", dropped)
	}
	if n := r.LabelSeries("srv.req"); n != 0 {
		t.Fatalf("series after full sweep = %d, want 0", n)
	}
}

// TestPrometheusConformance pins the exposition grammar for labeled
// families: _bucket/_sum/_count histogram series with an explicit +Inf
// bucket, cumulative bucket counts, and label sets rendered with sorted
// keys and escaped values.
func TestPrometheusConformance(t *testing.T) {
	r := NewRegistry()
	labels := map[string]string{"tenant": "a", "outcome": "completed"}
	h := r.HistogramWith("srv.wall", []float64{1, 10}, labels)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	r.CounterWith("srv.req", map[string]string{"tenant": `quo"te`}).Inc()

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`smokestack_srv_wall_bucket{le="1",outcome="completed",tenant="a"} 1`,
		`smokestack_srv_wall_bucket{le="10",outcome="completed",tenant="a"} 2`,
		`smokestack_srv_wall_bucket{le="+Inf",outcome="completed",tenant="a"} 3`,
		`smokestack_srv_wall_sum{outcome="completed",tenant="a"} 105.5`,
		`smokestack_srv_wall_count{outcome="completed",tenant="a"} 3`,
		`smokestack_srv_req{tenant="quo\"te"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusNameCollision pins that two source names sanitizing to the
// same Prometheus name get distinct families instead of silently merging.
func TestPrometheusNameCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("srv.req").Add(1)
	r.Counter("srv/req").Add(2)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "smokestack_srv_req 1") {
		t.Fatalf("exposition missing first family:\n%s", out)
	}
	if !strings.Contains(out, "smokestack_srv_req_2 2") {
		t.Fatalf("exposition missing suffixed collision family:\n%s", out)
	}
}

// TestReadTraceTruncatedTail pins the hardened reader: a trace whose tail
// was cut mid-line (crashed writer, full disk, capped capture) yields
// every complete event plus a typed *TruncatedTraceError naming the bad
// line.
func TestReadTraceTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Event("cell.start", "e/a", nil)
	tr.Event("cell.end", "e/a", map[string]any{"records": 1.0})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := buf.String()

	// Cut the final line in half.
	cut := whole[:len(whole)-10]
	events, err := ReadTrace(strings.NewReader(cut))
	var terr *TruncatedTraceError
	if !errors.As(err, &terr) {
		t.Fatalf("ReadTrace(cut) err = %v, want *TruncatedTraceError", err)
	}
	if terr.Line != 2 {
		t.Fatalf("truncation reported at line %d, want 2", terr.Line)
	}
	if len(events) != 1 || events[0].Kind != "cell.start" {
		t.Fatalf("valid prefix = %+v, want the one complete event", events)
	}

	// Corruption in the middle: the prefix before the bad line survives.
	corrupt := strings.Replace(whole, `"kind":"cell.end"`, `"kind":cell.end"`, 1)
	events, err = ReadTrace(strings.NewReader(corrupt))
	if !errors.As(err, &terr) || len(events) != 1 {
		t.Fatalf("ReadTrace(corrupt) = %d events, err %v; want 1 event and a typed error", len(events), err)
	}

	// A clean trace reads fully with no error.
	events, err = ReadTrace(strings.NewReader(whole))
	if err != nil || len(events) != 2 {
		t.Fatalf("ReadTrace(whole) = %d events, err %v", len(events), err)
	}
}

func TestSpanIdentity(t *testing.T) {
	root := NewSpan("tr")
	if root.ID == "" || root.Trace != "tr" || root.Parent != "" {
		t.Fatalf("root span %+v", root)
	}
	c1 := root.Child("cell", "e/a")
	c2 := root.Child("cell", "e/a")
	if c1 != c2 {
		t.Fatalf("same path derived different spans: %+v vs %+v", c1, c2)
	}
	if c1.Parent != root.ID {
		t.Fatalf("child parent = %q, want %q", c1.Parent, root.ID)
	}
	if other := root.Child("cell", "e/b"); other.ID == c1.ID {
		t.Fatal("distinct paths collided")
	}
	// The zero span propagates: dormant call sites derive only zero spans.
	var zero Span
	if zero.Child("cell", "x") != (Span{}) {
		t.Fatal("zero span produced a real child")
	}
	if NewSpan("") != (Span{}) {
		t.Fatal("empty trace ID produced a real span")
	}
}

// TestSpanEventZeroSpanIsPlainEvent pins the dormancy mechanism: emitting
// through SpanEvent with a zero Span produces bytes identical to Event,
// so span-aware call sites need no dormant branch.
func TestSpanEventZeroSpanIsPlainEvent(t *testing.T) {
	emit := func(f func(tr *Tracer)) string {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		tr.now = func() int64 { return 42 }
		f(tr)
		tr.Flush()
		return buf.String()
	}
	plain := emit(func(tr *Tracer) { tr.Event("run.start", "e/a", map[string]any{"label": "x"}) })
	spanned := emit(func(tr *Tracer) { tr.SpanEvent("run.start", "e/a", Span{}, map[string]any{"label": "x"}) })
	if plain != spanned {
		t.Fatalf("zero-span SpanEvent differs from Event:\n%q\nvs\n%q", spanned, plain)
	}
	if strings.Contains(plain, "span") || strings.Contains(plain, "trace") {
		t.Fatalf("plain event leaked span fields: %q", plain)
	}
}

// buildSpanTrace emits a two-cell span-mode trace with known exact rows
// and returns the serialized JSONL.
func buildSpanTrace(t *testing.T) (string, map[string]float64) {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := NewSpan("t1")
	tr.SpanEvent("session.start", "", root, nil)

	wantCells := map[string]float64{}
	for _, cell := range []string{"session/a", "session/b"} {
		cellSpan := root.Child("cell", cell)
		tr.SpanEvent("cell.start", cell, cellSpan, nil)
		var cellTotal float64
		for run := 0; run < 2; run++ {
			runSpan := cellSpan.Child("run", fmt.Sprint(run+1), cell)
			tr.SpanEvent("run.start", cell, runSpan, nil)
			rows := []Row{
				{Kind: "op", Name: "add", Count: 10, Cycles: GridRound(10.25)},
				{Kind: "op", Name: "call", Count: 3, Cycles: GridRound(7.75)},
			}
			var sum float64
			for _, r := range rows {
				sum += r.Cycles
			}
			cellTotal += sum
			tr.SpanEvent("run.end", cell, runSpan, map[string]any{
				"rows": rows, "total_cycles": sum,
			})
		}
		wantCells[cell] = cellTotal
		tr.SpanEvent("cell.end", cell, cellSpan, nil)
	}
	tr.SpanEvent("session.end", "", root, nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String(), wantCells
}

// TestFoldTraceRoundTrip folds a serialized span trace back through JSON
// — the exact path benchjson -tracetree and the server selftest exercise —
// and verifies structure, ordering, exact reconciliation and cell totals.
func TestFoldTraceRoundTrip(t *testing.T) {
	raw, wantCells := buildSpanTrace(t)
	events, err := ReadTrace(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	tree := FoldTrace(events)
	if len(tree.Roots) != 1 || len(tree.Unspanned) != 0 {
		t.Fatalf("roots=%d unspanned=%d, want 1/0", len(tree.Roots), len(tree.Unspanned))
	}
	root := tree.Roots[0]
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 cells", len(root.Children))
	}
	if err := tree.Reconcile(); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	got := tree.CellTotals()
	for cell, want := range wantCells {
		if got[cell] != want {
			t.Fatalf("cell %s total %v != want %v (must be exact)", cell, got[cell], want)
		}
	}
	// The root's rolled-up total is the exact sum of both cells.
	var want float64
	for _, v := range wantCells {
		want += v
	}
	if total := root.TotalCycles(); total != want {
		t.Fatalf("root TotalCycles %v != %v", total, want)
	}
	// Children are ordered by cell.
	if root.Children[0].Cell != "session/a" || root.Children[1].Cell != "session/b" {
		t.Fatalf("child order: %s, %s", root.Children[0].Cell, root.Children[1].Cell)
	}

	var buf bytes.Buffer
	if err := tree.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"session.start", "cell=session/a", "cell=session/b"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("tree rendering missing %q:\n%s", want, buf.String())
		}
	}
}

// TestFoldTraceIgnoresInterleaving folds one event set under two
// interleavings of its emitters, as concurrent cells produce them: each
// emitter's own events keep their order, but the sequence numbers differ,
// and so does which sibling span emits first. The rendered trees must be
// byte-identical.
func TestFoldTraceIgnoresInterleaving(t *testing.T) {
	root := NewSpan("t1")
	compile := root.Child("compile")
	// One emitter per cell; the shared compile span gets one event per
	// cell, emitted before every cell or after them all.
	var emitters [][]Event
	var compiles []Event
	for _, cell := range []string{"e/a", "e/b", "e/c"} {
		cs := root.Child("cell", cell)
		evs := []Event{{Kind: "cell.start", Cell: cell, Trace: cs.Trace, Span: cs.ID, Parent: cs.Parent}}
		for run := 1; run <= 2; run++ {
			rs := cs.Child("run", fmt.Sprint(run), cell)
			rows := []Row{{Kind: "op", Name: "add", Count: uint64(run), Cycles: GridRound(float64(run) * 1.5)}}
			evs = append(evs,
				Event{Kind: "run.start", Cell: cell, Trace: rs.Trace, Span: rs.ID, Parent: rs.Parent},
				Event{Kind: "run.end", Cell: cell, Trace: rs.Trace, Span: rs.ID, Parent: rs.Parent,
					Fields: map[string]any{"rows": rows, "total_cycles": rows[0].Cycles}})
		}
		evs = append(evs, Event{Kind: "cell.end", Cell: cell, Trace: cs.Trace, Span: cs.ID, Parent: cs.Parent})
		emitters = append(emitters, evs)
		compiles = append(compiles, Event{Kind: "compile", Trace: compile.Trace, Span: compile.ID,
			Parent: compile.Parent, Fields: map[string]any{"prog": cell}})
	}
	fold := func(order []int, compileFirst bool) string {
		var evs []Event
		if compileFirst {
			evs = append(evs, compiles...)
		}
		for _, i := range order {
			evs = append(evs, emitters[i]...)
		}
		if !compileFirst {
			evs = append(evs, compiles...)
		}
		for i := range evs {
			evs[i].Seq = uint64(i + 1)
		}
		var buf bytes.Buffer
		if err := FoldTrace(evs).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first, second := fold([]int{0, 1, 2}, true), fold([]int{2, 0, 1}, false)
	if first != second {
		t.Fatalf("fold depends on emission order:\n%s\nvs\n%s", first, second)
	}
}

// TestReconcileDetectsMismatch corrupts one run.end total and expects
// Reconcile to name it.
func TestReconcileDetectsMismatch(t *testing.T) {
	raw, _ := buildSpanTrace(t)
	corrupt := strings.Replace(raw, `"total_cycles":18`, `"total_cycles":19`, 1)
	if corrupt == raw {
		t.Fatal("corruption did not apply; row sum layout changed")
	}
	events, err := ReadTrace(strings.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if err := FoldTrace(events).Reconcile(); err == nil {
		t.Fatal("Reconcile accepted a corrupted total")
	}
}

// refMergeRows is the map-and-resort MergeRows that the binary-search
// version replaced, kept as its reference.
func refMergeRows(a, b []Row) []Row {
	type key struct{ kind, name string }
	idx := make(map[key]int, len(a))
	for i, r := range a {
		idx[key{r.Kind, r.Name}] = i
	}
	for _, r := range b {
		k := key{r.Kind, r.Name}
		if i, ok := idx[k]; ok {
			a[i].Count += r.Count
			a[i].Cycles += r.Cycles
		} else {
			idx[k] = len(a)
			a = append(a, r)
		}
	}
	sort.Slice(a, func(i, j int) bool {
		if a[i].Kind != a[j].Kind {
			return a[i].Kind < a[j].Kind
		}
		return a[i].Name < a[j].Name
	})
	return a
}

// TestMergeRowsMatchesReference accumulates seeded row batches — unsorted,
// with repeated keys, some all-known and some empty — through MergeRows
// and the reference, and requires identical rows after every batch,
// cycles compared with ==. Cycles are arbitrary floats, not grid
// multiples, so any change in the order of additions would show.
func TestMergeRowsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(0x7e1e))
	kinds := []string{"cat", "op"}
	names := []string{"add", "alu", "call", "load", "mem", "store", "z"}
	for seq := 0; seq < 50; seq++ {
		var got, want []Row
		for batch := 0; batch < 40; batch++ {
			b := make([]Row, r.Intn(12))
			for i := range b {
				b[i] = Row{
					Kind:   kinds[r.Intn(len(kinds))],
					Name:   names[r.Intn(len(names))],
					Count:  uint64(r.Intn(100)),
					Cycles: r.Float64() * 1e3,
				}
			}
			got = MergeRows(got, append([]Row(nil), b...))
			want = refMergeRows(want, append([]Row(nil), b...))
			if len(got) != len(want) {
				t.Fatalf("seq %d batch %d: %d rows, reference %d", seq, batch, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seq %d batch %d row %d: %+v, reference %+v", seq, batch, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMergeRowsExact(t *testing.T) {
	a := []Row{{Kind: "op", Name: "add", Count: 1, Cycles: GridRound(1.1)}}
	b := []Row{
		{Kind: "op", Name: "add", Count: 2, Cycles: GridRound(2.2)},
		{Kind: "cat", Name: "alu", Count: 3, Cycles: GridRound(3.3)},
	}
	m := MergeRows(a, b)
	if len(m) != 2 {
		t.Fatalf("merged %d rows, want 2", len(m))
	}
	// Sorted by (kind, name): cat/alu first.
	if m[0].Kind != "cat" || m[1].Count != 3 {
		t.Fatalf("merge order/fold wrong: %+v", m)
	}
	if want := GridRound(1.1) + GridRound(2.2); m[1].Cycles != want {
		t.Fatalf("merged cycles %v != %v", m[1].Cycles, want)
	}
}

func TestAuditSink(t *testing.T) {
	var buf bytes.Buffer
	a := NewAuditSink(&buf)
	a.now = func() int64 { return 7 }
	var teed []AuditEvent
	a.OnEvent(func(e AuditEvent) { teed = append(teed, e) })

	a.Emit(AuditEvent{Kind: "canary", Tenant: "t1", Engine: "stackato", Seed: 9, Func: "smash", Slot: "canary", Addr: 0x1000})
	a.Emit(AuditEvent{Kind: "shadowstack", Tenant: "t2", Engine: "shadowstack", Seed: 10})
	a.Emit(AuditEvent{Kind: "canary", Tenant: "t1", Engine: "stackato", Seed: 11})
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	if got := a.Counts(); got["canary"] != 2 || got["shadowstack"] != 1 {
		t.Fatalf("counts = %v", got)
	}
	if a.Total() != 3 {
		t.Fatalf("total = %d, want 3", a.Total())
	}
	if len(teed) != 3 || teed[0].Seq != 1 || teed[2].Seq != 3 {
		t.Fatalf("tee saw %+v", teed)
	}

	events, err := ReadAudit(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[0].Addr != 0x1000 || events[0].Slot != "canary" || events[0].TimeNS != 7 {
		t.Fatalf("readback = %+v", events)
	}

	// Truncated tail: valid prefix plus typed error, like ReadTrace.
	var buf2 bytes.Buffer
	b := NewAuditSink(&buf2)
	b.Emit(AuditEvent{Kind: "guard"})
	b.Emit(AuditEvent{Kind: "guard"})
	b.Flush()
	cut := buf2.String()[:buf2.Len()-5]
	events, err = ReadAudit(strings.NewReader(cut))
	var terr *TruncatedTraceError
	if !errors.As(err, &terr) || len(events) != 1 {
		t.Fatalf("truncated audit readback: %d events, err %v", len(events), err)
	}
}

// TestAuditSinkDormant pins the two dormant shapes: a nil sink no-ops
// entirely, and a nil-writer sink counts and tees without serializing.
func TestAuditSinkDormant(t *testing.T) {
	var nilSink *AuditSink
	nilSink.Emit(AuditEvent{Kind: "canary"})
	nilSink.OnEvent(func(AuditEvent) {})
	if nilSink.Total() != 0 || nilSink.Counts() != nil || nilSink.Flush() != nil {
		t.Fatal("nil sink must no-op")
	}

	countOnly := NewAuditSink(nil)
	teed := 0
	countOnly.OnEvent(func(AuditEvent) { teed++ })
	countOnly.Emit(AuditEvent{Kind: "canary"})
	if countOnly.Total() != 1 || countOnly.Counts()["canary"] != 1 || teed != 1 {
		t.Fatalf("count-only sink: total=%d counts=%v teed=%d", countOnly.Total(), countOnly.Counts(), teed)
	}
	if err := countOnly.Flush(); err != nil {
		t.Fatalf("count-only flush: %v", err)
	}
}
