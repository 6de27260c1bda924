// Package telemetry is the observability layer for the Smokestack
// reproduction: a process-wide metric Registry (counters, gauges,
// histograms, per-cell cycle-attribution profiles), a point-in-time
// Snapshot with JSON and Prometheus-style text expositions, and a
// structured JSONL run Tracer (trace.go).
//
// The design contract, mirroring the hot-path discipline of the execution
// tiers, is zero-cost-when-dormant: nothing in this package is ever called
// from a VM dispatch loop. The VM accumulates plain per-Machine counters
// behind a nil-guarded profile pointer (internal/vm/profile.go) and flushes
// them at run exit; the experiment harness then folds those flushed
// profiles, cache statistics and rng health counters into a Registry. With
// no Registry attached the only residue in the hot paths is a never-taken
// branch per cost site, and modeled results are bit-identical (the
// invariance goldens enforce this).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically-increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram: bounds are inclusive upper bounds
// in ascending order, with an implicit +Inf overflow bucket.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	sum    float64
	n      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
}

// HistogramSnap is the serialized form of a Histogram. Labels is set only
// for labeled series (HistogramWith); unlabeled snapshots serialize
// exactly as before.
type HistogramSnap struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []BucketSnap      `json:"buckets"`
}

// BucketSnap is one cumulative histogram bucket; LE is +Inf for the
// overflow bucket (serialized as the string "+Inf").
type BucketSnap struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"` // cumulative
}

func (h *Histogram) snap(name string) HistogramSnap {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnap{Name: name, Count: h.n, Sum: h.sum}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		s.Buckets = append(s.Buckets, BucketSnap{LE: le, Count: cum})
	}
	return s
}

// Row is one cycle-attribution bucket of a cell profile: an opcode class
// or an instrumentation category (fused-superinstruction dispatch counts
// live in Cell counters — their cycles are already charged to their
// constituent opcode rows). Cycles is grid-rounded (GridRound) so that the
// sum of a cell's rows is exact and order-independent in float64.
type Row struct {
	Kind   string  `json:"kind"` // "op" | "cat"
	Name   string  `json:"name"`
	Count  uint64  `json:"count"`
	Cycles float64 `json:"cycles"`
}

// Cell accumulates per-cell observations: the cycle-attribution profile
// flushed from the VM, rng health counters, VM-internal counters (segment
// cache, frame pool), and runner timing. One Cell is written by one
// experiment cell; the mutex makes cross-cell aggregation safe anyway.
type Cell struct {
	mu       sync.Mutex
	wall     float64
	rows     []Row
	rng      map[string]uint64
	counters map[string]uint64
}

// AddRows merges attribution rows (already grid-rounded by the producer)
// into the cell's rows, so a long-lived cell holds one row per (kind,
// name) however many runs flush into it.
func (c *Cell) AddRows(rows []Row) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows = MergeRows(c.rows, rows)
}

// AddCounter accumulates a named per-cell counter.
func (c *Cell) AddCounter(name string, n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counters == nil {
		c.counters = make(map[string]uint64)
	}
	c.counters[name] += n
}

// SetRNG records the cell's rng health counters (satellite: rng.Health is
// exported through the snapshot).
func (c *Cell) SetRNG(h map[string]uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rng = h
}

// Timing records the cell's runner wall time.
func (c *Cell) Timing(wallSeconds float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wall += wallSeconds
}

// CellSnap is the serialized form of a Cell. TotalCycles is *defined* as
// the sum of Rows[].Cycles: each row is grid-rounded to a multiple of 2^-20
// cycles, so the sum is exactly representable and any checker re-summing
// the rows in any order reproduces TotalCycles bit-for-bit. (It agrees with
// the VM's windowed Stats.Cycles accumulator to ~1e-9 relative error; the
// two cannot be bit-equal because float addition is non-associative across
// the flush windows. TestProfileReconciliation pins the bound.)
type CellSnap struct {
	Name        string            `json:"name"`
	WallSeconds float64           `json:"wall_seconds,omitempty"`
	TotalCycles float64           `json:"total_cycles"`
	Rows        []Row             `json:"rows,omitempty"`
	RNG         map[string]uint64 `json:"rng,omitempty"`
	Counters    map[string]uint64 `json:"counters,omitempty"`
}

func (c *Cell) snap(name string) CellSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CellSnap{Name: name, WallSeconds: c.wall}
	// AddRows keeps the rows merged and ordered; snapshot a copy.
	s.Rows = append([]Row(nil), c.rows...)
	for _, r := range s.Rows {
		s.TotalCycles += r.Cycles
	}
	if c.rng != nil {
		s.RNG = make(map[string]uint64, len(c.rng))
		for k, v := range c.rng {
			s.RNG[k] = v
		}
	}
	if c.counters != nil {
		s.Counters = make(map[string]uint64, len(c.counters))
		for k, v := range c.counters {
			s.Counters[k] = v
		}
	}
	return s
}

// Registry is the process-wide metric sink. All methods are safe for
// concurrent use; metric objects are created on first reference and live
// for the registry's lifetime. A nil *Registry is a valid dormant sink:
// every method no-ops or returns nil, and the nil objects it hands out
// (Counter, Histogram, Cell) no-op too, so call sites need no guards.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]func() float64
	hists     map[string]*Histogram
	histBound map[string][]float64
	cells     map[string]*Cell
	labeled   map[string]*family
	labelCap  int
	labelNow  func() time.Time // test clock for the label sweep
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]func() float64),
		hists:     make(map[string]*Histogram),
		histBound: make(map[string][]float64),
		cells:     make(map[string]*Cell),
		labeled:   make(map[string]*family),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// SetGauge registers a gauge sampled at snapshot time. Re-registering a
// name replaces the callback (callers register idempotently per run).
func (r *Registry) SetGauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// inclusive upper bounds on first use (later bounds are ignored).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.hists[name] = h
		r.histBound[name] = b
	}
	return h
}

// Cell returns the named per-cell profile, creating it on first use.
func (r *Registry) Cell(name string) *Cell {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.cells[name]
	if !ok {
		c = &Cell{}
		r.cells[name] = c
	}
	return c
}

// Snapshot is a point-in-time materialization of a Registry: plain data,
// JSON-serializable, deterministically ordered.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
	Cells      []CellSnap      `json:"cells,omitempty"`
}

// CounterSnap is one serialized counter. Labels is set only for labeled
// series (CounterWith).
type CounterSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugeSnap is one serialized gauge sample.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot materializes the registry. Gauge callbacks run outside the
// registry lock (they may themselves take cache locks).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	type gauge struct {
		name string
		fn   func() float64
	}
	var gauges []gauge
	for name, fn := range r.gauges {
		gauges = append(gauges, gauge{name, fn})
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	type hist struct {
		name string
		h    *Histogram
	}
	var hists []hist
	for name, h := range r.hists {
		hists = append(hists, hist{name, h})
	}
	type cell struct {
		name string
		c    *Cell
	}
	var cells []cell
	for name, c := range r.cells {
		cells = append(cells, cell{name, c})
	}
	type labeledHist struct {
		name   string
		labels map[string]string
		h      *Histogram
	}
	var lhists []labeledHist
	for name, fam := range r.labeled {
		for _, e := range fam.entries {
			if e.counter != nil {
				s.Counters = append(s.Counters, CounterSnap{
					Name: name, Labels: copyLabels(e.labels), Value: e.counter.Value(),
				})
			}
			if e.hist != nil {
				lhists = append(lhists, labeledHist{name, copyLabels(e.labels), e.hist})
			}
		}
	}
	r.mu.Unlock()

	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Value: g.fn()})
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.h.snap(h.name))
	}
	for _, lh := range lhists {
		hs := lh.h.snap(lh.name)
		hs.Labels = lh.labels
		s.Histograms = append(s.Histograms, hs)
	}
	for _, c := range cells {
		s.Cells = append(s.Cells, c.c.snap(c.name))
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		if s.Counters[i].Name != s.Counters[j].Name {
			return s.Counters[i].Name < s.Counters[j].Name
		}
		return encodeLabels(s.Counters[i].Labels) < encodeLabels(s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool {
		if s.Histograms[i].Name != s.Histograms[j].Name {
			return s.Histograms[i].Name < s.Histograms[j].Name
		}
		return encodeLabels(s.Histograms[i].Labels) < encodeLabels(s.Histograms[j].Labels)
	})
	sort.Slice(s.Cells, func(i, j int) bool { return s.Cells[i].Name < s.Cells[j].Name })
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot previously written with WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	err := json.NewDecoder(r).Decode(&s)
	return s, err
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (metric names prefixed smokestack_, label-qualified per-cell and
// labeled-family series). Histograms are conformant: cumulative _bucket
// series with an explicit +Inf bucket, plus _sum and _count (the +Inf
// bucket equals _count by construction). Dotted source names that sanitize
// to the same Prometheus name are disambiguated with a stable numeric
// suffix instead of silently merging (promNames).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := &errWriter{w: w}
	names := s.promNames()
	lastType := ""
	for _, c := range s.Counters {
		n := names[c.Name]
		if n != lastType {
			fmt.Fprintf(bw, "# TYPE %s counter\n", n)
			lastType = n
		}
		fmt.Fprintf(bw, "%s%s %d\n", n, promLabels(c.Labels), c.Value)
	}
	for _, g := range s.Gauges {
		n := names[g.Name]
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", n, n, formatFloat(g.Value))
	}
	lastType = ""
	for _, h := range s.Histograms {
		n := names[h.Name]
		if n != lastType {
			fmt.Fprintf(bw, "# TYPE %s histogram\n", n)
			lastType = n
		}
		ls := promLabels(h.Labels)
		for _, b := range h.Buckets {
			fmt.Fprintf(bw, "%s_bucket%s %d\n", n, promBucketLabels(h.Labels, b.LE), b.Count)
		}
		fmt.Fprintf(bw, "%s_sum%s %s\n%s_count%s %d\n", n, ls, formatFloat(h.Sum), n, ls, h.Count)
	}
	if len(s.Cells) > 0 {
		fmt.Fprintf(bw, "# TYPE smokestack_cell_cycles gauge\n")
		fmt.Fprintf(bw, "# TYPE smokestack_cell_executions gauge\n")
		for _, c := range s.Cells {
			for _, r := range c.Rows {
				fmt.Fprintf(bw, "smokestack_cell_cycles{cell=%q,kind=%q,name=%q} %s\n",
					c.Name, r.Kind, r.Name, formatFloat(r.Cycles))
				fmt.Fprintf(bw, "smokestack_cell_executions{cell=%q,kind=%q,name=%q} %d\n",
					c.Name, r.Kind, r.Name, r.Count)
			}
		}
		fmt.Fprintf(bw, "# TYPE smokestack_cell_total_cycles gauge\n")
		for _, c := range s.Cells {
			fmt.Fprintf(bw, "smokestack_cell_total_cycles{cell=%q} %s\n", c.Name, formatFloat(c.TotalCycles))
		}
		for _, c := range s.Cells {
			for _, k := range sortedKeys(c.RNG) {
				fmt.Fprintf(bw, "smokestack_cell_rng{cell=%q,counter=%q} %d\n", c.Name, k, c.RNG[k])
			}
			for _, k := range sortedKeys(c.Counters) {
				fmt.Fprintf(bw, "smokestack_cell_counter{cell=%q,counter=%q} %d\n", c.Name, k, c.Counters[k])
			}
		}
	}
	return bw.err
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promName maps a dotted metric name to a Prometheus-legal one. The
// mapping is lossy (every illegal rune becomes '_'), so distinct source
// names can collide; use promNames over a whole snapshot for a
// collision-free assignment.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("smokestack_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promNames assigns each distinct source metric name in the snapshot a
// unique Prometheus name: the plain promName sanitization when it is free,
// else a deterministic _2/_3/... suffix in sorted source-name order — two
// dotted names that sanitize identically (e.g. "a.b_c" and "a_b.c") can
// never silently merge into one series.
func (s Snapshot) promNames() map[string]string {
	seen := make(map[string]struct{})
	for _, c := range s.Counters {
		seen[c.Name] = struct{}{}
	}
	for _, g := range s.Gauges {
		seen[g.Name] = struct{}{}
	}
	for _, h := range s.Histograms {
		seen[h.Name] = struct{}{}
	}
	srcs := make([]string, 0, len(seen))
	for name := range seen {
		srcs = append(srcs, name)
	}
	sort.Strings(srcs)
	out := make(map[string]string, len(srcs))
	used := make(map[string]bool, len(srcs))
	for _, src := range srcs {
		n := promName(src)
		if used[n] {
			for i := 2; ; i++ {
				cand := fmt.Sprintf("%s_%d", n, i)
				if !used[cand] {
					n = cand
					break
				}
			}
		}
		used[n] = true
		out[src] = n
	}
	return out
}

// promLabels renders a label set as {k="v",...} with sorted keys ("" when
// empty).
func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// promBucketLabels renders a histogram bucket's label set: le first, then
// the series labels.
func promBucketLabels(labels map[string]string, le string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{le=%q", le)
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, ",%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// GridRound rounds v to the nearest multiple of 2^-20. Cycle-attribution
// rows are emitted on this grid: every row value has at most 20 fractional
// bits, so sums of rows incur no rounding whatsoever (until ~2^33 cycles
// per bucket, far above any modeled run) and TotalCycles — defined as the
// sum of a cell's rows — is exact and independent of summation order.
func GridRound(v float64) float64 {
	return math.Ldexp(math.Round(math.Ldexp(v, 20)), -20)
}

// formatFloat renders a float compactly without losing precision.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// errWriter latches the first write error so expositions can be emitted
// with plain Fprintf calls.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
