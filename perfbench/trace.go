package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; probe
// spans, which time a layer outside any op, have Op -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = none
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Label qualifies a span: the experiment of a grid op, "miss" on a
	// plan build, "profiled" or "dormant" on a VM run.
	Label string `json:"label,omitempty"`
	// Count is a span's work: simulated instructions of a VM run, IR
	// instructions of a compile.
	Count uint64 `json:"count,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; write saves them as JSONL at exit.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, applying edit (which may rename or label it).
func (t *tracer) end(id int, edit func(*span)) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if edit != nil {
		edit(s)
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps span names to the repository layer (module) they time;
// "" marks an op's root span, whose self time is unattributed.
var layerOf = map[string]string{
	"op":             "",
	"compile":        "compile",
	"vm.lower":       "vm.lower",
	"vm.mine":        "vm.mine",
	"vm.new":         "vm.new",
	"vm.reset":       "vm.reset",
	"vm.release":     "vm.reset",
	"vm.run":         "vm.run",
	"vm.run.twin":    "vm.run",
	"layout.plan":    "layout",
	"harness.engine": "harness",
	"telemetry":      "telemetry",
	"exp.encode":     "exp",
	"attack.attempt": "attack",
}

// folded is a trace folded into per-op self times.
type folded struct {
	// opMS is each op's duration; layerMS[layer][i] the self time of the
	// layer's spans within op i; unattributedMS[i] the op span's own self
	// time (covered by no layer span).
	opIDs          []int
	opMS           []float64
	opLabel        []string
	layerMS        map[string][]float64
	unattributedMS []float64
	// selfMS lists every span's self time by span name, probe spans
	// included.
	selfMS map[string][]float64
}

// fold checks the trace's structure and folds it. Every child span must
// lie within its parent and belong to its op, and a span's children may
// not add up to more than the span; a trace breaking either is rejected.
// A span's self time is its duration minus its children's durations.
func fold(spans []span) (*folded, error) {
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if _, ok := layerOf[s.Name]; !ok {
			return nil, fmt.Errorf("span %d has unknown name %q", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	childMS := make(map[int]float64)
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Op != p.Op {
			return nil, fmt.Errorf("span %d (%s) of op %d under span %d of op %d", s.ID, s.Name, s.Op, p.ID, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) [%d, %d] outlives its parent %d (%s) [%d, %d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		childMS[p.ID] += s.ms()
	}
	f := &folded{layerMS: map[string][]float64{}, selfMS: map[string][]float64{}}
	opIndex := map[int]int{}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 && s.Op >= 0 {
			if s.Name != "op" {
				return nil, fmt.Errorf("op %d has root span %q, want op", s.Op, s.Name)
			}
			if _, dup := opIndex[s.Op]; dup {
				return nil, fmt.Errorf("op %d has two root spans", s.Op)
			}
			opIndex[s.Op] = len(f.opMS)
			f.opIDs = append(f.opIDs, s.Op)
			f.opMS = append(f.opMS, s.ms())
			f.opLabel = append(f.opLabel, s.Label)
			f.unattributedMS = append(f.unattributedMS, 0)
		}
	}
	for i := range spans {
		s := &spans[i]
		self := s.ms() - childMS[s.ID]
		if self < -1e-6 {
			return nil, fmt.Errorf("children of span %d (%s) sum to %.6f ms, more than its %.6f ms",
				s.ID, s.Name, childMS[s.ID], s.ms())
		}
		self = max(self, 0)
		f.selfMS[s.Name] = append(f.selfMS[s.Name], self)
		if s.Op < 0 {
			continue
		}
		k, ok := opIndex[s.Op]
		if !ok {
			return nil, fmt.Errorf("span %d (%s) belongs to op %d, which has no root span", s.ID, s.Name, s.Op)
		}
		layer := layerOf[s.Name]
		if layer == "" {
			f.unattributedMS[k] += self
			continue
		}
		if f.layerMS[layer] == nil {
			f.layerMS[layer] = make([]float64, len(f.opMS))
		}
		f.layerMS[layer][k] += self
	}
	return f, nil
}

// share is a layer's part of the summed per-op time.
func (f *folded) share(layer string) float64 {
	total := sum(f.opMS)
	if total == 0 {
		return 0
	}
	if layer == "unattributed" {
		return sum(f.unattributedMS) / total
	}
	return sum(f.layerMS[layer]) / total
}

// layers returns the layers with spans inside ops, sorted.
func (f *folded) layers() []string {
	out := make([]string, 0, len(f.layerMS))
	for l := range f.layerMS {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
