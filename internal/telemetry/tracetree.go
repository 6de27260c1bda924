// Trace-tree folding: reconstruct the span hierarchy (trace root → cell →
// run) from a flat JSONL trace and roll exact cycle attribution up the
// tree. run.end events in span mode carry their run's grid-rounded
// attribution rows plus the exact row-sum (total_cycles); because every
// row is a multiple of 2^-20 cycles, sums and roll-ups reproduce the
// per-cell TotalCycles of the metrics snapshot bit-for-bit — the
// reconciliation `make smoke` checks end to end (benchjson -tracetree,
// smokestackd -selftest) and `make race` pins in the span tests.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// SpanNode is one reconstructed span: its events in sequence order, its
// children, and the exact cycles attributed directly to it (the summed
// rows of its run.end events).
type SpanNode struct {
	ID       string
	Parent   string
	Trace    string
	Kind     string // kind of the span's first event
	Cell     string
	Events   []Event
	Children []*SpanNode
	// Cycles is the span's own exact attribution: the sum of the rows
	// carried by its run.end events (0 for pure structural spans).
	Cycles float64
	// Rows are the span's own merged attribution rows.
	Rows []Row
}

// TotalCycles sums the node's own cycles and its subtree's. Every term is
// a 2^-20 multiple, so the sum is exact in any traversal order.
func (n *SpanNode) TotalCycles() float64 {
	t := n.Cycles
	for _, c := range n.Children {
		t += c.TotalCycles()
	}
	return t
}

// TraceTree is a folded trace: the span roots (normally the single session
// span) plus any events that carried no span (plain Event emissions mixed
// into a span-mode trace).
type TraceTree struct {
	Roots     []*SpanNode
	Unspanned []Event
}

// EventRows extracts the attribution payload of a span-mode run.end event:
// the rows and the recorded exact total. ok is false when the event
// carries no rows (dormant profile, non-run event). It accepts both
// in-memory traces (Fields["rows"] is []Row) and JSON round-trips
// (Fields["rows"] is []any of maps).
func EventRows(e Event) (rows []Row, total float64, ok bool) {
	raw, has := e.Fields["rows"]
	if !has {
		return nil, 0, false
	}
	switch v := raw.(type) {
	case []Row:
		rows = v
	default:
		b, err := json.Marshal(raw)
		if err != nil {
			return nil, 0, false
		}
		if err := json.Unmarshal(b, &rows); err != nil {
			return nil, 0, false
		}
	}
	if tc, has := e.Fields["total_cycles"].(float64); has {
		total = tc
	}
	return rows, total, true
}

// FoldTrace reconstructs the span tree from a flat event stream. Spans
// referenced only as parents are synthesized (a trace fragment still folds
// into a rooted tree); events and children are ordered by sequence number.
func FoldTrace(events []Event) *TraceTree {
	nodes := make(map[string]*SpanNode)
	get := func(id string) *SpanNode {
		n, ok := nodes[id]
		if !ok {
			n = &SpanNode{ID: id}
			nodes[id] = n
		}
		return n
	}
	t := &TraceTree{}
	for _, e := range events {
		if e.Span == "" {
			t.Unspanned = append(t.Unspanned, e)
			continue
		}
		n := get(e.Span)
		if n.Parent == "" {
			n.Parent = e.Parent
		}
		if n.Trace == "" {
			n.Trace = e.Trace
		}
		if n.Kind == "" {
			n.Kind = e.Kind
		}
		if n.Cell == "" {
			n.Cell = e.Cell
		}
		n.Events = append(n.Events, e)
		if e.Parent != "" {
			get(e.Parent)
		}
		if rows, _, ok := EventRows(e); ok {
			n.Rows = MergeRows(n.Rows, rows)
		}
	}
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := nodes[id]
		sort.Slice(n.Events, func(i, j int) bool { return n.Events[i].Seq < n.Events[j].Seq })
		for _, r := range n.Rows {
			n.Cycles += r.Cycles
		}
		if p, ok := nodes[n.Parent]; ok && n.Parent != "" && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			t.Roots = append(t.Roots, n)
		}
	}
	order := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool { return firstSeq(ns[i]) < firstSeq(ns[j]) })
	}
	for _, n := range nodes {
		order(n.Children)
	}
	order(t.Roots)
	return t
}

// firstSeq is a node's earliest observed sequence number (synthesized
// nodes order by their first child).
func firstSeq(n *SpanNode) uint64 {
	if len(n.Events) > 0 {
		return n.Events[0].Seq
	}
	best := uint64(0)
	for i, c := range n.Children {
		if s := firstSeq(c); i == 0 || s < best {
			best = s
		}
	}
	return best
}

// MergeRows folds b into a by (kind, name), returning the merged slice
// sorted by (kind, name); grid-rounded cycles add exactly. a must be nil
// or an earlier result (sorted, one row per key) and is updated in place;
// b may be in any order and repeat keys. Each key's rows add in b's order,
// so the sums are bit-identical to folding b row by row.
func MergeRows(a, b []Row) []Row {
	n := len(a)
	for _, r := range b {
		if i, ok := slices.BinarySearchFunc(a[:n], r, compareRows); ok {
			a[i].Count += r.Count
			a[i].Cycles += r.Cycles
		} else {
			a = append(a, r)
		}
	}
	if len(a) == n {
		return a
	}
	// New keys were appended in b's order; a stable sort keeps that order
	// among equal keys, so folding neighbours adds them as b listed them.
	slices.SortStableFunc(a, compareRows)
	out := a[:1]
	for _, r := range a[1:] {
		if last := &out[len(out)-1]; compareRows(*last, r) == 0 {
			last.Count += r.Count
			last.Cycles += r.Cycles
		} else {
			out = append(out, r)
		}
	}
	return out
}

// compareRows orders rows by (kind, name).
func compareRows(x, y Row) int {
	if c := strings.Compare(x.Kind, y.Kind); c != 0 {
		return c
	}
	return strings.Compare(x.Name, y.Name)
}

// Reconcile verifies the tree's exactness contract: every run.end event's
// recorded total_cycles equals the sum of its rows bit-for-bit (both are
// sums of 2^-20 multiples, so == is the correct comparison, not a
// tolerance). Returns the first mismatch.
func (t *TraceTree) Reconcile() error {
	var walk func(n *SpanNode) error
	walk = func(n *SpanNode) error {
		for _, e := range n.Events {
			rows, total, ok := EventRows(e)
			if !ok {
				continue
			}
			var sum float64
			for _, r := range rows {
				sum += r.Cycles
			}
			if sum != total {
				return fmt.Errorf("telemetry: span %s (%s) event seq %d: row sum %v != total_cycles %v",
					n.ID, e.Kind, e.Seq, sum, total)
			}
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if err := walk(r); err != nil {
			return err
		}
	}
	return nil
}

// CellTotals sums the exact attributed cycles per cell across the whole
// tree — the quantity the flight recorder records per session cell, and
// the side the selftest's reconciliation compares against.
func (t *TraceTree) CellTotals() map[string]float64 {
	totals := make(map[string]float64)
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		if n.Cycles != 0 && n.Cell != "" {
			totals[n.Cell] += n.Cycles
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return totals
}

// Write renders the tree as an indented outline with exact cycle totals —
// the benchjson -tracetree output.
func (t *TraceTree) Write(w io.Writer) error {
	ew := &errWriter{w: w}
	var walk func(n *SpanNode, depth int)
	walk = func(n *SpanNode, depth int) {
		label := n.Kind
		if label == "" {
			label = "(span)"
		}
		fmt.Fprintf(ew, "%*s%s", depth*2, "", label)
		if n.Cell != "" {
			fmt.Fprintf(ew, "  cell=%s", n.Cell)
		}
		if total := n.TotalCycles(); total != 0 {
			fmt.Fprintf(ew, "  cycles=%s", formatFloat(total))
			if n.Cycles != 0 && n.Cycles != total {
				fmt.Fprintf(ew, " (own %s)", formatFloat(n.Cycles))
			}
		}
		fmt.Fprintf(ew, "  events=%d span=%s\n", len(n.Events), n.ID)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	if len(t.Unspanned) > 0 {
		fmt.Fprintf(ew, "unspanned events: %d\n", len(t.Unspanned))
	}
	return ew.err
}
