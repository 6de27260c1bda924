package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestRenderTraceTreeUnspanned pins the fold's tree contract: a trace with
// spans must keep every event inside them, while a flat trace (no spans at
// all) still folds.
func TestRenderTraceTreeUnspanned(t *testing.T) {
	dir := t.TempDir()
	root := telemetry.NewSpan("t")
	cases := []struct {
		name    string
		emit    func(tr *telemetry.Tracer)
		wantErr bool
	}{
		{"spanned", func(tr *telemetry.Tracer) {
			tr.SpanEvent("compile", "", root.Child("compile"), nil)
			tr.SpanEvent("cell.start", "c", root.Child("cell", "c"), nil)
		}, false},
		{"flat", func(tr *telemetry.Tracer) {
			tr.Event("compile", "", nil)
			tr.Event("cell.start", "c", nil)
		}, false},
		{"mixed", func(tr *telemetry.Tracer) {
			tr.SpanEvent("cell.start", "c", root.Child("cell", "c"), nil)
			tr.Event("compile", "", nil)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".jsonl")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			tr := telemetry.NewTracer(f)
			tc.emit(tr)
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			f.Close()
			out, err := os.Create(filepath.Join(dir, tc.name+".out"))
			if err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			err = renderTraceTree(out, path)
			if tc.wantErr != (err != nil) {
				t.Fatalf("renderTraceTree error = %v, want error %v", err, tc.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), `1 events outside the span tree (first: "compile")`) {
				t.Fatalf("unexpected error text: %v", err)
			}
		})
	}
}
