package exp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunnerCtxCancelBetweenCells is the regression test for between-cell
// cancellation: once the Runner's Ctx dies, the remaining cells must not
// run at all — each settles with a classified "canceled" record — instead
// of the old behavior of running every remaining cell to completion.
func TestRunnerCtxCancelBetweenCells(t *testing.T) {
	const n = 8
	const cancelAfter = 3
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var ran atomic.Int64
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Experiment: "cancel",
			Name:       fmt.Sprintf("cell%d", i),
			Run: func() ([]Record, error) {
				ran.Add(1)
				if i == cancelAfter-1 {
					cancel(errors.New("drain deadline"))
				}
				return []Record{{Experiment: "cancel", Cell: fmt.Sprintf("cell%d", i),
					Values: map[string]float64{"i": float64(i)}}}, nil
			},
		}
	}
	var ends atomic.Int64
	r := &Runner{Workers: 1, Ctx: ctx, Hooks: Hooks{
		CellEnd: func(c Cell, recs []Record, _ time.Duration, _ int) {
			ends.Add(1)
		},
	}}
	recs := r.Run(cells)

	if got := ran.Load(); got != cancelAfter {
		t.Fatalf("ran %d cell bodies, want %d (cells after cancellation must not run)", got, cancelAfter)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d (skipped cells still contribute records)", len(recs), n)
	}
	for i, rec := range recs {
		if i < cancelAfter {
			if rec.Err != "" {
				t.Errorf("cell %d: unexpected error %q", i, rec.Err)
			}
			continue
		}
		if rec.ErrClass != "canceled" {
			t.Errorf("cell %d: ErrClass = %q, want \"canceled\" (err %q)", i, rec.ErrClass, rec.Err)
		}
		if rec.Cell != fmt.Sprintf("cell%d", i) {
			t.Errorf("cell %d: identity %q lost on skip", i, rec.Cell)
		}
	}
	if got := ends.Load(); got != n {
		t.Errorf("CellEnd fired %d times, want %d (skipped cells must still settle)", got, n)
	}
}

// TestRunnerCtxCancelParallel pins the same contract on the parallel path:
// after cancellation no new cell bodies start, every cell still gets a
// record, and records stay in cell order. Every other cell waits for cell
// 0 to cancel, so a worker descheduled between claiming cell 0 and running
// it cannot let the rest of the grid finish first.
func TestRunnerCtxCancelParallel(t *testing.T) {
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cell0Canceled := make(chan struct{})
	var ran atomic.Int64
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Experiment: "cancel",
			Name:       fmt.Sprintf("cell%d", i),
			Run: func() ([]Record, error) {
				ran.Add(1)
				if i == 0 {
					cancel()
					close(cell0Canceled)
				} else {
					<-cell0Canceled
				}
				return []Record{{Experiment: "cancel", Cell: fmt.Sprintf("cell%d", i)}}, nil
			},
		}
	}
	r := &Runner{Workers: 4, Ctx: ctx}
	recs := r.Run(cells)
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	// At most Workers cells can already be in flight when the first cell
	// cancels; everything else must be shed.
	if got := ran.Load(); got > 8 {
		t.Errorf("%d cell bodies ran after a cancellation in cell 0 (want <= workers+slack)", got)
	}
	canceled := 0
	for i, rec := range recs {
		if rec.Cell != fmt.Sprintf("cell%d", i) {
			t.Fatalf("record %d out of cell order: %q", i, rec.Cell)
		}
		if rec.ErrClass == "canceled" {
			canceled++
		}
	}
	if canceled < n-8 {
		t.Errorf("only %d/%d records classified canceled", canceled, n)
	}
}

// TestRunnerNilCtxUnchanged pins that the dormant case (no Ctx) still runs
// every cell — the new check must cost nothing when unused.
func TestRunnerNilCtxUnchanged(t *testing.T) {
	var ran atomic.Int64
	cells := make([]Cell, 5)
	for i := range cells {
		cells[i] = Cell{Experiment: "e", Name: "c", Run: func() ([]Record, error) {
			ran.Add(1)
			return nil, nil
		}}
	}
	(&Runner{Workers: 2}).Run(cells)
	if ran.Load() != 5 {
		t.Fatalf("ran %d cells, want 5", ran.Load())
	}
}

// TestCanceledErrorClass pins the classification contract the service
// relies on.
func TestCanceledErrorClass(t *testing.T) {
	err := &CanceledError{Err: context.Canceled}
	if Classify(err) != "canceled" {
		t.Fatalf("Classify(CanceledError) = %q, want canceled", Classify(err))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("CanceledError must unwrap to its cause")
	}
	if (&CanceledError{}).Error() != "canceled" {
		t.Fatalf("zero-cause Error() = %q", (&CanceledError{}).Error())
	}
}
