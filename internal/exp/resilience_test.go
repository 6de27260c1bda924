package exp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// classifiedErr is a minimal classified error (the shape the faultinject
// package produces).
type classifiedErr struct{ msg string }

func (e *classifiedErr) Error() string      { return e.msg }
func (e *classifiedErr) ErrorClass() string { return "injected" }

// TestClassifyWrappedErrors pins error classification along the error
// chain: a wrapped classified error keeps its class, a plain one has none.
func TestClassifyWrappedErrors(t *testing.T) {
	wrapped := fmt.Errorf("cell: %w", &classifiedErr{msg: "boom"})
	if Classify(wrapped) != "injected" {
		t.Fatalf("Classify = %q", Classify(wrapped))
	}
	if Classify(errors.New("plain")) != "" {
		t.Fatal("plain errors are unclassified")
	}
}

// TestFailedCellKeepsClassification pins that a cell failing with a
// classified error runs once and yields a single classified record that
// Errors reports but UnclassifiedErrors does not.
func TestFailedCellKeepsClassification(t *testing.T) {
	r := &Runner{Workers: 1}
	runs := 0
	recs := r.Run([]Cell{{Experiment: "e", Name: "c", Run: func() ([]Record, error) {
		runs++
		return nil, &classifiedErr{msg: "still down"}
	}}})
	if runs != 1 {
		t.Fatalf("failing cell body ran %d times, want 1", runs)
	}
	if len(recs) != 1 || recs[0].ErrClass != "injected" {
		t.Fatalf("records %+v", recs)
	}
	if UnclassifiedErrors(recs) != nil {
		t.Fatal("classified failure must not count as unclassified")
	}
	if Errors(recs) == nil {
		t.Fatal("Errors must still report the classified failure")
	}
}

// TestNoRetryForPermanentErrors pins that a failing cell body runs once and
// yields one unclassified error record.
func TestNoRetryForPermanentErrors(t *testing.T) {
	r := &Runner{Workers: 1}
	runs := 0
	recs := r.Run([]Cell{{Experiment: "e", Name: "c", Run: func() ([]Record, error) {
		runs++
		return nil, errors.New("genuine bug")
	}}})
	if runs != 1 {
		t.Fatalf("failing cell body ran %d times, want 1", runs)
	}
	if len(recs) != 1 || recs[0].Err != "genuine bug" || recs[0].ErrClass != "" {
		t.Fatalf("records %+v", recs)
	}
}

func TestPartialRecordsKeptOnFailure(t *testing.T) {
	r := &Runner{Workers: 1}
	recs := r.Run([]Cell{{Experiment: "e", Name: "c", Run: func() ([]Record, error) {
		partial := []Record{{Experiment: "e", Cell: "c/a", Values: map[string]float64{"v": 1}}}
		return partial, errors.New("died after a")
	}}})
	if len(recs) != 2 {
		t.Fatalf("want partial + error record, got %+v", recs)
	}
	if recs[0].Cell != "c/a" || recs[0].Err != "" {
		t.Fatalf("partial record lost: %+v", recs[0])
	}
	if recs[1].Err != "died after a" {
		t.Fatalf("error record %+v", recs[1])
	}
}

func TestPanicClassified(t *testing.T) {
	r := &Runner{Workers: 1}
	runs := 0
	recs := r.Run([]Cell{{Experiment: "e", Name: "c", Run: func() ([]Record, error) {
		runs++
		panic("wedged")
	}}})
	if runs != 1 {
		t.Fatalf("panicking cell body ran %d times, want 1", runs)
	}
	if len(recs) != 1 || recs[0].Err != "panic: wedged" || recs[0].ErrClass != "panic" {
		t.Fatalf("records %+v", recs)
	}
}

func TestUnclassifiedErrorsMixed(t *testing.T) {
	recs := []Record{
		{Experiment: "e", Cell: "ok"},
		{Experiment: "e", Cell: "injected", Err: "fault", ErrClass: "injected"},
		{Experiment: "e", Cell: "real", Err: "bug"},
	}
	err := UnclassifiedErrors(recs)
	if err == nil {
		t.Fatal("unclassified failure must surface")
	}
	if got := err.Error(); got != "e/real: bug" {
		t.Fatalf("error %q", got)
	}
}

// TestPreCancelledContextSkipsCells pins the between-cell contract: a
// context already dead before Run means no cell body executes at all —
// every cell settles with a classified "canceled" record.
func TestPreCancelledContextSkipsCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Workers: 1, Ctx: ctx}
	runs := 0
	recs := r.Run([]Cell{{Experiment: "e", Name: "c", Run: func() ([]Record, error) {
		runs++
		return nil, &classifiedErr{msg: "down"}
	}}})
	if runs != 0 {
		t.Fatalf("cell body ran %d times under a pre-dead context, want 0", runs)
	}
	if len(recs) != 1 || recs[0].ErrClass != "canceled" {
		t.Fatalf("records %+v, want one canceled record", recs)
	}
}

// TestHooksFireInOrder pins the lifecycle hook contract: start, then end
// with ran = 1 and the cell's records, error record included; a cell shed
// under a dead context fires only end, with ran = 0.
func TestHooksFireInOrder(t *testing.T) {
	var events []string
	hooks := Hooks{
		CellStart: func(c Cell) { events = append(events, "start:"+c.Name) },
		CellEnd: func(c Cell, recs []Record, wall time.Duration, ran int) {
			events = append(events, fmt.Sprintf("end:%s:%d:%d", c.Name, ran, len(recs)))
		},
	}
	cells := []Cell{{Experiment: "e", Name: "c", Run: func() ([]Record, error) {
		return []Record{{Experiment: "e", Cell: "c"}}, &classifiedErr{msg: "flaky"}
	}}}
	(&Runner{Workers: 1, Hooks: hooks}).Run(cells)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	(&Runner{Workers: 1, Ctx: ctx, Hooks: hooks}).Run(cells)
	want := []string{"start:c", "end:c:1:2", "end:c:0:1"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}
