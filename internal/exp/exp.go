// Package exp is the experiment execution pipeline: it separates what an
// experiment computes from how the result is presented. Experiments are
// decomposed into independent Cells — self-contained, deterministically
// seeded units of work such as "one Fig 3 workload row" or "one
// (scenario, engine) attack campaign" — and a Runner executes them on a
// bounded worker pool. Cells communicate only through their seeds, so a
// parallel run is byte-identical to a serial run: the Runner's one hard
// invariant.
//
// Results are typed Records (identity labels + numeric values), never
// printed tables; table renderers and the JSON encoder layer on top. This
// is the machine-readable output path that lets tooling consume
// experiment trajectories directly instead of scraping formatted text.
package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one experiment result: the cell's identity plus its measured
// quantities. Maps keep renderers generic; encoding/json sorts map keys,
// so serialized records are deterministic.
type Record struct {
	// Experiment names the figure/table the record belongs to (fig3, ...).
	Experiment string `json:"experiment"`
	// Cell identifies the producing cell within the experiment, e.g.
	// "perlbench" or "listing1/staticrand".
	Cell string `json:"cell"`
	// Labels carry the cell's categorical identity (workload, scheme,
	// variant, ...).
	Labels map[string]string `json:"labels,omitempty"`
	// Values carry the measured numeric quantities.
	Values map[string]float64 `json:"values,omitempty"`
	// Err is the cell's failure, if any ("" = success). Failed cells
	// surface here instead of aborting the whole experiment.
	Err string `json:"err,omitempty"`
	// ErrClass classifies Err ("" when Err is empty or unclassified):
	// errors implementing ErrorClass() string — notably injected faults —
	// report their class here so tooling can separate expected degradation
	// from genuine failures.
	ErrClass string `json:"err_class,omitempty"`
}

// Value returns the named value (0 when absent).
func (r Record) Value(name string) float64 { return r.Values[name] }

// Label returns the named label ("" when absent).
func (r Record) Label(name string) string { return r.Labels[name] }

// Cell is one independent unit of experiment work. Run must be
// self-contained: any randomness must derive from seeds captured at cell
// construction, never from shared mutable streams, so that execution
// order cannot influence the result.
type Cell struct {
	// Experiment and Name identify the cell (and its error records).
	Experiment string
	Name       string
	// Run computes the cell's records.
	Run func() ([]Record, error)
}

// Classify extracts an error's classification: the innermost error in the
// chain implementing ErrorClass() string decides ("" when none does).
func Classify(err error) string {
	var c interface{ ErrorClass() string }
	if errors.As(err, &c) {
		return c.ErrorClass()
	}
	return ""
}

// Runner executes cells on a bounded worker pool.
type Runner struct {
	// Workers bounds concurrent cells; <= 0 selects GOMAXPROCS, 1 is
	// strictly serial.
	Workers int
	// Ctx, when non-nil, cancels cell scheduling: cells that have not
	// started yet settle with a classified "canceled" record instead of
	// running at all — a cancelled grid stops at the next cell boundary
	// rather than running every remaining cell to completion. Already-
	// running cell bodies are not interrupted — cancellation is the cell
	// body's own concern (e.g. via a watchdog).
	Ctx context.Context
	// Hooks observe cell lifecycle (all optional; see Hooks).
	Hooks Hooks
}

// Hooks are optional observation points on the Runner's cell lifecycle.
// They exist so callers can attach telemetry (wall-time histograms, trace
// events) without the experiment pipeline importing a telemetry package.
// Hooks may be called concurrently from multiple workers and must be
// safe for that; nil fields are skipped.
type Hooks struct {
	// CellStart fires immediately before a cell's body runs.
	CellStart func(c Cell)
	// CellEnd fires after the cell settles (success, failure, or skipped
	// because the Runner's Ctx was already cancelled) with its records, its
	// wall time, and ran: 1 for a cell whose body ran, 0 for a skipped
	// cell, whose CellStart never fires. The streaming service relies on
	// CellEnd firing for every cell, settled or skipped, so a drained
	// session still delivers its full record set.
	CellEnd func(c Cell, recs []Record, wall time.Duration, ran int)
}

// workers resolves the effective pool size for n cells.
func (r *Runner) workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if r != nil && r.Workers > 0 {
		w = r.Workers
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every cell and returns the records flattened in cell
// order — the order is a function of the input alone, never of
// scheduling. Each cell runs once: its randomness, fault schedules
// included, derives from its seed, so a rerun would fail the same way. A
// cell that returns an error (or panics) keeps whatever records it
// produced before failing and contributes one additional Record carrying
// its identity, the failure and its classification; the other cells still
// run.
//
// When the Runner's Ctx is cancelled, cells that have not started yet do
// not run: each settles immediately with one record classified "canceled"
// (CanceledError), so a cancelled grid's output still covers every cell —
// exactly which cells computed and which were shed is machine-readable.
// Cells already inside their Run body finish on their own terms (typically
// via a VM watchdog wired to the same context).
func (r *Runner) Run(cells []Cell) []Record {
	perCell := make([][]Record, len(cells))
	w := r.workers(len(cells))
	runOne := func(i int) {
		if r != nil && r.Ctx != nil && r.Ctx.Err() != nil {
			perCell[i] = r.skipCanceled(cells[i])
			return
		}
		perCell[i] = r.runCell(cells[i])
	}
	if w == 1 {
		for i := range cells {
			runOne(i)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= len(cells) {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}
	var out []Record
	for _, recs := range perCell {
		out = append(out, recs...)
	}
	return out
}

// CanceledError classifies a failure as "canceled": the work was shed
// because its supervising context ended, not because it computed and
// failed. The Runner emits it for cells skipped after cancellation; cell
// bodies wrap watchdog cancellations in it so their records classify the
// same way.
type CanceledError struct{ Err error }

func (e *CanceledError) Error() string {
	if e.Err == nil {
		return "canceled"
	}
	return "canceled: " + e.Err.Error()
}

func (e *CanceledError) Unwrap() error      { return e.Err }
func (e *CanceledError) ErrorClass() string { return "canceled" }

// skipCanceled settles a cell that never started because the Runner's Ctx
// was already cancelled: one classified record, no CellStart (the cell
// never ran), CellEnd with ran = 0.
func (r *Runner) skipCanceled(c Cell) []Record {
	err := &CanceledError{Err: context.Cause(r.Ctx)}
	recs := []Record{{Experiment: c.Experiment, Cell: c.Name,
		Err: err.Error(), ErrClass: err.ErrorClass()}}
	if r.Hooks.CellEnd != nil {
		r.Hooks.CellEnd(c, recs, 0, 0)
	}
	return recs
}

// panicError carries a recovered cell panic as a classified error.
type panicError struct{ val any }

func (e *panicError) Error() string      { return fmt.Sprintf("panic: %v", e.val) }
func (e *panicError) ErrorClass() string { return "panic" }

// runCell executes one cell, converting errors and panics into an error
// record so one bad cell cannot take down the figure. Records produced
// before a failure are kept as partial results, with the error record
// appended.
func (r *Runner) runCell(c Cell) []Record {
	var hooks Hooks
	if r != nil {
		hooks = r.Hooks
	}
	if hooks.CellStart != nil {
		hooks.CellStart(c)
	}
	start := time.Now()
	recs, err := runCellOnce(c)
	if err != nil {
		recs = append(recs, Record{Experiment: c.Experiment, Cell: c.Name,
			Err: err.Error(), ErrClass: Classify(err)})
	}
	if hooks.CellEnd != nil {
		hooks.CellEnd(c, recs, time.Since(start), 1)
	}
	return recs
}

// runCellOnce runs the cell body once with panic recovery; partial records
// are returned alongside the failure.
func runCellOnce(c Cell) (recs []Record, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{val: p}
		}
	}()
	return c.Run()
}

// Filter returns the records belonging to one experiment, preserving
// order.
func Filter(recs []Record, experiment string) []Record {
	var out []Record
	for _, r := range recs {
		if r.Experiment == experiment {
			out = append(out, r)
		}
	}
	return out
}

// Errors joins every failed record into one error carrying the cell
// identities, or nil when all cells succeeded.
func Errors(recs []Record) error {
	var errs []error
	for _, r := range recs {
		if r.Err != "" {
			errs = append(errs, fmt.Errorf("%s/%s: %s", r.Experiment, r.Cell, r.Err))
		}
	}
	return errors.Join(errs...)
}

// UnclassifiedErrors joins the failed records whose errors carry no
// classification — genuine failures, as opposed to expected injected
// faults — or returns nil when every failure is classified (or there are
// none). The fault-sweep CLI path exits 0 on partial success gated by this.
func UnclassifiedErrors(recs []Record) error {
	var errs []error
	for _, r := range recs {
		if r.Err != "" && r.ErrClass == "" {
			errs = append(errs, fmt.Errorf("%s/%s: %s", r.Experiment, r.Cell, r.Err))
		}
	}
	return errors.Join(errs...)
}

// WriteJSON emits records as JSON lines (one object per line), the
// machine-readable form of every table and figure. Map keys serialize
// sorted, so output bytes are deterministic for deterministic records.
func WriteJSON(w io.Writer, recs []Record) error {
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
