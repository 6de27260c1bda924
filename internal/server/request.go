// Session request decoding and validation. Everything a tenant can get
// wrong — malformed JSON, oversized bodies, unknown engines or workloads,
// absurd limits, programs that don't compile — becomes a typed *Error with
// a 4xx status and a machine-readable code, decided before the response
// stream opens. FuzzServerRequest pins the contract: arbitrary bytes never
// panic and never produce anything but a typed error or a valid spec.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/harness"
)

// Error is the service's typed failure: an HTTP status plus a stable
// machine-readable code. It classifies (ErrorClass) so service failures
// fold into the same record taxonomy the experiment pipeline uses.
type Error struct {
	Status int    `json:"-"`
	Code   string `json:"code"`
	Msg    string `json:"error"`
}

func (e *Error) Error() string      { return e.Code + ": " + e.Msg }
func (e *Error) ErrorClass() string { return e.Code }

// errf builds a typed error.
func errf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Stable error codes (the chaos suite asserts on these, so they are API).
const (
	CodeBadRequest      = "bad_request"
	CodeTooLarge        = "too_large"
	CodeUnknownEngine   = "unknown_engine"
	CodeUnknownWorkload = "unknown_workload"
	CodeCompile         = "compile"
	CodeRateLimited     = "rate_limited"
	CodeSessionQuota    = "session_quota"
	CodeTenantCapacity  = "tenant_capacity"
	CodeQueueFull       = "queue_full"
	CodeQueueTimeout    = "queue_timeout"
	CodeDraining        = "draining"
	CodeClientGone      = "client_gone"
	CodeInternal        = "internal"
)

// Limits bound what one request may ask for. The zero value selects the
// documented defaults.
type Limits struct {
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxProgramBytes bounds an inline MiniC program (default 128 KiB).
	MaxProgramBytes int
	// MaxEngines bounds the lineup length (default 16).
	MaxEngines int
	// MaxRuns bounds the per-engine repeat count (default 64).
	MaxRuns int
	// MaxStepLimit bounds the per-run step budget (default 2e9, the
	// experiment default; requests asking for more are clamped).
	MaxStepLimit uint64
	// DefaultDeadline applies when a request names none (default 30s,
	// clamped to MaxDeadline).
	DefaultDeadline time.Duration
	// MaxDeadline clamps requested deadlines (default 2 min).
	MaxDeadline time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = 1 << 20
	}
	if l.MaxProgramBytes <= 0 {
		l.MaxProgramBytes = 128 << 10
	}
	if l.MaxEngines <= 0 {
		l.MaxEngines = 16
	}
	if l.MaxRuns <= 0 {
		l.MaxRuns = 64
	}
	if l.MaxStepLimit == 0 {
		l.MaxStepLimit = 2_000_000_000
	}
	if l.DefaultDeadline <= 0 {
		l.DefaultDeadline = 30 * time.Second
	}
	if l.MaxDeadline <= 0 {
		l.MaxDeadline = 2 * time.Minute
	}
	if l.DefaultDeadline > l.MaxDeadline {
		l.DefaultDeadline = l.MaxDeadline
	}
	return l
}

// Request is one session submission.
type Request struct {
	// Tenant identifies the submitter for admission control.
	Tenant string `json:"tenant"`
	// Workload names a registered workload; Program is inline MiniC.
	// Exactly one must be set.
	Workload string `json:"workload,omitempty"`
	Program  string `json:"program,omitempty"`
	// Engines is the defense lineup to run the program under.
	Engines []string `json:"engines"`
	// Seed makes the session deterministic; equal (seed, config) sessions
	// stream identical records.
	Seed uint64 `json:"seed"`
	// Runs repeats each engine (default 1).
	Runs int `json:"runs,omitempty"`
	// StepLimit bounds each run's executed instructions (0 = default).
	StepLimit uint64 `json:"step_limit,omitempty"`
	// DeadlineMS bounds the whole session's wall time; past it, in-flight
	// runs are watchdog-cancelled and remaining cells shed as "canceled"
	// records (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Faults requests a seeded fault schedule injected into every run —
	// the chaos interface.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Trace opts the session into span tracing: events capture into a
	// bounded per-session buffer, the response carries an X-Trace-Ref
	// header, and the trace is served from the flight recorder after the
	// session ends. Traced and untraced runs of the same spec stream
	// byte-identical records.
	Trace bool `json:"trace,omitempty"`
}

// FaultSpec mirrors faultinject.Plan field-for-field in JSON form.
type FaultSpec struct {
	EntropyPeriod    uint64  `json:"entropy_period,omitempty"`
	EntropyBurst     uint64  `json:"entropy_burst,omitempty"`
	HostDelayEvery   uint64  `json:"host_delay_every,omitempty"`
	HostDelayCycles  float64 `json:"host_delay_cycles,omitempty"`
	HostCorruptEvery uint64  `json:"host_corrupt_every,omitempty"`
	HostCorruptXOR   int64   `json:"host_corrupt_xor,omitempty"`
	HostFaultEvery   uint64  `json:"host_fault_every,omitempty"`
}

// tenantRE restricts tenant names to something that can't smuggle header
// or metric-label garbage.
var tenantRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ParseRequest decodes one session request. Unknown fields, trailing
// data, type mismatches and oversized bodies are all typed 4xx errors.
func ParseRequest(r io.Reader, lim Limits) (*Request, *Error) {
	lim = lim.withDefaults()
	dec := json.NewDecoder(io.LimitReader(r, lim.MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, errf(http.StatusRequestEntityTooLarge, CodeTooLarge,
				"request body exceeds %d bytes", lim.MaxBodyBytes)
		}
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
	}
	if dec.InputOffset() > lim.MaxBodyBytes {
		return nil, errf(http.StatusRequestEntityTooLarge, CodeTooLarge,
			"request body exceeds %d bytes", lim.MaxBodyBytes)
	}
	if dec.More() {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "trailing data after request object")
	}
	return &req, nil
}

// Spec validates the request and lowers it to the harness session spec.
func (q *Request) Spec(lim Limits) (harness.SessionSpec, *Error) {
	lim = lim.withDefaults()
	var zero harness.SessionSpec
	if !tenantRE.MatchString(q.Tenant) {
		return zero, errf(http.StatusBadRequest, CodeBadRequest,
			"tenant must match %s", tenantRE.String())
	}
	hasW, hasP := q.Workload != "", q.Program != ""
	if hasW == hasP {
		return zero, errf(http.StatusBadRequest, CodeBadRequest,
			"exactly one of workload and program must be set")
	}
	if len(q.Program) > lim.MaxProgramBytes {
		return zero, errf(http.StatusRequestEntityTooLarge, CodeTooLarge,
			"program exceeds %d bytes", lim.MaxProgramBytes)
	}
	if len(q.Engines) == 0 {
		return zero, errf(http.StatusBadRequest, CodeBadRequest, "engines must name at least one engine")
	}
	if len(q.Engines) > lim.MaxEngines {
		return zero, errf(http.StatusBadRequest, CodeBadRequest,
			"%d engines exceeds the limit of %d", len(q.Engines), lim.MaxEngines)
	}
	for _, e := range q.Engines {
		if !harness.ValidEngine(e) {
			return zero, errf(http.StatusBadRequest, CodeUnknownEngine, "%v", harness.UnknownEngineError(e))
		}
	}
	if q.Runs < 0 || q.Runs > lim.MaxRuns {
		return zero, errf(http.StatusBadRequest, CodeBadRequest,
			"runs %d outside [0, %d]", q.Runs, lim.MaxRuns)
	}
	spec := harness.SessionSpec{
		Workload:  q.Workload,
		Source:    q.Program,
		Engines:   q.Engines,
		Seed:      q.Seed,
		Runs:      q.Runs,
		StepLimit: min(q.StepLimit, lim.MaxStepLimit),
	}
	if f := q.Faults; f != nil {
		if f.HostDelayCycles < 0 {
			return zero, errf(http.StatusBadRequest, CodeBadRequest, "host_delay_cycles must be >= 0")
		}
		spec.Fault = &faultinject.Plan{
			Seed:             q.Seed,
			EntropyPeriod:    f.EntropyPeriod,
			EntropyBurst:     f.EntropyBurst,
			HostDelayEvery:   f.HostDelayEvery,
			HostDelayCycles:  f.HostDelayCycles,
			HostCorruptEvery: f.HostCorruptEvery,
			HostCorruptXOR:   f.HostCorruptXOR,
			HostFaultEvery:   f.HostFaultEvery,
		}
	}
	return spec, nil
}

// Deadline resolves the session deadline under the limits.
func (q *Request) Deadline(lim Limits) time.Duration {
	lim = lim.withDefaults()
	if q.DeadlineMS <= 0 {
		return lim.DefaultDeadline
	}
	// Clamp before converting: a millisecond count past MaxDeadline can
	// overflow time.Duration and wrap to an already-expired deadline.
	if q.DeadlineMS > int64(lim.MaxDeadline/time.Millisecond) {
		return lim.MaxDeadline
	}
	return time.Duration(q.DeadlineMS) * time.Millisecond
}

// specError maps a harness.SessionCells validation failure to a typed
// response (the engine names are pre-validated in Spec, so unknown-engine
// here means a registry race, still a 400).
func specError(err error) *Error {
	var uw *harness.UnknownWorkloadError
	if errors.As(err, &uw) {
		return errf(http.StatusNotFound, CodeUnknownWorkload, "%v", err)
	}
	if strings.Contains(err.Error(), "compile") {
		return errf(http.StatusBadRequest, CodeCompile, "%v", err)
	}
	return errf(http.StatusBadRequest, CodeBadRequest, "%v", err)
}
