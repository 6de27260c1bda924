// Package faultinject provides deterministic, replayable fault schedules
// for the simulator: seeded entropy brownouts for any rng.TRNG, and
// delay/corrupt/fail faults at the VM's host-call boundary. A Plan is pure
// data — two Injectors built from equal Plans perturb a run identically,
// which is what lets the differential suite pin fault-injected executions
// bit-for-bit across both execution tiers.
//
// Injection points are chosen to be tier-shared: TRNG draws happen in the
// layout engines and machine construction (outside the dispatch loops), and
// host calls route through one wrapper on both tiers. Per-memory-access
// injection is deliberately absent — the compiled tier's inline segment
// views bypass the Memory accessors, so any per-access hook would diverge
// between tiers. Synthetic memory faults are instead tripped at the
// host-call boundary (the VM wraps an injected HostFault in its MemFault
// type, attributed to the faulting call site).
//
// An Injector is not safe for concurrent use; give each experiment cell its
// own (they are cheap).
package faultinject

import (
	"fmt"

	"repro/internal/rng"
)

// Window is an absolute half-open range [Start, Start+Len) of TRNG draw
// indices that fail.
type Window struct {
	Start uint64
	Len   uint64
}

// Plan is a declarative fault schedule. The zero Plan injects nothing.
type Plan struct {
	// Seed phases the periodic schedules, so equal-shape plans with
	// different seeds fault different draws (replayably).
	Seed uint64

	// EntropyPeriod/EntropyBurst shape the brownout: TRNG draw i (counted
	// across every wrapped TRNG, in draw order) fails iff
	// (i+phase) % EntropyPeriod < EntropyBurst. Period 0 or burst 0
	// disables; burst >= period is a blackout (every draw fails).
	EntropyPeriod uint64
	EntropyBurst  uint64
	// ExtraEntropyWindows adds absolute draw-index failure windows on top
	// of the periodic schedule (e.g. "kill draws 0-2" to fault seeding).
	ExtraEntropyWindows []Window

	// HostDelayEvery delays every Nth host call by HostDelayCycles modeled
	// cycles (an I/O hiccup). 0 disables.
	HostDelayEvery  uint64
	HostDelayCycles float64

	// HostCorruptEvery XORs every Nth host call's return value with
	// HostCorruptXOR (a corrupted read). 0 disables.
	HostCorruptEvery uint64
	HostCorruptXOR   int64

	// HostFaultEvery fails every Nth host call outright with a *HostFault
	// (surfaced by the VM as a synthetic memory fault at the call site).
	// 0 disables.
	HostFaultEvery uint64
}

// NewBrownoutPlan is the common entropy-sweep shape: out of every period
// consecutive TRNG draws, burst fail.
func NewBrownoutPlan(seed, period, burst uint64) Plan {
	return Plan{Seed: seed, EntropyPeriod: period, EntropyBurst: burst}
}

// HostFault is an injected host-call failure.
type HostFault struct {
	Name  string // builtin name
	Index uint64 // zero-based host-call sequence number
}

func (e *HostFault) Error() string {
	return fmt.Sprintf("injected host fault: %s (call #%d)", e.Name, e.Index)
}

// ErrorClass marks the fault as injected for the experiment runner's
// record classification.
func (e *HostFault) ErrorClass() string { return "injected" }

// InjectedError marks any error as caused by deliberate fault injection.
// The experiment harness wraps run errors from injected cells in it so
// their records classify as "injected" (expected) rather than genuine
// failures.
type InjectedError struct {
	Err error
}

func (e *InjectedError) Error() string      { return "injected fault: " + e.Err.Error() }
func (e *InjectedError) Unwrap() error      { return e.Err }
func (e *InjectedError) ErrorClass() string { return "injected" }

// Stats counts what an Injector actually did.
type Stats struct {
	Draws          uint64 // TRNG draws observed (across all wrapped TRNGs)
	FailedDraws    uint64 // draws forced (or passed through) as failed
	HostCalls      uint64 // host calls observed
	DelayedCalls   uint64
	CorruptedCalls uint64
	FailedCalls    uint64
}

// Injector applies a Plan. It keeps ONE draw counter shared by every TRNG
// it wraps: both execution tiers issue the identical sequence of draws and
// host calls, so a schedule indexed by that shared order perturbs both
// identically. It implements vm.HostHook structurally.
type Injector struct {
	plan  Plan
	phase uint64

	draws     uint64
	hostCalls uint64
	stats     Stats

	// observe, when set, fires on every injection actually applied (never
	// on clean draws/calls): kinds "entropy" (a failed TRNG draw),
	// "hostdelay", "hostcorrupt", "hostfail". index is the injector's
	// draw/host-call sequence number for the kind. Used by the trace layer
	// to replay a fault sweep's firings in order; must not call back into
	// the Injector.
	observe func(kind string, index uint64, detail string)
}

// Observe registers fn to receive every applied injection (see the observe
// field). Passing nil detaches the observer.
func (inj *Injector) Observe(fn func(kind string, index uint64, detail string)) {
	inj.observe = fn
}

// fire reports an applied injection to the observer, if any.
func (inj *Injector) fire(kind string, index uint64, detail string) {
	if inj.observe != nil {
		inj.observe(kind, index, detail)
	}
}

// New builds an Injector for plan.
func New(plan Plan) *Injector {
	inj := &Injector{plan: plan}
	if plan.EntropyPeriod > 0 {
		// splitmix64 finalizer: decorrelate the phase from the raw seed.
		z := plan.Seed + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		inj.phase = (z ^ (z >> 31)) % plan.EntropyPeriod
	}
	return inj
}

// Plan returns the schedule this injector applies.
func (inj *Injector) Plan() Plan { return inj.plan }

// Stats returns the counters accumulated so far.
func (inj *Injector) Stats() Stats { return inj.stats }

// failDraw decides whether global draw index i is scheduled to fail.
func (inj *Injector) failDraw(i uint64) bool {
	p := &inj.plan
	if p.EntropyPeriod > 0 && p.EntropyBurst > 0 && (i+inj.phase)%p.EntropyPeriod < p.EntropyBurst {
		return true
	}
	for _, w := range p.ExtraEntropyWindows {
		if i >= w.Start && i-w.Start < w.Len {
			return true
		}
	}
	return false
}

// WrapTRNG returns t with the plan's entropy schedule applied. All TRNGs
// wrapped by one Injector share the draw counter; the underlying TRNG is
// still drawn on scheduled failures so its internal stream position stays
// identical with and without injection.
func (inj *Injector) WrapTRNG(t rng.TRNG) rng.TRNG {
	return func() (uint64, bool) {
		i := inj.draws
		inj.draws++
		inj.stats.Draws++
		v, ok := t()
		if !ok || inj.failDraw(i) {
			inj.stats.FailedDraws++
			inj.fire("entropy", i, "")
			return 0, false
		}
		return v, true
	}
}

// EnterHost implements vm.HostHook: delay and fail scheduling.
func (inj *Injector) EnterHost(name string) (float64, error) {
	p := &inj.plan
	i := inj.hostCalls
	inj.hostCalls++
	inj.stats.HostCalls++
	var extra float64
	if p.HostDelayEvery > 0 && (i+1)%p.HostDelayEvery == 0 {
		extra = p.HostDelayCycles
		inj.stats.DelayedCalls++
		inj.fire("hostdelay", i, name)
	}
	if p.HostFaultEvery > 0 && (i+1)%p.HostFaultEvery == 0 {
		inj.stats.FailedCalls++
		inj.fire("hostfail", i, name)
		return extra, &HostFault{Name: name, Index: i}
	}
	return extra, nil
}

// ExitHost implements vm.HostHook: return-value corruption.
func (inj *Injector) ExitHost(name string, ret int64) int64 {
	p := &inj.plan
	if p.HostCorruptEvery == 0 {
		return ret
	}
	// hostCalls was already advanced by EnterHost for this call.
	if inj.hostCalls%p.HostCorruptEvery == 0 {
		inj.stats.CorruptedCalls++
		inj.fire("hostcorrupt", inj.hostCalls-1, name)
		return ret ^ p.HostCorruptXOR
	}
	return ret
}
