package vm

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/mem"
)

// Machine reset: the run-lifecycle fast path.
//
// vm.New pays for segment mapping, program image copies and
// compiled-stream lookups on every call, and each new Machine backs its
// stack and heap afresh as its run touches them — fine for one run,
// wasteful for the thousands of short Machines an experiment grid
// creates and discards. Reset rewinds an existing Machine to the state an
// equivalent New would have produced, at copy-on-reset cost: the sealed
// Memory restores only the touched span of each segment (mem.Restore)
// and keeps the bytes backing it, and every pooled structure —
// register/argument/effective-offset/layout slabs, the shadow stack, profiler
// slabs, the jitter table — keeps its backing.
//
// Equivalence is exact, not approximate: arm() is the same code New runs,
// so the engine rebias, the guard-key TRNG draw sequence (and therefore
// fault-injection schedules keyed on TRNG call indices), the derived
// canary/shadow keys and the jitter table are bit-identical to a fresh
// construction. The reuse differential and leak tests in the harness pin
// this across every registered engine and both execution tiers.

// ErrNotSealed reports a Reset on a Machine whose Memory was never sealed
// (SealForReuse): without a pristine baseline the restore would be unsound.
var ErrNotSealed = fmt.Errorf("vm: machine memory not sealed for reuse")

// SealForReuse captures the Machine's post-construction memory as the
// pristine baseline later Reset calls restore to. Call once, before the
// first run; a Machine that will never be reset need not be sealed (and
// skips the baseline copy). No-op on a construction-faulted Machine.
func (m *Machine) SealForReuse() {
	if m.initErr != nil {
		return
	}
	m.Mem.Seal()
}

// Reset rewinds the Machine to the state New(m.Prog, engine, env, opts)
// would have produced, reusing every retained allocation. restored
// reports the bytes rewritten by the copy-on-reset restore (the
// mem.snapshot telemetry feed).
//
// Construction-time choices cannot change across a Reset: the cost model,
// step limit, call-depth bound, heap size, execution tier, code cache and
// the engine's dual-stack class must match the original construction, or
// Reset returns an error and leaves the Machine unchanged (callers — the
// MachinePool — fall back to New). A guard-key entropy failure is NOT a
// reset failure: exactly like New, it marks the Machine with a
// construction fault that the next Run surfaces as *EntropyFault.
func (m *Machine) Reset(engine layout.Engine, env *Env, opts *Options) (restored uint64, err error) {
	o := normalizeOptions(opts)
	if c := costsOf(&o); c != m.costs {
		return 0, fmt.Errorf("vm: reset with different cost model")
	}
	if o.StepLimit != m.stepLimit {
		return 0, fmt.Errorf("vm: reset with different step limit (%d != %d)", o.StepLimit, m.stepLimit)
	}
	if o.MaxCallDepth != m.maxDepth {
		return 0, fmt.Errorf("vm: reset with different call-depth bound (%d != %d)", o.MaxCallDepth, m.maxDepth)
	}
	if t := resolveTier(&o); t != m.tier {
		return 0, fmt.Errorf("vm: reset with different execution tier (%d != %d)", t, m.tier)
	}
	cache := o.CodeCache
	if cache == nil {
		cache = defaultCodeCache
	}
	if cache != m.codeCache {
		return 0, fmt.Errorf("vm: reset with different code cache")
	}
	_, dualStack := engine.(layout.DualStacker)
	if dualStack != (m.ustack != nil) {
		return 0, fmt.Errorf("vm: reset with different stack-segment class (dual-stack %v)", dualStack)
	}
	if env == nil {
		env = &Env{}
	}
	if env.IODelayScale == 0 {
		env.IODelayScale = 1
	}

	restored, ok := m.Mem.Restore()
	if !ok {
		return 0, ErrNotSealed
	}

	// Run-state teardown. Slices keep their backing (frames/shadow
	// truncate, slabs are cleared on reuse by their accessors), counters
	// and profiler accumulators zero, the construction fault clears so a
	// previously entropy-faulted Machine can re-arm with a live TRNG.
	m.steps = 0
	m.stats = Stats{}
	m.frames = m.frames[:0]
	m.shadow = m.shadow[:0]
	m.heapNext = mem.HeapBase
	m.watchdog = false
	m.interrupted.Store(false)
	m.initErr = nil
	m.resetProfileState()

	m.arm(engine, env, &o)
	return restored, nil
}

// resetProfileState zeroes every per-run profiler accumulator and the
// Memory cache-counter baselines. flushProfile clears what it flushes, so
// after a completed profiled run this is all zeros already; a reset after
// an unprofiled run, or a profile detach, must not leak stale counts into
// the next attach.
func (m *Machine) resetProfileState() {
	clear(m.profW[:])
	clear(m.profN[:])
	clear(m.profBB)
	clear(m.profCops[:])
	m.profCat = [numProfCats]profAgg{}
	m.profCalls, m.profHostCalls, m.profHostCycles = 0, 0, 0
	m.profMemSlow, m.profFrameReuse, m.profFrameAlloc = 0, 0, 0
	// Mem.Restore zeroed the segment-cache counters; the flush baselines
	// must follow, or the first flush after a reset would underflow.
	m.profMemHits, m.profMemMisses = 0, 0
}

// VerifyPristine checks that a Machine that has just been Reset is
// indistinguishable from a fresh construction: no live frames or shadow
// tokens, zero counters, an empty heap bump pointer, and — the expensive,
// authoritative part — every writable memory segment byte-equal to its
// sealed baseline. Test-support API: the state-leak suite runs it after
// faulted, cancelled and step-limited runs; it is far too slow for
// production reset paths.
func (m *Machine) VerifyPristine() error {
	if n := len(m.frames); n != 0 {
		return fmt.Errorf("vm: %d live frames after reset", n)
	}
	if n := len(m.shadow); n != 0 {
		return fmt.Errorf("vm: %d shadow-stack tokens after reset", n)
	}
	if m.steps != 0 {
		return fmt.Errorf("vm: non-zero step count %d after reset", m.steps)
	}
	if m.stats != (Stats{}) {
		return fmt.Errorf("vm: non-zero stats after reset: %+v", m.stats)
	}
	if m.heapNext != mem.HeapBase {
		return fmt.Errorf("vm: heap bump pointer 0x%x after reset", m.heapNext)
	}
	if m.watchdog || m.interrupted.Load() {
		return fmt.Errorf("vm: watchdog state leaked across reset")
	}
	if m.sp != m.stackTop {
		return fmt.Errorf("vm: sp 0x%x != stackTop 0x%x after reset", m.sp, m.stackTop)
	}
	if m.ustack != nil && m.usp != m.unsafeTop {
		return fmt.Errorf("vm: usp 0x%x != unsafeTop 0x%x after reset", m.usp, m.unsafeTop)
	}
	for i, n := range m.profN {
		if n != 0 {
			return fmt.Errorf("vm: profiler op counter %d leaked across reset", i)
		}
	}
	for i, n := range m.profBB {
		if n != 0 {
			return fmt.Errorf("vm: basic-block counter %d leaked across reset", i)
		}
	}
	if m.profCalls != 0 || m.profHostCalls != 0 || m.profMemSlow != 0 {
		return fmt.Errorf("vm: profiler call counters leaked across reset")
	}
	return m.Mem.VerifyPristine()
}
