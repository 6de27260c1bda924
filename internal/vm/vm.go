// Package vm executes compiled MiniC programs against the simulated memory,
// consulting a layout.Engine on every call to place the stack frame — the
// run-time half of the Smokestack system. The VM also maintains the cycle
// cost model that backs the paper's performance figures: every IR operation
// has a price, and each engine adds its instrumentation prices on top
// (prologue RNG + P-BOX lookup, per-GEP rebase, guard write/check).
//
// Memory behaves like a real process image: the stack is a real
// downward-growing region, locals are raw bytes at engine-chosen offsets,
// and out-of-bounds writes that stay within the stack segment silently
// corrupt neighbouring frames — the substrate DOP attacks require.
package vm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/minic/sema"
	"repro/internal/rng"
)

// Fault categories surfaced as errors from Run.
type (
	// MemFault wraps a segmentation fault with execution context.
	MemFault struct {
		Func string
		PC   int
		Err  error
	}
	// GuardViolation reports a corrupted function-identifier slot detected
	// at epilogue — Smokestack's attack detection (§III-D2). Addr is the
	// absolute stack address of the corrupted slot (the nearest
	// attributable location: the check runs at epilogue, after the store
	// that corrupted the slot has long retired).
	GuardViolation struct {
		Func string
		Addr uint64
	}
	// CanaryViolation reports a corrupted per-frame canary slot detected at
	// epilogue (Stackato/StackGuard-style defenses). Addr is the canary
	// slot's absolute stack address.
	CanaryViolation struct {
		Func string
		Addr uint64
	}
	// ShadowStackViolation reports a frame return-token that no longer
	// matches the disjoint shadow stack at epilogue: backward-edge
	// corruption caught by shadow-stack defenses. Addr is the in-frame
	// return-token slot's absolute stack address.
	ShadowStackViolation struct {
		Func string
		Addr uint64
	}
	// StackOverflow reports frame allocation below the stack segment.
	StackOverflow struct {
		Func string
	}
	// DivideByZero reports integer division or modulo by zero.
	DivideByZero struct {
		Func string
		PC   int
	}
	// Aborted reports a call to the abort() builtin.
	Aborted struct{}
	// StepLimit reports that execution exceeded the instruction budget.
	StepLimit struct {
		Limit uint64
	}
	// EntropyFault reports that the layout engine's entropy source walked
	// its whole degradation ladder and went terminal while entering Func.
	// Randomizing a frame with known-dead randomness would silently void
	// the defense, so the run faults instead.
	EntropyFault struct {
		Func string
		Err  error
	}
	// Canceled reports that a context-supervised run (RunContext) was
	// stopped by its watchdog: deadline expiry or explicit cancellation.
	// Stats accumulated up to the stop remain valid partial results.
	Canceled struct {
		Cause error
	}
)

func (e *MemFault) Error() string {
	return fmt.Sprintf("%v in %s at pc=%d", e.Err, e.Func, e.PC)
}
func (e *MemFault) Unwrap() error { return e.Err }
func (e *GuardViolation) Error() string {
	return fmt.Sprintf("smokestack: function identifier check failed in %s (stack corruption detected)", e.Func)
}
func (e *CanaryViolation) Error() string {
	return fmt.Sprintf("canary check failed in %s (stack corruption detected)", e.Func)
}
func (e *ShadowStackViolation) Error() string {
	return fmt.Sprintf("shadow stack mismatch in %s (return linkage corrupted)", e.Func)
}
func (e *StackOverflow) Error() string { return fmt.Sprintf("stack overflow in %s", e.Func) }
func (e *DivideByZero) Error() string {
	return fmt.Sprintf("division by zero in %s at pc=%d", e.Func, e.PC)
}
func (e *Aborted) Error() string   { return "program aborted" }
func (e *StepLimit) Error() string { return fmt.Sprintf("instruction budget exceeded (%d)", e.Limit) }
func (e *EntropyFault) Error() string {
	return fmt.Sprintf("entropy failure entering %s: %v", e.Func, e.Err)
}
func (e *EntropyFault) Unwrap() error { return e.Err }
func (e *Canceled) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("execution canceled: %v", e.Cause)
	}
	return "execution canceled"
}
func (e *Canceled) Unwrap() error { return e.Cause }

// exitRequest unwinds the interpreter when the program calls exit().
type exitRequest struct{ code int64 }

func (e *exitRequest) Error() string { return fmt.Sprintf("exit(%d)", e.code) }

// Costs prices IR operations in modeled cycles. Values approximate a simple
// in-order x86 pipeline; only *relative* magnitudes matter for the
// reproduced figures.
type Costs struct {
	ALU       float64 // add/sub/logic/compare/mov/const
	Mul       float64
	Div       float64
	Load      float64
	Store     float64
	Branch    float64
	AddrCalc  float64 // address formation (lea)
	CallBase  float64 // call+ret linkage, frame setup
	HostBase  float64 // host call trap overhead
	PerByte   float64 // bulk memory ops (memcpy etc.) per byte
	InputBase float64 // per input() record
}

// DefaultCosts returns the standard cost model.
func DefaultCosts() Costs {
	return Costs{
		ALU:       1,
		Mul:       3,
		Div:       20,
		Load:      2,
		Store:     2,
		Branch:    1,
		AddrCalc:  1,
		CallBase:  6,
		HostBase:  12,
		PerByte:   0.25,
		InputBase: 40,
	}
}

// ExecTier selects the interpreter implementation. Every tier executes the
// same IR with bit-identical results, cycle accounting and faults (the
// differential test and the invariance goldens enforce this); the compiled
// tiers are simply faster.
type ExecTier int

const (
	// TierAuto consults SMOKESTACK_EXEC and defaults to the block tier.
	TierAuto ExecTier = iota
	// TierCompiled executes pre-decoded, fused cinstr streams (compile.go /
	// exec_compiled.go), sharing compiled programs through a CodeCache. It
	// is the block tier's fallback and is selectable only through
	// Options.Exec, not SMOKESTACK_EXEC.
	TierCompiled
	// TierSwitch executes raw ir.Instr through the legacy switch
	// interpreter — the differential oracle the other tiers are checked
	// against.
	TierSwitch
	// TierBlock executes the threaded stream with profile-guided block
	// superinstructions layered on top (blocktier.go): hot straight-line
	// runs dispatch as one cinstr with a pre-summed cost and an amortized
	// step check, bit-identical to the other tiers by construction. Falls
	// back to TierCompiled semantics when the cost table is not
	// integer-valued or StepLimit exceeds 2^32 (see blocktier.go).
	TierBlock
)

// execTierEnv is the environment variable consulted by TierAuto. The
// recognized values are "switch" and "block"; anything else (including
// unset) selects the block tier. Read per Machine, not cached at init, so
// tests can flip it with t.Setenv.
const execTierEnv = "SMOKESTACK_EXEC"

// ParseExecTier maps a SMOKESTACK_EXEC-style name to its tier: "switch",
// "block", or "" / "auto" for TierAuto.
func ParseExecTier(s string) (ExecTier, bool) {
	switch s {
	case "", "auto":
		return TierAuto, true
	case "switch":
		return TierSwitch, true
	case "block":
		return TierBlock, true
	}
	return TierAuto, false
}

// Options configure a Machine.
type Options struct {
	// Costs is the instruction cost model; zero value selects DefaultCosts.
	Costs *Costs
	// StepLimit bounds executed instructions (0 = default 500M).
	StepLimit uint64
	// MaxCallDepth bounds recursion (0 = default 4096).
	MaxCallDepth int
	// TRNG seeds the per-run guard key; defaults to rng.HostTRNG.
	TRNG rng.TRNG
	// JitterAmp enables the instruction-scheduling perturbation model: each
	// function's body cost is scaled by a deterministic per-function factor
	// in [1-JitterAmp, 1+JitterAmp] when running under a non-baseline
	// engine. Models the register-pressure speedups/slowdowns the paper
	// attributes to instrumentation-induced scheduling changes (§V-A).
	// 0 disables.
	JitterAmp float64
	// JitterSeed seeds the per-function jitter factors.
	JitterSeed uint64
	// HeapSize overrides the heap segment size (default 64 MiB).
	HeapSize uint64
	// Exec selects the execution tier (default TierAuto: block unless
	// SMOKESTACK_EXEC says otherwise).
	Exec ExecTier
	// CodeCache overrides the process-wide compiled-code cache (tests use
	// private caches to observe hit/miss counts). Ignored under TierSwitch.
	CodeCache *CodeCache
	// HostHook, when non-nil, observes every host (builtin) call on both
	// execution tiers: the fault injector uses it to delay, corrupt or
	// fail host calls deterministically. nil costs nothing.
	HostHook HostHook
	// EntropyCheck, when non-nil, is consulted on every function call after
	// the layout draw; a non-nil result faults the run with EntropyFault.
	// The harness wires rng.SourceErr of the engine's source here so a
	// terminally-exhausted entropy ladder stops the run at a call boundary
	// instead of silently derandomizing it. nil costs nothing.
	EntropyCheck func() error
	// Prof, when non-nil, attaches a cycle-attribution profile: the Machine
	// accumulates per-opcode and per-category attribution in plain fields
	// and flushes into Prof at Run/CallByName exit (see profile.go). nil is
	// the dormant default: the switch tier pays a never-taken branch per
	// site, and the compiled tiers run streams without count cinstrs. The
	// cycle accumulator itself is never touched either way, so profiled
	// runs remain bit-identical to dormant ones.
	Prof *Profile
}

// Env is the host environment: attacker/user input and program output.
type Env struct {
	// Input services the input(buf, n) builtin: return at most max bytes.
	// nil yields zero bytes. The attack framework installs closures here —
	// this is the network boundary the attacker talks through.
	Input func(max int64) []byte
	// Ints services readint(); nil yields 0.
	Ints func() int64
	// Output receives bytes from print/prints/printc/outbyte/sendout.
	Output []byte
	// IODelayScale scales iodelay(n) cycles (1.0 default).
	IODelayScale float64
}

// Queue returns an Env whose Input pops successive records from the given
// chunks.
func Queue(chunks ...[]byte) *Env {
	i := 0
	e := &Env{}
	e.Input = func(max int64) []byte {
		if i >= len(chunks) {
			return nil
		}
		c := chunks[i]
		i++
		if int64(len(c)) > max {
			c = c[:max]
		}
		return c
	}
	return e
}

// Stats aggregates execution counters for the experiment harness.
type Stats struct {
	Cycles       float64
	Instructions uint64
	Calls        uint64
	MaxDepth     int
	MaxFrameSize int64
	HeapUsed     uint64
	StackPeak    uint64 // deepest stack extent in bytes
}

// frameRecord tracks one active invocation (used by attacks and
// diagnostics).
type frameRecord struct {
	fn       *ir.Function
	base     uint64
	ubase    uint64 // unsafe-region frame base (0 when single-region)
	layout   layout.FrameLayout
	savedSP  uint64
	savedUSP uint64
	// savedShadow is the shadow-stack depth at entry; popFrame truncates to
	// it, keeping the shadow balanced on every fault path.
	savedShadow int
}

// Machine executes one program run.
type Machine struct {
	Prog   *ir.Program
	Mem    *mem.Memory
	Engine layout.Engine
	Env    *Env

	costs     Costs
	stepLimit uint64
	maxDepth  int
	steps     uint64
	stats     Stats

	// costTable prices each opcode (built once in New from costs and the
	// engine's per-address-formation surcharge): the interpreter adds
	// costTable[op] instead of re-deriving the price per step. The values
	// and the accumulation order are bit-identical to the per-case
	// constants they replace — guarded by TestCycleInvariance.
	costTable [ir.NumOps]float64

	// ccode is the program's compiled instruction streams (nil under the
	// switch tier). Shared across Machines through a CodeCache — streams
	// depend only on (program, cost model, engine AddrLocal surcharge,
	// profiled or not), never on per-run state. counted records that ccode
	// is the profiled variant.
	ccode   *compiledProgram
	counted bool

	// regSlabs and argSlabs pool the per-call register file and the
	// OpCall/OpCallHost argument scratch, indexed by call depth so nested
	// frames never alias. Slabs are cleared (registers) or fully
	// overwritten (args) on reuse, so behaviour matches fresh allocation.
	regSlabs [][]int64
	argSlabs [][]int64

	rodata     *mem.Segment
	globals    *mem.Segment
	heap       *mem.Segment
	stack      *mem.Segment
	globalAddr []uint64
	dataAddr   []uint64
	heapNext   uint64

	sp        uint64
	stackBase uint64
	stackTop  uint64

	// Unsafe (second) stack segment state: mapped only when the engine
	// implements layout.DualStacker; all zero/nil otherwise, in which case
	// every expression involving them reduces to the single-stack value.
	ustack     *mem.Segment
	usp        uint64
	unsafeBase uint64
	unsafeTop  uint64

	guardKey uint64
	// canaryKey/shadowKey back SlotCanary writes and SlotReturn tokens.
	// Both derive deterministically from guardKey (splitmix steps), so
	// engines using them consume no extra TRNG draws — existing engines'
	// entropy streams are untouched.
	canaryKey uint64
	shadowKey uint64
	// shadow is the disjoint shadow return stack: one token per live
	// SlotReturn slot, invisible to simulated memory (the leak-resilience
	// property).
	shadow []uint64
	// effSlabs pools per-depth effective-offset scratch for multi-region
	// frames: offsets rebased so base+offset lands in the right region,
	// letting the call-free compiled core run unchanged.
	effSlabs [][]int64

	jitter []float64 // per-function cost multiplier (nil when disabled)

	frames []frameRecord

	// initErr records a construction-time failure (segment mapping, guard
	// key entropy). New cannot return an error without breaking every call
	// site, so the first Run/CallByName surfaces it instead.
	initErr error

	hostHook     HostHook
	entropyCheck func() error

	// watchdog/interrupted implement RunContext's cancellation: when armed,
	// both exec tiers re-check interrupted every supervisionInterval steps
	// at a resumable chunk boundary. Dormant (watchdog false) the chunk
	// boundary equals the step limit and behaviour is bit-identical.
	watchdog    bool
	interrupted atomic.Bool

	// Cycle-attribution accumulators (see profile.go). All nil/zero when
	// no Profile is attached; the switch tier's hot path only ever tests
	// prof for nil. profW/profN hold weighted per-op counts: the switch
	// tier's per step, the compiled tiers' expanded at flush from profBB,
	// the per-basic-block counts the profiled stream's count cinstrs
	// accumulate. profCops counts cop dispatches (the fused.* counters).
	// profCat buckets instrumentation cycles captured in call()/hostCall.
	// profMemHits/profMemMisses are last-flushed baselines for the Memory
	// segment-cache counters.
	prof           *Profile
	profProlog     PrologueProfiler
	profDefense    DefenseProfiler
	addrExtra      float64
	profW          [ir.NumOps]float64
	profN          [ir.NumOps]uint64
	profBB         []uint64
	profCops       [numCops]uint64
	profCat        [numProfCats]profAgg
	profCalls      uint64
	profHostCalls  uint64
	profHostCycles float64
	profMemSlow    uint64
	profFrameReuse uint64
	profFrameAlloc uint64
	profMemHits    uint64
	profMemMisses  uint64

	// bbCount, when non-nil, makes the switch interpreter count executions
	// per function (outer index ir.Function.ID) and IR pc — the block
	// tier's one-shot profiling pre-run (blocktier.go) attaches it to find
	// hot basic blocks. Nil on every ordinary Machine: the hot loop pays a
	// hoisted nil check, same discipline as the profiler fields.
	bbCount [][]uint64

	// Pooled-reuse plumbing (reset.go / pool.go). tier is the resolved
	// execution tier and codeCache the resolved cache — construction-time
	// choices a Reset cannot change, recorded so it can verify
	// compatibility and re-look-up compiled streams when the engine
	// surcharge changes. armed marks that the engine-dependent pricing
	// state (cost table, ccode) has been built at least once; jitterBuf is
	// the retained backing for the jitter table so re-arming with jitter
	// allocates only on first use.
	tier      ExecTier
	codeCache *CodeCache
	armed     bool
	jitterBuf []float64

	// hostBuf/hostBuf2 are reusable staging buffers for host builtins that
	// move byte ranges through Go (strcpy, memcpy, strcmp, ...): with them
	// the whole builtin surface allocates nothing in steady state. Contents
	// are never observable across calls, so Reset leaves them alone.
	hostBuf  []byte
	hostBuf2 []byte
}

// supervisionInterval is the step count between watchdog polls while a
// RunContext watchdog is armed. Small enough to stop a runaway loop within
// microseconds of wall-clock cancellation, large enough to keep the poll
// invisible in the dispatch loop.
const supervisionInterval = 32768

// supNext returns the next supervised chunk boundary after steps, capped at
// the real budget.
func supNext(steps, limit uint64) uint64 {
	next := steps + supervisionInterval
	if next > limit || next < steps {
		next = limit
	}
	return next
}

// normalizeOptions applies New's defaulting rules to opts (without
// mutating the caller's struct): zero values become the documented
// defaults and the heap size is clamped below the lowest stack segment.
// Shared with the pool key computation and Machine.Reset, which must both
// see exactly the options a corresponding New would run with.
func normalizeOptions(engine layout.Engine, opts *Options) Options {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	if o.StepLimit == 0 {
		o.StepLimit = 500_000_000
	}
	if o.MaxCallDepth == 0 {
		o.MaxCallDepth = 4096
	}
	if o.TRNG == nil {
		o.TRNG = rng.HostTRNG
	}
	if o.HeapSize == 0 {
		o.HeapSize = 64 << 20
	}
	// Clamp the heap below the lowest stack segment: an oversized request
	// shrinks to the available address range instead of failing
	// construction. Dual-stack engines add the unsafe segment below the
	// main stack, lowering the ceiling.
	stackFloor := uint64(mem.StackTop - mem.StackSize)
	if _, ok := engine.(layout.DualStacker); ok {
		stackFloor = uint64(mem.UnsafeStackTop - mem.UnsafeStackSize)
	}
	if maxHeap := stackFloor - mem.HeapBase; o.HeapSize > maxHeap {
		o.HeapSize = maxHeap
	}
	return o
}

// costsOf resolves the cost model a normalized Options selects.
func costsOf(o *Options) Costs {
	if o.Costs != nil {
		return *o.Costs
	}
	return DefaultCosts()
}

// resolveTier resolves TierAuto (environment, default block) and applies
// the block tier's step-limit fallback, yielding the tier the Machine
// actually runs.
func resolveTier(o *Options) ExecTier {
	tier := o.Exec
	if tier == TierAuto {
		if t, ok := ParseExecTier(os.Getenv(execTierEnv)); ok && t != TierAuto {
			tier = t
		} else {
			tier = TierBlock
		}
	}
	// The block tier's exact pre-summed costs need the in-core cycle
	// accumulator to stay in float64's exact-integer range; huge step
	// limits fall back to the threaded tier's per-constituent accounting
	// (bit-identical, just unaccelerated).
	if tier == TierBlock && o.StepLimit > blockMaxStepLimit {
		tier = TierCompiled
	}
	return tier
}

// New prepares a Machine for one run of prog under engine. The engine's
// NewRun is invoked (drawing per-run randomness such as the stack bias).
func New(prog *ir.Program, engine layout.Engine, env *Env, opts *Options) *Machine {
	o := normalizeOptions(engine, opts)
	if env == nil {
		env = &Env{}
	}
	if env.IODelayScale == 0 {
		env.IODelayScale = 1
	}

	m := &Machine{
		Prog:      prog,
		Mem:       mem.New(),
		Engine:    engine,
		Env:       env,
		costs:     costsOf(&o),
		stepLimit: o.StepLimit,
		maxDepth:  o.MaxCallDepth,
	}
	m.tier = resolveTier(&o)
	m.codeCache = o.CodeCache
	if m.codeCache == nil {
		m.codeCache = defaultCodeCache
	}

	// Rodata: interned strings. Program images with fuzzer-scale data or
	// global sections can exceed their address windows; a mapping failure
	// is recorded as a typed initErr (surfaced by the first Run) instead of
	// panicking inside the segment allocator.
	var dataSize uint64
	for _, d := range prog.Data {
		dataSize += uint64(len(d)) + 8
	}
	if dataSize < 16 {
		dataSize = 16
	}
	var err error
	if m.rodata, err = m.Mem.Map("rodata", mem.RodataBase, dataSize, false); err != nil {
		m.initErr = fmt.Errorf("vm: program image: %w", err)
		return m
	}
	addr := uint64(mem.RodataBase)
	for _, d := range prog.Data {
		m.dataAddr = append(m.dataAddr, addr)
		copy(m.rodata.Bytes()[addr-mem.RodataBase:], d)
		addr += uint64(len(d))
		addr = (addr + 7) &^ 7
	}

	// Globals.
	var globSize uint64
	for _, g := range prog.Globals {
		globSize = alignU(globSize, uint64(g.Align)) + uint64(g.Size)
	}
	if globSize < 16 {
		globSize = 16
	}
	if m.globals, err = m.Mem.Map("globals", mem.GlobalBase, globSize, true); err != nil {
		m.initErr = fmt.Errorf("vm: program image: %w", err)
		return m
	}
	addr = mem.GlobalBase
	for _, g := range prog.Globals {
		addr = alignU(addr, uint64(g.Align))
		m.globalAddr = append(m.globalAddr, addr)
		copy(m.globals.Bytes()[addr-mem.GlobalBase:], g.Init)
		addr += uint64(g.Size)
	}

	// The heap's 64 MiB backing is materialized on first access: runs that
	// never touch the heap (most workloads) skip the allocation entirely.
	if m.heap, err = m.Mem.MapLazy("heap", mem.HeapBase, o.HeapSize, true); err != nil {
		m.initErr = fmt.Errorf("vm: program image: %w", err)
		return m
	}
	m.heapNext = mem.HeapBase

	if m.stack, err = m.Mem.Map("stack", mem.StackTop-mem.StackSize, mem.StackSize, true); err != nil {
		m.initErr = fmt.Errorf("vm: program image: %w", err)
		return m
	}
	m.stackBase = mem.StackTop - mem.StackSize

	// Dual-stack engines get the segregated "unsafe" segment with its own
	// per-run bias; for everyone else ustack stays nil and unsafeTop/usp
	// stay 0, leaving segment lists, digests and stack accounting exactly
	// as before the region seam existed.
	_, dualStack := engine.(layout.DualStacker)
	if dualStack {
		if m.ustack, err = m.Mem.Map("ustack", mem.UnsafeStackTop-mem.UnsafeStackSize, mem.UnsafeStackSize, true); err != nil {
			m.initErr = fmt.Errorf("vm: program image: %w", err)
			return m
		}
		m.unsafeBase = mem.UnsafeStackTop - mem.UnsafeStackSize
	}

	m.arm(engine, env, &o)
	return m
}

// arm applies the per-run half of construction: engine rebias, guard-key
// draw and derived keys, engine-dependent pricing state, profiler
// attachment and the jitter table. Shared verbatim between New and Reset
// so a reset Machine's observable behaviour — including the TRNG draw
// sequence — is bit-identical to a freshly constructed one.
func (m *Machine) arm(engine layout.Engine, env *Env, o *Options) {
	m.Engine = engine
	m.Env = env
	m.hostHook = o.HostHook
	m.entropyCheck = o.EntropyCheck

	engine.NewRun()
	m.stackTop = mem.StackTop - engine.StackBias()
	m.sp = m.stackTop
	if ds, ok := engine.(layout.DualStacker); ok {
		m.unsafeTop = mem.UnsafeStackTop - ds.UnsafeBias()
		m.usp = m.unsafeTop
	}
	m.stats.StackPeak = 0
	// The guard key must be unpredictable; retry a failing TRNG a bounded
	// number of times, then fault construction rather than running with a
	// known (zero) key.
	const guardKeyRetries = 8
	keyed := false
	for i := 0; i <= guardKeyRetries && !keyed; i++ {
		if v, ok := o.TRNG(); ok {
			m.guardKey = v
			keyed = true
		}
	}
	if !keyed {
		m.initErr = &EntropyFault{Func: "init (guard key)", Err: rng.ErrEntropyExhausted}
		return
	}
	// Canary and shadow keys derive deterministically from the guard key:
	// engines using those slots consume no extra TRNG draws, so every
	// pre-existing engine's entropy stream is bit-identical to before.
	m.canaryKey = splitmix64(m.guardKey)
	m.shadowKey = splitmix64(m.canaryKey)

	// Engine-dependent pricing state. Streams and tables depend on the
	// engine only through its AddrLocal surcharge (and streams on whether a
	// profile is attached), so a reset that swaps engines within the same
	// surcharge (the common grid pattern: baseline, then each scheme) skips
	// the rebuild and the cache lookup entirely.
	counted := o.Prof != nil
	if ae := engine.AddrLocalExtraCycles(); !m.armed || ae != m.addrExtra || counted != m.counted {
		m.addrExtra = ae
		m.counted = counted
		m.buildCostTable()
		switch m.tier {
		case TierBlock:
			m.ccode = m.codeCache.blockCompiled(m.Prog, m.costs, ae, counted, m.globalAddr, m.dataAddr)
		case TierCompiled:
			m.ccode = m.codeCache.compiled(m.Prog, m.costs, ae, counted, m.globalAddr, m.dataAddr)
		}
	}
	m.armed = true

	m.prof = o.Prof
	m.profProlog, m.profDefense = nil, nil
	if o.Prof != nil {
		if pp, ok := engine.(PrologueProfiler); ok {
			m.profProlog = pp
		}
		if dp, ok := engine.(DefenseProfiler); ok {
			m.profDefense = dp
		}
		// The compiled tiers' basic-block count slab. Allocated once per
		// Machine (and retained across resets), so attaching a profile adds
		// zero per-step and zero per-call allocations (TestProfileAllocs
		// pins this).
		if m.ccode != nil && len(m.profBB) != len(m.ccode.bbs) {
			m.profBB = make([]uint64, len(m.ccode.bbs))
		}
	}

	if o.JitterAmp > 0 && engine.Name() != "fixed" {
		n := len(m.Prog.Funcs)
		if cap(m.jitterBuf) < n {
			m.jitterBuf = make([]float64, n)
		}
		m.jitter = m.jitterBuf[:n]
		s := o.JitterSeed
		for i := range m.jitter {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			// Uniform in [1-amp, 1+amp].
			u := float64(z%100001)/100000*2 - 1
			m.jitter[i] = 1 + u*o.JitterAmp
		}
	} else {
		m.jitter = nil
	}
}

// buildCostTable fills the per-opcode price table from the cost model and
// the engine's AddrLocal surcharge. It delegates to buildCostTableFrom —
// the single source of truth shared with the bytecode compiler, so both
// tiers price instructions from identical float values.
func (m *Machine) buildCostTable() {
	m.costTable = buildCostTableFrom(&m.costs, m.Engine.AddrLocalExtraCycles())
}

// regSlab returns a zeroed register file for a frame at the given call
// depth. Slabs are pooled per depth (nested frames never share) and
// cleared on reuse, so a recycled slab is indistinguishable from a fresh
// allocation.
func (m *Machine) regSlab(depth, n int) []int64 {
	for len(m.regSlabs) <= depth {
		m.regSlabs = append(m.regSlabs, nil)
	}
	s := m.regSlabs[depth]
	if cap(s) < n {
		if m.prof != nil {
			m.profFrameAlloc++
		}
		s = make([]int64, n)
		m.regSlabs[depth] = s
		return s
	}
	if m.prof != nil {
		m.profFrameReuse++
	}
	s = s[:n]
	clear(s)
	return s
}

// argSlab returns an argument scratch buffer for a call issued at the
// given depth. The caller fully overwrites all n slots before use, and the
// buffer is consumed (spilled to simulated memory or read by the host
// call) before any nested call at the same depth can reuse it.
func (m *Machine) argSlab(depth, n int) []int64 {
	for len(m.argSlabs) <= depth {
		m.argSlabs = append(m.argSlabs, nil)
	}
	s := m.argSlabs[depth]
	if cap(s) < n {
		if m.prof != nil {
			m.profFrameAlloc++
		}
		s = make([]int64, n)
		m.argSlabs[depth] = s
		return s
	}
	if m.prof != nil {
		m.profFrameReuse++
	}
	return s[:n]
}

func alignU(n, a uint64) uint64 {
	if a <= 1 {
		return n
	}
	if rem := n % a; rem != 0 {
		return n + a - rem
	}
	return n
}

// splitmix64 is the standard 64-bit finalizing mixer; derives the canary
// and shadow keys from the guard key.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// notePeak folds the current extent of both stacks into StackPeak. For
// single-stack engines unsafeTop and usp are both 0, so the value reduces
// to the pre-refactor stackTop-sp expression bit for bit.
func (m *Machine) notePeak() {
	if peak := m.stackTop - m.sp + (m.unsafeTop - m.usp); peak > m.stats.StackPeak {
		m.stats.StackPeak = peak
	}
}

// Stats returns execution counters accumulated so far.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Instructions = m.steps
	s.HeapUsed = m.heapNext - mem.HeapBase
	return s
}

// ResidentBytes models the process's maximum resident set: program image
// (rodata + globals + scheme rodata such as the P-BOX) plus touched heap and
// peak stack. This backs the Fig 4 memory overhead comparison.
func (m *Machine) ResidentBytes() int64 {
	return int64(m.rodata.Size()) + int64(m.globals.Size()) +
		int64(m.heapNext-mem.HeapBase) + int64(m.stats.StackPeak) +
		m.Engine.RodataBytes()
}

// GlobalAddr returns the address of global index i.
func (m *Machine) GlobalAddr(i int) uint64 { return m.globalAddr[i] }

// GlobalAddrByName resolves a global's address by name.
func (m *Machine) GlobalAddrByName(name string) (uint64, bool) {
	for i, g := range m.Prog.Globals {
		if g.Name == name {
			return m.globalAddr[i], true
		}
	}
	return 0, false
}

// ActiveFrames returns the live call stack (innermost last). Attack code
// uses this to model pointers an attacker has disclosed from memory.
func (m *Machine) ActiveFrames() []ActiveFrame {
	out := make([]ActiveFrame, len(m.frames))
	for i, fr := range m.frames {
		out[i] = ActiveFrame{Fn: fr.fn, Base: fr.base, UnsafeBase: fr.ubase, Layout: fr.layout}
	}
	return out
}

// ActiveFrame is one live invocation.
type ActiveFrame struct {
	Fn   *ir.Function
	Base uint64
	// UnsafeBase is the frame's base in the unsafe stack region (0 when the
	// layout is single-region). Offsets of allocas with Region(i) ==
	// layout.RegionUnsafe are relative to it.
	UnsafeBase uint64
	Layout     layout.FrameLayout
}

// InitErr reports a construction-time failure (segment mapping, guard-key
// entropy), or nil. Run and CallByName return it as well; this accessor
// lets callers fail fast without issuing a run.
func (m *Machine) InitErr() error { return m.initErr }

// Run executes main and returns its value. Faults, guard violations and
// aborts are returned as errors; exit(n) returns n with a nil error.
func (m *Machine) Run() (int64, error) {
	if m.initErr != nil {
		return 0, m.initErr
	}
	fn, ok := m.Prog.FuncByName("main")
	if !ok {
		return 0, fmt.Errorf("vm: program %s has no main", m.Prog.Name)
	}
	if m.prof != nil {
		defer m.flushProfile()
	}
	v, err := m.call(fn, nil)
	if err != nil {
		var exit *exitRequest
		if e, ok := err.(*exitRequest); ok { //nolint:errorlint // internal sentinel, never wrapped
			exit = e
			return exit.code, nil
		}
		return 0, err
	}
	return v, nil
}

// RunContext executes main under a watchdog: when ctx carries a deadline or
// is cancelable, both execution tiers poll for cancellation every
// supervisionInterval steps at a resumable chunk boundary and return a
// *Canceled (with partial Stats intact) once the context ends. A background
// context runs exactly like Run.
func (m *Machine) RunContext(ctx context.Context) (int64, error) {
	if m.initErr != nil {
		return 0, m.initErr
	}
	if ctx == nil || ctx.Done() == nil {
		return m.Run()
	}
	if ctx.Err() != nil {
		return 0, &Canceled{Cause: context.Cause(ctx)}
	}
	m.watchdog = true
	m.interrupted.Store(false)
	stop := context.AfterFunc(ctx, func() { m.interrupted.Store(true) })
	defer func() {
		stop()
		m.watchdog = false
	}()
	v, err := m.Run()
	var c *Canceled
	if errors.As(err, &c) && c.Cause == nil {
		c.Cause = context.Cause(ctx)
	}
	return v, err
}

// CallByName invokes an arbitrary function (used by tests and harnesses).
func (m *Machine) CallByName(name string, args ...int64) (int64, error) {
	if m.initErr != nil {
		return 0, m.initErr
	}
	fn, ok := m.Prog.FuncByName(name)
	if !ok {
		return 0, fmt.Errorf("vm: no function %s", name)
	}
	if m.prof != nil {
		defer m.flushProfile()
	}
	v, err := m.call(fn, args)
	if err != nil {
		if e, ok := err.(*exitRequest); ok { //nolint:errorlint // internal sentinel
			return e.code, nil
		}
		return 0, err
	}
	return v, nil
}

// call allocates a frame per the engine's layout and interprets fn.
func (m *Machine) call(fn *ir.Function, args []int64) (int64, error) {
	if len(m.frames) >= m.maxDepth {
		return 0, &StackOverflow{Func: fn.Name}
	}
	fl := m.Engine.Layout(fn)
	// The layout draw above may have pushed the engine's entropy source
	// onto the terminal rung of its ladder; randomizing with dead entropy
	// silently voids the defense, so the configured policy faults here.
	// This check is tier-shared (both executors route calls through here),
	// keeping faulted runs bit-identical across tiers.
	if m.entropyCheck != nil {
		if err := m.entropyCheck(); err != nil {
			return 0, &EntropyFault{Func: fn.Name, Err: err}
		}
	}
	savedSP := m.sp
	base := (m.sp - uint64(fl.Size)) &^ 15
	if base < m.stackBase {
		return 0, &StackOverflow{Func: fn.Name}
	}
	m.sp = base
	// Multi-region frames additionally carve a frame from the unsafe stack.
	var ubase uint64
	savedUSP := m.usp
	if fl.Regions != nil {
		ubase = (m.usp - uint64(fl.UnsafeSize)) &^ 15
		if ubase < m.unsafeBase {
			m.sp = savedSP
			return 0, &StackOverflow{Func: fn.Name}
		}
		m.usp = ubase
	}
	m.notePeak()
	m.stats.Calls++
	if d := len(m.frames) + 1; d > m.stats.MaxDepth {
		m.stats.MaxDepth = d
	}
	if fl.Size > m.stats.MaxFrameSize {
		m.stats.MaxFrameSize = fl.Size
	}
	m.frames = append(m.frames, frameRecord{
		fn: fn, base: base, ubase: ubase, layout: fl,
		savedSP: savedSP, savedUSP: savedUSP, savedShadow: len(m.shadow),
	})

	// Effective offsets: for single-region layouts these are the layout's
	// offsets verbatim (no copy, no extra work). Multi-region layouts get a
	// pooled slab with unsafe-region offsets rebased so base+offset (mod
	// 2^64) lands at ubase+offset inside the unsafe segment — the executors
	// and the call-free compiled core run unchanged either way.
	offsets := fl.Offsets
	if fl.Regions != nil {
		offsets = m.effSlab(len(m.frames)-1, len(fl.Offsets))
		for i, off := range fl.Offsets {
			if fl.Regions[i] == layout.RegionUnsafe {
				offsets[i] = int64(ubase + uint64(off) - base)
			} else {
				offsets[i] = off
			}
		}
	}

	// Spill arguments into their (permuted) allocas. Param allocas always
	// live in the frame, i.e. the stack segment, so the direct segment view
	// is the common path (same pattern as the integrity-slot write below);
	// the general WriteU handles unsafe-region params and produces the
	// fault otherwise.
	for i := 0; i < fn.NumParams && i < len(args); i++ {
		w := int(fn.Allocas[i].Size)
		if w > 8 {
			w = 8
		}
		if !m.stack.WriteUAt(base+uint64(offsets[i]), w, uint64(args[i])) {
			if err := m.Mem.WriteU(base+uint64(offsets[i]), w, uint64(args[i])); err != nil {
				m.popFrame()
				return 0, &MemFault{Func: fn.Name, PC: -1, Err: err}
			}
		}
	}
	// Write the integrity slots. Slots always lie in the main frame, i.e.
	// the stack segment, so the direct segment view is the common path; the
	// general WriteU produces the fault otherwise.
	for _, s := range fl.SlotsView() {
		var val uint64
		switch s.Kind {
		case layout.SlotGuard:
			// Smokestack's encoded function identifier (§III-D2).
			val = m.guardKey ^ uint64(fn.ID)
		case layout.SlotCanary:
			val = m.canaryKey ^ uint64(fn.ID)
		case layout.SlotReturn:
			// Per-invocation token, mirrored between the frame slot and the
			// disjoint shadow stack (popFrame truncates to savedShadow, so
			// fault paths stay balanced).
			val = m.shadowKey ^ (uint64(len(m.shadow)+1) * 0x9e3779b97f4a7c15)
			m.shadow = append(m.shadow, val)
		}
		saddr := base + uint64(s.Offset)
		if !m.stack.WriteU64At(saddr, val) {
			if err := m.Mem.WriteU(saddr, 8, val); err != nil {
				m.popFrame()
				return 0, &MemFault{Func: fn.Name, PC: -1, Err: err}
			}
		}
	}
	// The prologue price is captured in a local so an attached profiler can
	// bucket it without a second engine call; the stats accumulation below
	// performs the exact float operations of the original
	// `CallBase + PrologueCycles(fn)` expression, keeping cycles
	// bit-identical whether or not a profile is attached.
	pro := m.Engine.PrologueCycles(fn)
	m.stats.Cycles += m.costs.CallBase + pro
	if m.prof != nil {
		m.profCalls++
		if m.profProlog != nil {
			draw, lookup, guard, spread := m.profProlog.PrologueBreakdown(fn)
			m.profCat[catDraw].Count++
			m.profCat[catDraw].Cycles += draw
			m.profCat[catLookup].Count++
			m.profCat[catLookup].Cycles += lookup
			if guard != 0 {
				m.profCat[catGuardWrite].Count++
				m.profCat[catGuardWrite].Cycles += guard
			}
			if spread != 0 {
				m.profCat[catSpread].Count++
				m.profCat[catSpread].Cycles += spread
			}
		} else if m.profDefense != nil {
			draw, cw, spush, rebase, _, _ := m.profDefense.DefenseBreakdown(fn)
			if draw != 0 {
				m.profCat[catDraw].Count++
				m.profCat[catDraw].Cycles += draw
			}
			if cw != 0 {
				m.profCat[catCanaryWrite].Count++
				m.profCat[catCanaryWrite].Cycles += cw
			}
			if spush != 0 {
				m.profCat[catShadowPush].Count++
				m.profCat[catShadowPush].Cycles += spush
			}
			if rebase != 0 {
				m.profCat[catUnsafeRebase].Count++
				m.profCat[catUnsafeRebase].Cycles += rebase
			}
			if rest := pro - draw - cw - spush - rebase; rest != 0 {
				m.profCat[catPrologueOther].Count++
				m.profCat[catPrologueOther].Cycles += rest
			}
		} else if pro != 0 {
			m.profCat[catPrologueOther].Count++
			m.profCat[catPrologueOther].Cycles += pro
		}
	}

	var ret int64
	var err error
	if m.ccode != nil {
		ret, err = m.execCompiled(fn, &m.ccode.funcs[fn.ID], base, offsets)
	} else {
		ret, err = m.exec(fn, base, offsets)
	}
	if err != nil {
		m.popFrame()
		return 0, err
	}
	// Epilogue integrity checks (stack-segment view, same fallback as
	// above); each slot kind raises its own typed fault.
	for _, s := range fl.SlotsView() {
		saddr := base + uint64(s.Offset)
		v, ok := m.stack.ReadU64At(saddr)
		if !ok {
			var merr error
			v, merr = m.Mem.ReadU(saddr, 8)
			if merr != nil {
				m.popFrame()
				return 0, &MemFault{Func: fn.Name, PC: -1, Err: merr}
			}
		}
		switch s.Kind {
		case layout.SlotGuard:
			if v != m.guardKey^uint64(fn.ID) {
				m.popFrame()
				return 0, &GuardViolation{Func: fn.Name, Addr: saddr}
			}
		case layout.SlotCanary:
			if v != m.canaryKey^uint64(fn.ID) {
				m.popFrame()
				return 0, &CanaryViolation{Func: fn.Name, Addr: saddr}
			}
		case layout.SlotReturn:
			if len(m.shadow) == 0 || v != m.shadow[len(m.shadow)-1] {
				m.popFrame()
				return 0, &ShadowStackViolation{Func: fn.Name, Addr: saddr}
			}
		}
	}
	epi := m.Engine.EpilogueCycles(fn)
	m.stats.Cycles += epi
	if m.prof != nil && epi != 0 {
		if m.profDefense != nil {
			_, _, _, _, ccheck, scheck := m.profDefense.DefenseBreakdown(fn)
			if ccheck != 0 {
				m.profCat[catCanaryCheck].Count++
				m.profCat[catCanaryCheck].Cycles += ccheck
			}
			if scheck != 0 {
				m.profCat[catShadowCheck].Count++
				m.profCat[catShadowCheck].Cycles += scheck
			}
			if rest := epi - ccheck - scheck; rest != 0 {
				m.profCat[catGuardCheck].Count++
				m.profCat[catGuardCheck].Cycles += rest
			}
		} else {
			m.profCat[catGuardCheck].Count++
			m.profCat[catGuardCheck].Cycles += epi
		}
	}
	m.popFrame()
	return ret, nil
}

func (m *Machine) popFrame() {
	fr := m.frames[len(m.frames)-1]
	m.sp = fr.savedSP
	m.usp = fr.savedUSP
	if len(m.shadow) > fr.savedShadow {
		m.shadow = m.shadow[:fr.savedShadow]
	}
	m.frames = m.frames[:len(m.frames)-1]
}

// effSlab returns an effective-offsets scratch slab for a multi-region
// frame at the given depth; the caller fully overwrites all n slots. Same
// pooling discipline as regSlab/argSlab.
func (m *Machine) effSlab(depth, n int) []int64 {
	for len(m.effSlabs) <= depth {
		m.effSlabs = append(m.effSlabs, nil)
	}
	s := m.effSlabs[depth]
	if cap(s) < n {
		s = make([]int64, n)
		m.effSlabs[depth] = s
		return s
	}
	return s[:n]
}

// exec interprets the function body. This is the simulator's innermost
// loop; it works on pooled register slabs, prices instructions through the
// per-opcode cost table, keeps the step counter in a local (synced around
// calls and on exit), and routes loads/stores through the segment-cached
// fast path. None of that changes a modeled cycle — TestCycleInvariance
// pins the accounting bit-for-bit.
func (m *Machine) exec(fn *ir.Function, base uint64, offsets []int64) (int64, error) {
	regs := m.regSlab(len(m.frames)-1, fn.NumRegs)
	code := fn.Code
	costMul := 1.0
	if m.jitter != nil {
		costMul = m.jitter[fn.ID]
	}
	ct := &m.costTable
	mm := m.Mem
	// Hoisted profiling pointers: nil when dormant, so each of the four
	// counting sites below is a single predictable never-taken branch and
	// the cycle accounting is untouched either way.
	var pw *[ir.NumOps]float64
	var pnn *[ir.NumOps]uint64
	if m.prof != nil {
		pw, pnn = &m.profW, &m.profN
	}
	// Per-pc execution counts for the block tier's profiling pre-run
	// (blocktier.go). Same hoisted-nil discipline as the profiler.
	var bb []uint64
	if m.bbCount != nil {
		bb = m.bbCount[fn.ID]
	}
	cycles := 0.0
	steps, limit := m.steps, m.stepLimit
	// next is the supervised chunk boundary: with the watchdog dormant it
	// equals limit and this loop is bit-identical to the unsupervised one;
	// armed, it forces a cancellation poll every supervisionInterval steps.
	next := limit
	if m.watchdog {
		next = supNext(steps, limit)
	}
	pc := 0
	defer func() {
		m.steps = steps
		m.stats.Cycles += cycles * costMul
	}()
	for {
		if steps >= next {
			if steps >= limit {
				return 0, &StepLimit{Limit: limit}
			}
			if m.interrupted.Load() {
				return 0, &Canceled{}
			}
			next = supNext(steps, limit)
		}
		steps++
		if bb != nil {
			bb[pc]++
		}
		in := &code[pc]
		op := in.Op
		switch op {
		case ir.OpNop:
		case ir.OpConst:
			regs[in.Dst] = in.Imm
		case ir.OpMov:
			regs[in.Dst] = regs[in.A]
		case ir.OpAdd:
			regs[in.Dst] = regs[in.A] + regs[in.B]
		case ir.OpSub:
			regs[in.Dst] = regs[in.A] - regs[in.B]
		case ir.OpMul:
			regs[in.Dst] = regs[in.A] * regs[in.B]
		case ir.OpDiv:
			if regs[in.B] == 0 {
				// Count-only attribution of the faulting dispatch: the loop
				// head consumed its step but no cycles were charged, so the
				// count keeps the profile's op rows summing to
				// Stats.Instructions while adding zero cycles (pnn without
				// pw).
				if pnn != nil {
					pnn[op]++
				}
				return 0, &DivideByZero{Func: fn.Name, PC: pc}
			}
			regs[in.Dst] = regs[in.A] / regs[in.B]
		case ir.OpMod:
			if regs[in.B] == 0 {
				if pnn != nil {
					pnn[op]++
				}
				return 0, &DivideByZero{Func: fn.Name, PC: pc}
			}
			regs[in.Dst] = regs[in.A] % regs[in.B]
		case ir.OpAnd:
			regs[in.Dst] = regs[in.A] & regs[in.B]
		case ir.OpOr:
			regs[in.Dst] = regs[in.A] | regs[in.B]
		case ir.OpXor:
			regs[in.Dst] = regs[in.A] ^ regs[in.B]
		case ir.OpShl:
			regs[in.Dst] = regs[in.A] << (uint64(regs[in.B]) & 63)
		case ir.OpShr:
			regs[in.Dst] = regs[in.A] >> (uint64(regs[in.B]) & 63)
		case ir.OpNeg:
			regs[in.Dst] = -regs[in.A]
		case ir.OpNot:
			regs[in.Dst] = ^regs[in.A]
		case ir.OpSetZ:
			if regs[in.A] == 0 {
				regs[in.Dst] = 1
			} else {
				regs[in.Dst] = 0
			}
		case ir.OpEq:
			regs[in.Dst] = b2i(regs[in.A] == regs[in.B])
		case ir.OpNe:
			regs[in.Dst] = b2i(regs[in.A] != regs[in.B])
		case ir.OpLt:
			regs[in.Dst] = b2i(regs[in.A] < regs[in.B])
		case ir.OpLe:
			regs[in.Dst] = b2i(regs[in.A] <= regs[in.B])
		case ir.OpGt:
			regs[in.Dst] = b2i(regs[in.A] > regs[in.B])
		case ir.OpGe:
			regs[in.Dst] = b2i(regs[in.A] >= regs[in.B])
		case ir.OpLoad:
			v, ok := mm.ReadUFast(uint64(regs[in.A]), int(in.Width))
			if !ok {
				var err error
				v, err = mm.ReadU(uint64(regs[in.A]), int(in.Width))
				if err != nil {
					// Count-only (see OpDiv): the faulted access charged no
					// cycles but its step was consumed.
					if pnn != nil {
						pnn[op]++
					}
					return 0, &MemFault{Func: fn.Name, PC: pc, Err: err}
				}
			}
			regs[in.Dst] = extend(v, in.Width, in.Unsigned)
		case ir.OpStore:
			if !mm.WriteUFast(uint64(regs[in.A]), int(in.Width), uint64(regs[in.B])) {
				if err := mm.WriteU(uint64(regs[in.A]), int(in.Width), uint64(regs[in.B])); err != nil {
					if pnn != nil {
						pnn[op]++
					}
					return 0, &MemFault{Func: fn.Name, PC: pc, Err: err}
				}
			}
		case ir.OpAddrLocal:
			regs[in.Dst] = int64(base + uint64(offsets[in.Sym]))
		case ir.OpAddrGlobal:
			regs[in.Dst] = int64(m.globalAddr[in.Sym])
		case ir.OpAddrData:
			regs[in.Dst] = int64(m.dataAddr[in.Sym])
		case ir.OpJmp:
			pc = int(in.Target0)
			cycles += ct[ir.OpJmp]
			if pw != nil {
				pw[ir.OpJmp] += costMul
				pnn[ir.OpJmp]++
			}
			continue
		case ir.OpBr:
			if regs[in.A] != 0 {
				pc = int(in.Target0)
			} else {
				pc = int(in.Target1)
			}
			cycles += ct[ir.OpBr]
			if pw != nil {
				pw[ir.OpBr] += costMul
				pnn[ir.OpBr]++
			}
			continue
		case ir.OpCall:
			args := m.argSlab(len(m.frames), len(in.Args))
			for i, r := range in.Args {
				args[i] = regs[r]
			}
			// Attribute the call dispatch BEFORE descending (the compiled
			// driver does the same at evCall): its step was consumed at the
			// loop head, and an erroring callee — fault, step limit,
			// cancellation — unwinds past the shared tail, which would leak
			// one counted-but-unattributed instruction per live call frame.
			if pw != nil {
				pw[op] += costMul
				pnn[op]++
			}
			// Flush this frame's cycles and step count before descending so
			// recursive accounting stays ordered.
			m.stats.Cycles += cycles * costMul
			cycles = 0
			m.steps = steps
			v, err := m.call(m.Prog.Funcs[in.Sym], args)
			steps = m.steps
			if err != nil {
				return 0, err
			}
			if in.Dst != ir.NoReg {
				regs[in.Dst] = v
			}
			cycles += ct[op]
			pc++
			continue
		case ir.OpCallHost:
			args := m.argSlab(len(m.frames), len(in.Args))
			for i, r := range in.Args {
				args[i] = regs[r]
			}
			// Same pre-attribution as OpCall: a faulting host call must not
			// lose its already-stepped dispatch from the profile.
			if pw != nil {
				pw[op] += costMul
				pnn[op]++
			}
			m.steps = steps
			v, err := m.hostCall(fn, pc, int(in.Sym), args)
			if err != nil {
				return 0, err
			}
			if in.Dst != ir.NoReg {
				regs[in.Dst] = v
			}
			cycles += ct[op]
			pc++
			continue
		case ir.OpRet:
			cycles += ct[ir.OpRet]
			if pw != nil {
				pw[ir.OpRet] += costMul
				pnn[ir.OpRet]++
			}
			if in.A == ir.NoReg {
				return 0, nil
			}
			return regs[in.A], nil
		default:
			return 0, fmt.Errorf("vm: unknown opcode %v in %s at pc=%d", op, fn.Name, pc)
		}
		cycles += ct[op]
		if pw != nil {
			pw[op] += costMul
			pnn[op]++
		}
		pc++
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// extend sign- or zero-extends a loaded value.
func extend(v uint64, width uint8, unsigned bool) int64 {
	switch width {
	case 1:
		if unsigned {
			return int64(uint8(v))
		}
		return int64(int8(v))
	case 4:
		if unsigned {
			return int64(uint32(v))
		}
		return int64(int32(v))
	default:
		return int64(v)
	}
}

// hostIndex resolves builtin names once.
var hostNames = func() []string {
	names := make([]string, len(sema.Builtins))
	for i, b := range sema.Builtins {
		names[i] = b.Name
	}
	return names
}()
