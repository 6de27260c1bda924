// Package layout defines the stack frame layout engines the VM consults on
// every function call. Five engines reproduce the defense landscape the
// paper evaluates (§II-B, §III):
//
//   - Fixed: declaration-order frames — the deterministic clang -O2
//     baseline every attack is calibrated against.
//   - StaticRand: compile-time permutation of allocations (Giuffrida et
//     al.): randomized once, identical for every invocation and every run.
//   - Padding: Forrest et al.'s compile-time random padding (one of 8, 16,
//     …, 64 bytes) before frames larger than 16 bytes.
//   - BaseRand: stack base address randomization (ASLR-style), one random
//     bias per program run.
//   - Smokestack: the paper's contribution — a fresh P-BOX permutation per
//     invocation, a guard (function-identifier) slot participating in the
//     permutation, and randomized padding before VLA allocations.
//
// Engines also price their instrumentation for the VM's cycle model and
// report the read-only data they add (the Fig 4 memory overhead).
package layout

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/pbox"
	"repro/internal/rng"
)

// SlotKind classifies an integrity slot a layout engine places in the
// frame. Each kind has its own write value, check point and typed fault in
// the VM (GuardViolation / CanaryViolation / ShadowStackViolation).
type SlotKind uint8

// Integrity slot kinds.
const (
	// SlotGuard is Smokestack's encoded function-identifier slot: written
	// with guardKey^fn.ID at prologue, checked at epilogue (§III-D2).
	SlotGuard SlotKind = iota
	// SlotCanary is a Stackato/StackGuard-style per-frame canary: a secret
	// per-run key encoded with the function identity, checked at epilogue.
	SlotCanary
	// SlotReturn is a shadow return-address token: the VM pushes a
	// per-invocation token on a disjoint (unreadable) shadow stack and
	// mirrors it into this frame slot; an epilogue mismatch means the
	// backward edge was corrupted.
	SlotReturn
)

// String names the slot kind (diagnostics and layout dumps).
func (k SlotKind) String() string {
	switch k {
	case SlotGuard:
		return "guard"
	case SlotCanary:
		return "canary"
	case SlotReturn:
		return "shadow"
	}
	return fmt.Sprintf("slot(%d)", uint8(k))
}

// Stack regions an alloca may be placed in. Region values index the VM's
// stack segments; engines without dual stacks leave FrameLayout.Regions nil
// (everything in the main region).
const (
	// RegionMain is the ordinary stack frame.
	RegionMain uint8 = 0
	// RegionUnsafe is the segregated "unsafe" stack segment (CleanStack):
	// objects reachable from pointer-taking or array code live there, away
	// from scalars and integrity slots.
	RegionUnsafe uint8 = 1
)

// IntegritySlot is one engine-declared integrity slot. Offset is relative
// to the main-region frame base; every slot is 8 bytes.
type IntegritySlot struct {
	Kind   SlotKind
	Offset int64
}

// maxIntegritySlots bounds the slots a layout may declare. The array is
// inline in FrameLayout so declaring slots never allocates on the call
// path (TestProfileAllocsPerCall pins per-call allocations).
const maxIntegritySlots = 2

// FrameLayout describes the stack frame organization for one invocation.
type FrameLayout struct {
	// Offsets holds each alloca's offset from its region's frame base (low
	// address), indexed like ir.Function.Allocas. For allocas in the main
	// region the offset is relative to the main frame base; for allocas in
	// the unsafe region it is relative to the unsafe frame base.
	Offsets []int64
	// Size is the total main-region frame extent (16-byte aligned).
	Size int64
	// Slots holds the engine's integrity slots (guard, canary, shadow
	// token); only the first NumSlots entries are meaningful. Slot offsets
	// are main-region relative.
	Slots    [maxIntegritySlots]IntegritySlot
	NumSlots int
	// Regions assigns each alloca to a stack region (indexed like Offsets).
	// nil means every alloca lives in RegionMain — the single-stack common
	// case, which the VM treats exactly as before the region seam existed.
	Regions []uint8
	// UnsafeSize is the unsafe-region frame extent (16-byte aligned; 0
	// when Regions is nil or nothing was segregated).
	UnsafeSize int64
}

// AddSlot appends an integrity slot; it panics beyond maxIntegritySlots
// (an engine bug, not an input condition).
func (fl *FrameLayout) AddSlot(kind SlotKind, off int64) {
	if fl.NumSlots >= maxIntegritySlots {
		panic("layout: too many integrity slots")
	}
	fl.Slots[fl.NumSlots] = IntegritySlot{Kind: kind, Offset: off}
	fl.NumSlots++
}

// GuardOffset returns the offset of the first SlotGuard slot, or -1 when
// the layout places none — the pre-refactor field as a derived accessor.
func (fl FrameLayout) GuardOffset() int64 {
	for i := 0; i < fl.NumSlots; i++ {
		if fl.Slots[i].Kind == SlotGuard {
			return fl.Slots[i].Offset
		}
	}
	return -1
}

// SlotsView returns the meaningful prefix of Slots.
func (fl *FrameLayout) SlotsView() []IntegritySlot { return fl.Slots[:fl.NumSlots] }

// Region returns the stack region of alloca i (RegionMain when Regions is
// nil).
func (fl FrameLayout) Region(i int) uint8 {
	if fl.Regions == nil {
		return RegionMain
	}
	return fl.Regions[i]
}

// Engine decides frame layouts and prices its instrumentation. The
// interface is capability-based: a layout may place each alloca in one of
// several stack regions (FrameLayout.Regions), declare zero or more
// integrity slots with per-slot check points (FrameLayout.Slots), and
// request a shadow return stack (a SlotReturn slot). Engines with a second
// stack segment additionally implement DualStacker; engines with
// decomposable instrumentation prices implement vm.PrologueProfiler or
// vm.DefenseProfiler for the cycle-attribution profiler.
type Engine interface {
	// Name identifies the scheme.
	Name() string
	// NewRun is called once per program execution (process start); engines
	// with per-run randomness (stack base) re-draw here.
	NewRun()
	// Layout computes the frame for one invocation of fn.
	Layout(fn *ir.Function) FrameLayout
	// PrologueCycles is the extra entry cost vs. the uninstrumented
	// baseline.
	PrologueCycles(fn *ir.Function) float64
	// EpilogueCycles is the extra return cost (guard check).
	EpilogueCycles(fn *ir.Function) float64
	// AddrLocalExtraCycles is the extra cost per local-address formation
	// (the GEP rebase the instrumentation introduces).
	AddrLocalExtraCycles() float64
	// VLAPad returns the dummy padding to place before a VLA allocation
	// (0 for engines that do not randomize VLAs).
	VLAPad() int64
	// StackBias returns the current run's stack base bias in bytes
	// (16-byte aligned; 0 for engines without base randomization).
	StackBias() uint64
	// RodataBytes is the read-only data the scheme adds (P-BOX size).
	RodataBytes() int64
}

// declOrder is the declaration-order layout — the shared baseline frame —
// of the function with frame facts ff (ir.Function.Frame). Its offsets
// are the facts' own slice, shared by every engine instance.
func declOrder(ff *ir.FrameFacts) FrameLayout {
	return FrameLayout{Offsets: ff.Offsets, Size: ff.Size}
}

// splitmix is the deterministic stream used for compile-time randomness.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Fixed

// Fixed is the uninstrumented baseline.
type Fixed struct{}

// NewFixed returns the baseline engine.
func NewFixed() *Fixed { return &Fixed{} }

// Name implements Engine.
func (*Fixed) Name() string { return "fixed" }

// NewRun implements Engine.
func (*Fixed) NewRun() {}

// Layout implements Engine.
func (*Fixed) Layout(fn *ir.Function) FrameLayout {
	return declOrder(fn.Frame())
}

// PrologueCycles implements Engine.
func (*Fixed) PrologueCycles(*ir.Function) float64 { return 0 }

// EpilogueCycles implements Engine.
func (*Fixed) EpilogueCycles(*ir.Function) float64 { return 0 }

// AddrLocalExtraCycles implements Engine.
func (*Fixed) AddrLocalExtraCycles() float64 { return 0 }

// VLAPad implements Engine.
func (*Fixed) VLAPad() int64 { return 0 }

// StackBias implements Engine.
func (*Fixed) StackBias() uint64 { return 0 }

// RodataBytes implements Engine.
func (*Fixed) RodataBytes() int64 { return 0 }

// ---------------------------------------------------------------------------
// StaticRand

// StaticRand permutes each function's allocations once, at "compile time";
// the permutation never changes afterwards, so a single disclosure
// de-randomizes it (§II-C). The layout cache is mutex-guarded, so one
// engine may safely back several concurrently-running Machines (layouts
// are pure functions of the seed, so racing builders agree on the value).
type StaticRand struct {
	seed  uint64
	mu    sync.Mutex
	cache map[int]FrameLayout
}

// NewStaticRand builds a compile-time permutation engine from a seed (the
// "compilation"); recompiling with a new seed yields a new static layout.
func NewStaticRand(seed uint64) *StaticRand {
	return &StaticRand{seed: seed, cache: make(map[int]FrameLayout)}
}

// Name implements Engine.
func (*StaticRand) Name() string { return "staticrand" }

// NewRun implements Engine: the permutation is compile-time, so process
// restarts change nothing — exactly the weakness the paper exploits.
func (*StaticRand) NewRun() {}

// Layout implements Engine.
func (s *StaticRand) Layout(fn *ir.Function) FrameLayout {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fl, ok := s.cache[fn.ID]; ok {
		return fl
	}
	n := len(fn.Allocas)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r := &splitmix{s: s.seed ^ (uint64(fn.ID)+1)*0xff51afd7ed558ccd}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	offsets := make([]int64, n)
	var ind int64
	for _, ai := range order {
		ind = ir.AlignUp(ind, fn.Allocas[ai].Align)
		offsets[ai] = ind
		ind += fn.Allocas[ai].Size
	}
	fl := FrameLayout{Offsets: offsets, Size: ir.AlignUp(ind, 16)}
	s.cache[fn.ID] = fl
	return fl
}

// PrologueCycles implements Engine (compile-time: free at run time).
func (*StaticRand) PrologueCycles(*ir.Function) float64 { return 0 }

// EpilogueCycles implements Engine.
func (*StaticRand) EpilogueCycles(*ir.Function) float64 { return 0 }

// AddrLocalExtraCycles implements Engine.
func (*StaticRand) AddrLocalExtraCycles() float64 { return 0 }

// VLAPad implements Engine.
func (*StaticRand) VLAPad() int64 { return 0 }

// StackBias implements Engine.
func (*StaticRand) StackBias() uint64 { return 0 }

// RodataBytes implements Engine.
func (*StaticRand) RodataBytes() int64 { return 0 }

// ---------------------------------------------------------------------------
// Padding

// Padding adds a compile-time random pad (8..64 bytes, multiples of 8)
// before frames larger than 16 bytes, following Forrest et al. "Larger"
// means the laid-out frame extent — allocation sizes plus the alignment
// padding between them — not the raw sum of sizes: two 8-byte allocas with
// 16-byte alignment span 24 bytes and are padded. The layout cache is
// mutex-guarded like StaticRand's, so sharing one engine across Machines
// is safe.
type Padding struct {
	seed  uint64
	mu    sync.Mutex
	cache map[int]FrameLayout
}

// NewPadding builds the compile-time padding engine from a seed.
func NewPadding(seed uint64) *Padding {
	return &Padding{seed: seed, cache: make(map[int]FrameLayout)}
}

// Name implements Engine.
func (*Padding) Name() string { return "padding" }

// NewRun implements Engine.
func (*Padding) NewRun() {}

// Layout implements Engine.
func (p *Padding) Layout(fn *ir.Function) FrameLayout {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fl, ok := p.cache[fn.ID]; ok {
		return fl
	}
	// Forrest-style padding applies to frames larger than 16 bytes, where
	// the frame extent includes alignment padding between allocations.
	ff := fn.Frame()
	fl := declOrder(ff)
	if ff.Extent > 16 {
		r := &splitmix{s: p.seed ^ (uint64(fn.ID)+1)*0xc6a4a7935bd1e995}
		pad := int64(1+r.next()%8) * 8 // one of 8, 16, ..., 64
		fl.Offsets = make([]int64, len(ff.Offsets))
		for i, o := range ff.Offsets {
			fl.Offsets[i] = o + pad
		}
		fl.Size = ir.AlignUp(ff.Size+pad, 16)
	}
	p.cache[fn.ID] = fl
	return fl
}

// PrologueCycles implements Engine.
func (*Padding) PrologueCycles(*ir.Function) float64 { return 0 }

// EpilogueCycles implements Engine.
func (*Padding) EpilogueCycles(*ir.Function) float64 { return 0 }

// AddrLocalExtraCycles implements Engine.
func (*Padding) AddrLocalExtraCycles() float64 { return 0 }

// VLAPad implements Engine.
func (*Padding) VLAPad() int64 { return 0 }

// StackBias implements Engine.
func (*Padding) StackBias() uint64 { return 0 }

// RodataBytes implements Engine.
func (*Padding) RodataBytes() int64 { return 0 }

// ---------------------------------------------------------------------------
// BaseRand

// BaseRand randomizes the stack base once per run (load-time ASLR for the
// stack), leaving relative layout deterministic.
type BaseRand struct {
	trng rng.TRNG
	bias uint64
}

// BaseRandWindow is the randomization window (64 KiB, 16-byte granules).
const BaseRandWindow = 64 << 10

// NewBaseRand builds the engine over a true-random source.
func NewBaseRand(trng rng.TRNG) *BaseRand {
	b := &BaseRand{trng: trng}
	b.NewRun()
	return b
}

// Name implements Engine.
func (*BaseRand) Name() string { return "baserand" }

// NewRun implements Engine: draw a fresh base bias. A handful of failed
// TRNG draws are retried; if the source stays down the previous bias is
// kept — stale load-time ASLR degrades more gracefully than a crashed run,
// and per-call entropy policy lives with the per-call engines.
func (b *BaseRand) NewRun() {
	for i := 0; i < 4; i++ {
		if v, ok := b.trng(); ok {
			b.bias = (v % (BaseRandWindow / 16)) * 16
			return
		}
	}
}

// Layout implements Engine.
func (*BaseRand) Layout(fn *ir.Function) FrameLayout {
	return declOrder(fn.Frame())
}

// PrologueCycles implements Engine.
func (*BaseRand) PrologueCycles(*ir.Function) float64 { return 0 }

// EpilogueCycles implements Engine.
func (*BaseRand) EpilogueCycles(*ir.Function) float64 { return 0 }

// AddrLocalExtraCycles implements Engine.
func (*BaseRand) AddrLocalExtraCycles() float64 { return 0 }

// VLAPad implements Engine.
func (*BaseRand) VLAPad() int64 { return 0 }

// StackBias implements Engine.
func (b *BaseRand) StackBias() uint64 { return b.bias }

// RodataBytes implements Engine.
func (*BaseRand) RodataBytes() int64 { return 0 }

// ---------------------------------------------------------------------------
// Smokestack

// Instrumentation cycle prices for the Smokestack prologue/epilogue beyond
// the RNG itself. Mask-based table indexing replaces a modulo (§III-E).
const (
	lookupCyclesMasked = 2.0
	lookupCyclesModulo = 8.0
	// runtimeDecodeBase/PerAlloca price the on-the-fly Fisher–Yates for
	// functions too large for a table.
	runtimeDecodeBase      = 12.0
	runtimeDecodePerAlloca = 2.5
	guardWriteCycles       = 2.0
	guardCheckCycles       = 3.0
	// gepExtraCycles is the per-address-formation residual. The permuted
	// GEP folds into x86 addressing modes after register allocation, so the
	// measured residual is effectively zero (matching the paper, whose
	// overhead is dominated by the prologue RNG).
	gepExtraCycles = 0.0
	// frameSpreadCyclesPerKiB models the cache-locality penalty of a
	// permuted frame: objects scatter across the frame differently on every
	// invocation, defeating next-line prefetch. Calibrated against the
	// paper's observation that frame size has a significant impact
	// (gobmk's 85 KB frames are its worst case, §V-A).
	frameSpreadCyclesPerKiB = 0.12
)

// SmokestackOptions configure the full scheme.
type SmokestackOptions struct {
	// PBox selects table generation parameters; zero value means
	// pbox.DefaultConfig.
	PBox pbox.Config
	// Guard enables the XOR'd function-identifier slot (§III-D2). On by
	// default in NewSmokestack.
	Guard bool
	// MaxVLAPad bounds the random dummy padding before VLA allocations
	// (rounded to 16; default 256).
	MaxVLAPad int64
	// TableCache, when set, routes P-BOX table builds through a shared
	// cross-program cache (see pbox.Cache).
	TableCache *pbox.Cache
}

// normalize fills defaulted option fields.
func (o *SmokestackOptions) normalize() {
	if o.PBox.MaxTableAllocas == 0 {
		o.PBox = pbox.DefaultConfig()
	}
	if o.MaxVLAPad <= 0 {
		o.MaxVLAPad = 256
	}
}

// SmokestackPlan is the compile-time half of the Smokestack engine: the
// P-BOX, per-function table entries, and cycle-model parameters. A plan
// is immutable once built and holds no random stream, so one plan can
// safely back any number of concurrently-running engines (and Machines);
// only the per-run Smokestack wrapper carries mutable RNG state.
type SmokestackPlan struct {
	opts     SmokestackOptions
	box      *pbox.Box
	entries  []*pbox.Entry // indexed by fn.ID
	frameKiB []float64     // max frame size per function, in KiB
}

// NewSmokestackPlan compiles the P-BOX and entries for prog.
func NewSmokestackPlan(prog *ir.Program, opts *SmokestackOptions) *SmokestackPlan {
	o := SmokestackOptions{PBox: pbox.DefaultConfig(), Guard: true, MaxVLAPad: 256}
	if opts != nil {
		o = *opts
		o.normalize()
	}
	p := &SmokestackPlan{opts: o, box: pbox.NewWithCache(o.PBox, o.TableCache)}
	for _, fn := range prog.Funcs {
		allocs := make([]pbox.Alloc, 0, len(fn.Allocas)+1)
		for _, a := range fn.Allocas {
			allocs = append(allocs, pbox.Alloc{Size: a.Size, Align: a.Align})
		}
		if o.Guard {
			// The encoded function identifier participates in the
			// permutation like any other 8-byte object.
			allocs = append(allocs, pbox.Alloc{Size: 8, Align: 8})
		}
		e := p.box.Register(allocs)
		p.entries = append(p.entries, e)
		p.frameKiB = append(p.frameKiB, float64(e.MaxFrameSize())/1024)
	}
	return p
}

// Box exposes the built P-BOX (memory accounting, ablation).
func (p *SmokestackPlan) Box() *pbox.Box { return p.box }

// NewEngine wraps the plan with a per-run random source, yielding a
// ready-to-deploy engine. Engines are cheap; plans are the expensive
// artifact worth caching.
func (p *SmokestackPlan) NewEngine(source rng.Source) *Smokestack {
	return &Smokestack{plan: p, source: source}
}

// PlanCache is a concurrency-safe cache of Smokestack plans keyed by the
// program's exact per-function allocation sequences plus the engine
// options. Experiment cells that instrument the same program (with any
// RNG scheme) share one plan build; even recompiled copies of a program
// hit, since the key is the allocation shape, not the program pointer.
//
// Note the key must be the exact sequences, not the canonical multisets:
// plan entries map declaration order to table columns, so two programs
// may share a plan only when their declaration orders agree. Canonical-
// multiset sharing happens one level down, in pbox.Cache.
type PlanCache struct {
	mu     sync.Mutex
	plans  map[planKey]*SmokestackPlan
	hits   int
	misses int
}

// planKey identifies a plan: the normalized options plus shape, the
// program's allocation sequences — per function, the alloca count
// followed by each alloca's size and alignment, as varints.
type planKey struct {
	pbox      pbox.Config
	guard     bool
	maxVLAPad int64
	shape     string
}

// NewPlanCache creates an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[planKey]*SmokestackPlan)}
}

// Plan returns the cached plan for (prog, opts), building it on miss.
func (pc *PlanCache) Plan(prog *ir.Program, opts *SmokestackOptions) *SmokestackPlan {
	o := SmokestackOptions{PBox: pbox.DefaultConfig(), Guard: true, MaxVLAPad: 256}
	if opts != nil {
		o = *opts
		o.normalize()
	}
	var shape []byte
	for _, fn := range prog.Funcs {
		shape = binary.AppendUvarint(shape, uint64(len(fn.Allocas)))
		for _, a := range fn.Allocas {
			shape = binary.AppendVarint(shape, a.Size)
			shape = binary.AppendVarint(shape, a.Align)
		}
	}
	k := planKey{pbox: o.PBox, guard: o.Guard, maxVLAPad: o.MaxVLAPad, shape: string(shape)}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p, ok := pc.plans[k]; ok {
		pc.hits++
		return p
	}
	pc.misses++
	p := NewSmokestackPlan(prog, &o)
	pc.plans[k] = p
	return p
}

// Stats reports cache hits and misses (for tooling and tests).
func (pc *PlanCache) Stats() (hits, misses int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses
}

// Len reports the number of cached plans (telemetry gauge).
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.plans)
}

// Smokestack is the paper's engine: per-invocation P-BOX permutations.
// It pairs an immutable shared plan with a per-run random source; the
// engine (not the plan) is the unit that must not be shared across
// concurrent Machines, since Next() mutates the source.
type Smokestack struct {
	plan   *SmokestackPlan
	source rng.Source
}

// NewSmokestack compiles the P-BOX for prog and returns the engine drawing
// permutation indexes from source.
func NewSmokestack(prog *ir.Program, source rng.Source, opts *SmokestackOptions) *Smokestack {
	return NewSmokestackPlan(prog, opts).NewEngine(source)
}

// Name implements Engine.
func (s *Smokestack) Name() string { return "smokestack+" + s.source.Name() }

// NewRun implements Engine.
func (*Smokestack) NewRun() {}

// Box exposes the built P-BOX for inspection (memory accounting, ablation).
func (s *Smokestack) Box() *pbox.Box { return s.plan.box }

// Plan exposes the engine's immutable build artifact.
func (s *Smokestack) Plan() *SmokestackPlan { return s.plan }

// Source exposes the permutation RNG (used by the RNG-prediction ablation).
func (s *Smokestack) Source() rng.Source { return s.source }

// Layout implements Engine: draw one random number, index the P-BOX.
func (s *Smokestack) Layout(fn *ir.Function) FrameLayout {
	return s.LayoutForValue(fn, s.source.Next())
}

// LayoutForValue computes the frame layout the engine produces for random
// value r — a pure function of r. The RNG-prediction ablation (experiment
// E7) uses it to model an attacker who has disclosed a memory-resident
// PRNG's state and replays the stream: the P-BOX itself is public (it ships
// in the binary's read-only data), so knowing r is knowing the layout.
func (s *Smokestack) LayoutForValue(fn *ir.Function, r uint64) FrameLayout {
	p := s.plan
	e := p.entries[fn.ID]
	n := len(fn.Allocas)
	total := n
	if p.opts.Guard {
		total++
	}
	out := make([]int64, total)
	size := e.Layout(r, out)
	fl := FrameLayout{Offsets: out[:n], Size: size}
	if p.opts.Guard {
		// The guard participated in the permutation as the extra allocation;
		// expose it as a SlotGuard integrity slot at its permuted offset.
		fl.AddSlot(SlotGuard, out[n])
	}
	return fl
}

// PrologueCycles implements Engine.
func (s *Smokestack) PrologueCycles(fn *ir.Function) float64 {
	p := s.plan
	e := p.entries[fn.ID]
	c := s.source.Cost()
	switch {
	case e.Runtime:
		c += runtimeDecodeBase + runtimeDecodePerAlloca*float64(e.NumAllocs())
	case p.opts.PBox.PowerOfTwoRows:
		c += lookupCyclesMasked
	default:
		c += lookupCyclesModulo
	}
	if p.opts.Guard {
		c += guardWriteCycles
	}
	c += frameSpreadCyclesPerKiB * p.frameKiB[fn.ID]
	return c
}

// PrologueBreakdown decomposes PrologueCycles into its priced components
// — entropy draw, P-BOX lookup (or runtime decode), guard write, and the
// frame-spread locality surcharge — for the VM's cycle-attribution
// profiler (it implements vm.PrologueProfiler). The four components sum
// to PrologueCycles(fn) for the same invocation; like PrologueCycles it
// must be called after the Layout draw so source.Cost reflects the draw
// just made.
func (s *Smokestack) PrologueBreakdown(fn *ir.Function) (draw, lookup, guard, spread float64) {
	p := s.plan
	e := p.entries[fn.ID]
	draw = s.source.Cost()
	switch {
	case e.Runtime:
		lookup = runtimeDecodeBase + runtimeDecodePerAlloca*float64(e.NumAllocs())
	case p.opts.PBox.PowerOfTwoRows:
		lookup = lookupCyclesMasked
	default:
		lookup = lookupCyclesModulo
	}
	if p.opts.Guard {
		guard = guardWriteCycles
	}
	spread = frameSpreadCyclesPerKiB * p.frameKiB[fn.ID]
	return draw, lookup, guard, spread
}

// EpilogueCycles implements Engine.
func (s *Smokestack) EpilogueCycles(*ir.Function) float64 {
	if s.plan.opts.Guard {
		return guardCheckCycles
	}
	return 0
}

// AddrLocalExtraCycles implements Engine.
func (*Smokestack) AddrLocalExtraCycles() float64 { return gepExtraCycles }

// VLAPad implements Engine: a fresh random pad (16-byte granules) before
// every VLA allocation (§III-D1).
func (s *Smokestack) VLAPad() int64 {
	granules := uint64(s.plan.opts.MaxVLAPad / 16)
	if granules == 0 {
		return 0
	}
	return int64(s.source.Next()%granules+1) * 16
}

// StackBias implements Engine.
func (*Smokestack) StackBias() uint64 { return 0 }

// RodataBytes implements Engine: the P-BOX lives in read-only data.
func (s *Smokestack) RodataBytes() int64 { return s.plan.box.TotalBytes() }

// ---------------------------------------------------------------------------

// NewByName constructs an engine by scheme name. For "smokestack" the rng
// scheme is appended after a plus sign, e.g. "smokestack+aes-10".
func NewByName(name string, prog *ir.Program, seed uint64, trng rng.TRNG) (Engine, error) {
	switch name {
	case "fixed":
		return NewFixed(), nil
	case "staticrand":
		return NewStaticRand(seed), nil
	case "padding":
		return NewPadding(seed), nil
	case "baserand":
		return NewBaseRand(trng), nil
	case "cleanstack":
		return NewCleanStack(trng), nil
	case "shadowstack":
		return NewShadowStack(), nil
	case "stackato":
		src, err := rng.NewByName("aes-10", seed, trng)
		if err != nil {
			return nil, err
		}
		return NewStackato(src), nil
	}
	const prefix = "smokestack+"
	if len(name) > len(prefix) && name[:len(prefix)] == prefix {
		src, err := rng.NewByName(name[len(prefix):], seed, trng)
		if err != nil {
			return nil, err
		}
		return NewSmokestack(prog, src, nil), nil
	}
	if name == "smokestack" {
		src, err := rng.NewByName("aes-10", seed, trng)
		if err != nil {
			return nil, err
		}
		return NewSmokestack(prog, src, nil), nil
	}
	return nil, fmt.Errorf("layout: unknown engine %q", name)
}
