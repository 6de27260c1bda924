// Rival stack defenses hosted on the capability-based Engine seam: the
// "defense zoo" the cross-defense matrix evaluates against Smokestack.
//
//   - CleanStack: dual-stack segregation (Chong's CleanStack / SafeStack
//     lineage). Allocas reachable from pointer-taking or array code move to
//     a second, "unsafe" stack segment with its own per-run base bias;
//     scalars stay on the main stack, out of reach of linear overflows.
//   - ShadowStack: a leak-resilient shadow return stack (Zieris & Horsch).
//     Layout stays fixed; every call pushes a per-invocation token on a
//     disjoint shadow stack and mirrors it into the frame, and the epilogue
//     compares the two — backward-edge CFI, no randomization at all.
//   - Stackato: per-frame canaries plus per-invocation random padding below
//     the locals. Relative layout is preserved (unlike Smokestack's full
//     permutation), but the frame's absolute extent and the canary's
//     position re-randomize on every invocation.
//
// Each engine prices its instrumentation so the VM's cycle model and the
// attribution profiler (vm.DefenseProfiler) can decompose the cost:
// canary write/check, shadow push/check, and the unsafe-stack rebase.
package layout

import (
	"repro/internal/ir"
	"repro/internal/rng"
)

// Instrumentation cycle prices for the zoo engines. Like the Smokestack
// constants above, only relative magnitudes matter: a slot store costs a
// store-class op, a slot compare a load plus compare, and switching to the
// second stack pointer one ALU-class rebase.
const (
	unsafeRebaseCycles = 2.0
	shadowPushCycles   = 2.0
	shadowCheckCycles  = 3.0
	canaryWriteCycles  = 2.0
	canaryCheckCycles  = 3.0
	// stackatoMaxPad bounds Stackato's per-invocation random padding below
	// the locals (16-byte granules, so 16 distinct frame shapes).
	stackatoMaxPad = 256
)

// DualStacker is the capability interface of engines that place allocas in
// a second "unsafe" stack segment (FrameLayout.Regions). The VM maps the
// unsafe segment and biases its top only for engines implementing this.
type DualStacker interface {
	Engine
	// UnsafeBias returns the current run's unsafe-stack base bias in bytes
	// (16-byte aligned).
	UnsafeBias() uint64
}

// ---------------------------------------------------------------------------
// CleanStack

// CleanStack segregates "unsafe" allocas — arrays and address-escaping
// locals — onto a second stack segment whose base is re-randomized each
// run, keeping scalars and the return linkage on the main stack where a
// linear overflow of an unsafe buffer cannot reach them. The split is
// static per function, so it lives in the shared frame facts
// (ir.FrameFacts.Regions and the split fields).
type CleanStack struct {
	trng rng.TRNG
	bias uint64
}

// NewCleanStack builds the engine; trng feeds the per-run unsafe-stack
// bias.
func NewCleanStack(trng rng.TRNG) *CleanStack {
	c := &CleanStack{trng: trng}
	c.NewRun()
	return c
}

// Name implements Engine.
func (*CleanStack) Name() string { return "cleanstack" }

// NewRun implements Engine: redraw the unsafe-stack bias. Same degradation
// policy as BaseRand: bounded retries, then keep the stale bias.
func (c *CleanStack) NewRun() {
	for i := 0; i < 4; i++ {
		if v, ok := c.trng(); ok {
			c.bias = (v % (BaseRandWindow / 16)) * 16
			return
		}
	}
}

// UnsafeBias implements DualStacker.
func (c *CleanStack) UnsafeBias() uint64 { return c.bias }

// Layout implements Engine: declaration-order packing per region.
func (*CleanStack) Layout(fn *ir.Function, _ []int64) FrameLayout {
	ff := fn.Frame()
	if ff.Regions == nil {
		return declOrder(ff)
	}
	return FrameLayout{
		Offsets: ff.SplitOffsets, Size: ff.SplitSize,
		Regions: ff.Regions, UnsafeSize: ff.UnsafeSize,
	}
}

// PrologueCycles implements Engine: functions with segregated allocas pay
// one unsafe-stack-pointer rebase on entry.
func (c *CleanStack) PrologueCycles(fn *ir.Function) float64 {
	if fn.Frame().Regions != nil {
		return unsafeRebaseCycles
	}
	return 0
}

// EpilogueCycles implements Engine.
func (*CleanStack) EpilogueCycles(*ir.Function) float64 { return 0 }

// DefenseBreakdown decomposes the prices for the attribution profiler
// (vm.DefenseProfiler).
func (c *CleanStack) DefenseBreakdown(fn *ir.Function) (draw, canaryWrite, shadowPush, unsafeRebase, canaryCheck, shadowCheck float64) {
	return 0, 0, 0, c.PrologueCycles(fn), 0, 0
}

// AddrLocalExtraCycles implements Engine: the region split folds into the
// two frame pointers, like Smokestack's GEP rebase.
func (*CleanStack) AddrLocalExtraCycles() float64 { return 0 }

// VLAPad implements Engine.
func (*CleanStack) VLAPad() int64 { return 0 }

// StackBias implements Engine: the main stack is not biased.
func (*CleanStack) StackBias() uint64 { return 0 }

// RodataBytes implements Engine.
func (*CleanStack) RodataBytes() int64 { return 0 }

// ---------------------------------------------------------------------------
// ShadowStack

// ShadowStack is backward-edge CFI: fixed layout plus a per-invocation
// return token mirrored between the frame and a disjoint shadow stack the
// attacker cannot read or reach. It randomizes nothing — the matrix's
// pure-integrity row.
type ShadowStack struct{}

// NewShadowStack builds the engine.
func NewShadowStack() *ShadowStack { return &ShadowStack{} }

// Name implements Engine.
func (*ShadowStack) Name() string { return "shadowstack" }

// NewRun implements Engine.
func (*ShadowStack) NewRun() {}

// Layout implements Engine: fixed offsets plus one SlotReturn token slot
// above the locals.
func (*ShadowStack) Layout(fn *ir.Function, _ []int64) FrameLayout {
	ff := fn.Frame()
	slot := ir.AlignUp(ff.Extent, 8)
	fl := FrameLayout{Offsets: ff.Offsets, Size: ir.AlignUp(slot+8, 16)}
	fl.AddSlot(SlotReturn, slot)
	return fl
}

// PrologueCycles implements Engine: the shadow push.
func (*ShadowStack) PrologueCycles(*ir.Function) float64 { return shadowPushCycles }

// EpilogueCycles implements Engine: the shadow compare.
func (*ShadowStack) EpilogueCycles(*ir.Function) float64 { return shadowCheckCycles }

// DefenseBreakdown implements vm.DefenseProfiler.
func (*ShadowStack) DefenseBreakdown(*ir.Function) (draw, canaryWrite, shadowPush, unsafeRebase, canaryCheck, shadowCheck float64) {
	return 0, 0, shadowPushCycles, 0, 0, shadowCheckCycles
}

// AddrLocalExtraCycles implements Engine.
func (*ShadowStack) AddrLocalExtraCycles() float64 { return 0 }

// VLAPad implements Engine.
func (*ShadowStack) VLAPad() int64 { return 0 }

// StackBias implements Engine.
func (*ShadowStack) StackBias() uint64 { return 0 }

// RodataBytes implements Engine.
func (*ShadowStack) RodataBytes() int64 { return 0 }

// ---------------------------------------------------------------------------
// Stackato

// Stackato places a per-frame canary above the locals and a fresh random
// pad below them on every invocation: relative distances inside the frame
// survive (its §II weakness against intra-frame DOP), but the frame size,
// the canary position, and the distance to the caller's frame re-randomize
// per call.
type Stackato struct {
	source rng.Source
}

// NewStackato builds the engine drawing pads from source.
func NewStackato(source rng.Source) *Stackato {
	return &Stackato{source: source}
}

// Name implements Engine.
func (*Stackato) Name() string { return "stackato" }

// NewRun implements Engine.
func (*Stackato) NewRun() {}

// Source exposes the padding RNG (prediction ablations, entropy probes).
func (s *Stackato) Source() rng.Source { return s.source }

// Layout implements Engine: one draw per invocation — pad below the
// locals, canary above them.
func (s *Stackato) Layout(fn *ir.Function, buf []int64) FrameLayout {
	ff := fn.Frame()
	pad := int64(s.source.Next()%(stackatoMaxPad/16)) * 16
	canary := ir.AlignUp(pad+ff.Extent, 8)
	fl := FrameLayout{Offsets: shifted(ff.Offsets, pad, buf), Size: ir.AlignUp(canary+8, 16)}
	fl.AddSlot(SlotCanary, canary)
	return fl
}

// PrologueCycles implements Engine: the pad draw plus the canary store.
// Like Smokestack, call after Layout so source.Cost prices the draw just
// made.
func (s *Stackato) PrologueCycles(*ir.Function) float64 {
	return s.source.Cost() + canaryWriteCycles
}

// EpilogueCycles implements Engine: the canary compare.
func (*Stackato) EpilogueCycles(*ir.Function) float64 { return canaryCheckCycles }

// DefenseBreakdown implements vm.DefenseProfiler; components sum exactly
// to PrologueCycles/EpilogueCycles for the same invocation.
func (s *Stackato) DefenseBreakdown(*ir.Function) (draw, canaryWrite, shadowPush, unsafeRebase, canaryCheck, shadowCheck float64) {
	return s.source.Cost(), canaryWriteCycles, 0, 0, canaryCheckCycles, 0
}

// AddrLocalExtraCycles implements Engine.
func (*Stackato) AddrLocalExtraCycles() float64 { return 0 }

// VLAPad implements Engine: a fresh random pad before VLAs, like
// Smokestack.
func (s *Stackato) VLAPad() int64 {
	return int64(s.source.Next()%(stackatoMaxPad/16)+1) * 16
}

// StackBias implements Engine.
func (*Stackato) StackBias() uint64 { return 0 }

// RodataBytes implements Engine.
func (*Stackato) RodataBytes() int64 { return 0 }
