package harness

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attack/corpus"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The layout code that per-function frame facts (ir.Function.Frame)
// replaced, kept verbatim as the reference: fixedOffsets and alignUp
// were the baseline packer, unsafeMask was CleanStack's per-engine escape
// analysis, and the ref* functions are the bodies of the CleanStack,
// ShadowStack and Stackato Layout methods built on them.

// fixedOffsets computes declaration-order offsets with alignment padding;
// the shared baseline layout. Returns the offsets and the 16-byte aligned
// frame size.
func fixedOffsets(fn *ir.Function) ([]int64, int64) {
	offsets := make([]int64, len(fn.Allocas))
	var ind int64
	for i, a := range fn.Allocas {
		ind = alignUp(ind, a.Align)
		offsets[i] = ind
		ind += a.Size
	}
	return offsets, alignUp(ind, 16)
}

func alignUp(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	if rem := n % a; rem != 0 {
		return n + a - rem
	}
	return n
}

// unsafeMask classifies fn's allocas: true marks an alloca for the unsafe
// region. Unsafe means a non-parameter alloca that is (a) larger than a
// scalar word — array/buffer code indexes it — or (b) whose address
// escapes: the register holding its OpAddrLocal result is used for
// anything beyond direct load/store addressing (pointer arithmetic, stored
// to memory, passed to a call, returned). Returns nil when nothing is
// unsafe.
func unsafeMask(fn *ir.Function) []bool {
	mask := make([]bool, len(fn.Allocas))
	any := false
	for i, a := range fn.Allocas {
		if !a.IsParam && a.Size > 8 {
			mask[i] = true
			any = true
		}
	}
	// holds maps a register to every alloca whose address it may carry
	// (conservative across register reuse).
	holds := make(map[ir.Reg][]int)
	for _, in := range fn.Code {
		if in.Op == ir.OpAddrLocal {
			holds[in.Dst] = append(holds[in.Dst], int(in.Sym))
		}
	}
	if len(holds) == 0 {
		if !any {
			return nil
		}
		return mask
	}
	escape := func(r ir.Reg) {
		for _, ai := range holds[r] {
			if !fn.Allocas[ai].IsParam && !mask[ai] {
				mask[ai] = true
				any = true
			}
		}
	}
	for _, in := range fn.Code {
		switch in.Op {
		case ir.OpNop, ir.OpConst, ir.OpJmp, ir.OpBr,
			ir.OpAddrLocal, ir.OpAddrGlobal, ir.OpAddrData:
			// No pointer-escaping operand uses.
		case ir.OpLoad:
			// in.A is the address operand: a direct dereference is safe.
		case ir.OpStore:
			// The address (A) is safe; the stored *value* (B) escaping to
			// memory is not.
			escape(in.B)
		case ir.OpCall, ir.OpCallHost:
			for _, r := range in.Args {
				escape(r)
			}
		case ir.OpMov, ir.OpNeg, ir.OpNot, ir.OpSetZ:
			escape(in.A)
		case ir.OpRet:
			if in.A != ir.NoReg {
				escape(in.A)
			}
		default:
			// Binary ALU/compare forms: pointer arithmetic on either side.
			escape(in.A)
			escape(in.B)
		}
	}
	if !any {
		return nil
	}
	return mask
}

// refCleanStack is CleanStack's split layout.
func refCleanStack(fn *ir.Function) layout.FrameLayout {
	var fl layout.FrameLayout
	mask := unsafeMask(fn)
	if mask == nil {
		off, size := fixedOffsets(fn)
		fl = layout.FrameLayout{Offsets: off, Size: size}
	} else {
		offsets := make([]int64, len(fn.Allocas))
		regions := make([]uint8, len(fn.Allocas))
		var mainInd, unsafeInd int64
		for i, a := range fn.Allocas {
			if mask[i] {
				unsafeInd = alignUp(unsafeInd, a.Align)
				offsets[i] = unsafeInd
				regions[i] = layout.RegionUnsafe
				unsafeInd += a.Size
			} else {
				mainInd = alignUp(mainInd, a.Align)
				offsets[i] = mainInd
				mainInd += a.Size
			}
		}
		fl = layout.FrameLayout{
			Offsets: offsets, Size: alignUp(mainInd, 16),
			Regions: regions, UnsafeSize: alignUp(unsafeInd, 16),
		}
	}
	return fl
}

// refShadowStack is ShadowStack's layout.
func refShadowStack(fn *ir.Function) layout.FrameLayout {
	off, _ := fixedOffsets(fn)
	var extent int64
	if n := len(fn.Allocas); n > 0 {
		extent = off[n-1] + fn.Allocas[n-1].Size
	}
	slot := alignUp(extent, 8)
	fl := layout.FrameLayout{Offsets: off, Size: alignUp(slot+8, 16)}
	fl.AddSlot(layout.SlotReturn, slot)
	return fl
}

// refStackato is Stackato's layout for one draw of its pad source.
func refStackato(fn *ir.Function, source rng.Source) layout.FrameLayout {
	const stackatoMaxPad = 256
	off, _ := fixedOffsets(fn)
	var extent int64
	if n := len(fn.Allocas); n > 0 {
		extent = off[n-1] + fn.Allocas[n-1].Size
	}
	pad := int64(source.Next()%(stackatoMaxPad/16)) * 16
	offsets := make([]int64, len(off))
	for i, o := range off {
		offsets[i] = o + pad
	}
	canary := alignUp(pad+extent, 8)
	fl := layout.FrameLayout{Offsets: offsets, Size: alignUp(canary+8, 16)}
	fl.AddSlot(layout.SlotCanary, canary)
	return fl
}

// TestFrameFactsMatchReference checks the fixed, cleanstack, shadowstack
// and stackato layouts built from frame facts against the reference code
// for every function of the registered workloads, the attack corpus and
// 1000 random functions; CleanStack must price its rebase exactly where
// the reference splits the frame. No golden pins CleanStack's split, so
// this is what keeps the shared classification exact.
func TestFrameFactsMatchReference(t *testing.T) {
	var progs []*ir.Program
	for _, w := range workload.All() {
		progs = append(progs, w.Prog())
	}
	for _, p := range corpus.All() {
		progs = append(progs, p.Prog)
	}
	r := rand.New(rand.NewSource(0xfac7))
	random := &ir.Program{Name: "random"}
	for i := 0; i < 1000; i++ {
		random.Funcs = append(random.Funcs, genFunction(r, i))
	}
	progs = append(progs, random)

	for _, p := range progs {
		// Engines cache per fn.ID, so each program gets its own.
		clean := layout.NewCleanStack(rng.SeededTRNG(1))
		stackato := layout.NewStackato(rng.NewAESCtr(10, rng.SeededTRNG(2)))
		stackatoRef := rng.NewAESCtr(10, rng.SeededTRNG(2))
		for _, fn := range p.Funcs {
			check := func(engine string, got, want layout.FrameLayout) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s under %s: layout %+v, reference %+v", p.Name, fn.Name, engine, got, want)
				}
			}
			off, size := fixedOffsets(fn)
			check("fixed", layout.NewFixed().Layout(fn), layout.FrameLayout{Offsets: off, Size: size})
			check("cleanstack", clean.Layout(fn), refCleanStack(fn))
			check("shadowstack", layout.NewShadowStack().Layout(fn), refShadowStack(fn))
			for draw := 0; draw < 3; draw++ {
				check("stackato", stackato.Layout(fn), refStackato(fn, stackatoRef))
			}
			if rebase, split := clean.PrologueCycles(fn), unsafeMask(fn) != nil; (rebase != 0) != split {
				t.Fatalf("%s/%s: cleanstack prologue %v with reference split %v", p.Name, fn.Name, rebase, split)
			}
		}
	}
}
