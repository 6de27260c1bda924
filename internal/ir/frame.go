// Frame facts: the static, engine-independent description of a function's
// frame that every layout engine starts from. They are a pure function of
// the function's allocas and code, so they are computed once, on first
// use, and kept on the Function itself: every engine instance of every run
// shares them, and they are freed with the program.

package ir

// Stack regions an alloca may be placed in. Region values index the VM's
// stack segments.
const (
	// RegionMain is the ordinary stack frame.
	RegionMain uint8 = 0
	// RegionUnsafe is the segregated "unsafe" stack segment (CleanStack):
	// objects reachable from pointer-taking or array code live there, away
	// from scalars and integrity slots.
	RegionUnsafe uint8 = 1
)

// FrameFacts are a function's static frame facts.
type FrameFacts struct {
	// Offsets holds each alloca's declaration-order offset with alignment
	// padding (indexed like Function.Allocas): the uninstrumented baseline
	// frame. Shared by every engine that lays the frame out verbatim, so
	// callers must not modify it.
	Offsets []int64
	// Extent is the laid-out extent of the allocas: the last offset plus
	// its alloca's size (0 without allocas).
	Extent int64
	// Size is Extent rounded up to 16 bytes: the baseline frame size.
	Size int64
	// Regions assigns each alloca the stack a dual-stack defense places it
	// on: RegionUnsafe (see unsafeAllocas) or RegionMain.
	// Nil when no alloca is unsafe; the split fields below are then zero.
	Regions []uint8
	// SplitOffsets holds each alloca's declaration-order offset from its
	// own region's frame base; SplitSize and UnsafeSize are the main and
	// unsafe regions' extents rounded up to 16 bytes: the dual-stack frame.
	SplitOffsets          []int64
	SplitSize, UnsafeSize int64
}

// Frame returns f's frame facts, computing them on first use. It is safe
// for concurrent use: racing callers compute identical facts and all
// receive the first one stored. The facts describe the allocas and code
// at first use, so a pass that rewrites them (Optimize) must run before
// any layout is built.
func (f *Function) Frame() *FrameFacts {
	if ff := f.frame.Load(); ff != nil {
		return ff
	}
	ff := &FrameFacts{Offsets: make([]int64, len(f.Allocas)), Regions: unsafeAllocas(f)}
	var end int64
	for i, a := range f.Allocas {
		end = AlignUp(end, a.Align)
		ff.Offsets[i] = end
		end += a.Size
	}
	ff.Extent, ff.Size = end, AlignUp(end, 16)
	if ff.Regions != nil {
		ff.SplitOffsets = make([]int64, len(f.Allocas))
		var ends [2]int64
		for i, a := range f.Allocas {
			r := ff.Regions[i]
			ends[r] = AlignUp(ends[r], a.Align)
			ff.SplitOffsets[i] = ends[r]
			ends[r] += a.Size
		}
		ff.SplitSize, ff.UnsafeSize = AlignUp(ends[RegionMain], 16), AlignUp(ends[RegionUnsafe], 16)
	}
	if !f.frame.CompareAndSwap(nil, ff) {
		return f.frame.Load()
	}
	return ff
}

// AlignUp rounds n up to a multiple of a (a power of two; a <= 1 leaves n
// unchanged).
func AlignUp(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	if rem := n % a; rem != 0 {
		return n + a - rem
	}
	return n
}

// unsafeAllocas is CleanStack's compile-time classification (Chong et
// al.): RegionUnsafe marks an alloca for the unsafe stack. Unsafe means a
// non-parameter alloca that is (a) larger than a scalar word — array or
// buffer code indexes it — or (b) whose address escapes: the register
// holding its OpAddrLocal result is used for anything beyond direct
// load/store addressing (pointer arithmetic, stored to memory, passed to a
// call, returned). Returns nil when nothing is unsafe.
func unsafeAllocas(fn *Function) []uint8 {
	mask := make([]uint8, len(fn.Allocas))
	any := false
	for i, a := range fn.Allocas {
		if !a.IsParam && a.Size > 8 {
			mask[i] = RegionUnsafe
			any = true
		}
	}
	// holds maps a register to every alloca whose address it may carry
	// (conservative across register reuse).
	holds := make(map[Reg][]int)
	for _, in := range fn.Code {
		if in.Op == OpAddrLocal {
			holds[in.Dst] = append(holds[in.Dst], int(in.Sym))
		}
	}
	if len(holds) == 0 {
		if !any {
			return nil
		}
		return mask
	}
	escape := func(r Reg) {
		for _, ai := range holds[r] {
			if !fn.Allocas[ai].IsParam && mask[ai] == RegionMain {
				mask[ai] = RegionUnsafe
				any = true
			}
		}
	}
	for _, in := range fn.Code {
		switch in.Op {
		case OpNop, OpConst, OpJmp, OpBr,
			OpAddrLocal, OpAddrGlobal, OpAddrData:
			// No pointer-escaping operand uses.
		case OpLoad:
			// in.A is the address operand: a direct dereference is safe.
		case OpStore:
			// The address (A) is safe; the stored *value* (B) escaping to
			// memory is not.
			escape(in.B)
		case OpCall, OpCallHost:
			for _, r := range in.Args {
				escape(r)
			}
		case OpMov, OpNeg, OpNot, OpSetZ:
			escape(in.A)
		case OpRet:
			if in.A != NoReg {
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
