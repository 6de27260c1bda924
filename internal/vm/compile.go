// Threaded-code tier, compile half: lower ir.Function.Code into a flat
// stream of pre-decoded cinstr values the compiled executor dispatches on.
// Compilation does four things the switch interpreter pays for on every
// step:
//
//   - operand pre-decoding: register indexes, widths and immediates move
//     into fixed struct fields; loads and stores get width/signedness-
//     specialized opcodes; global and rodata addresses (deterministic per
//     program) are baked in as immediates;
//   - branch pre-resolution: jump targets are remapped to compiled-stream
//     indexes at compile time;
//   - cost attachment: each cinstr carries its constituents' prices from
//     the Machine-folded cost table, so the executor prices an instruction
//     with plain float adds and no table indexing;
//   - peephole fusion: the dominant dynamic pairs — compare+branch,
//     const+ALU, addr.local+load/store, and the const+compare+branch loop
//     header triple — collapse into superinstructions, eliminating the
//     dispatch between them.
//
// Cost-order bit-identity: a fused cinstr stores its constituents' costs
// SEPARATELY (cost, cost2, cost3) and the executor adds them one at a time
// in the original per-op order. Float addition is not associative, so
// pre-summing at compile time would change the low bits of the modeled
// cycle count; separate in-order adds make the compiled tier's accounting
// bit-identical to the switch interpreter's, which is what lets the PR 2
// goldens (testdata/cycles_golden.json, records_golden.jsonl) pin both
// tiers at once.
//
// Compiled streams depend on the program, the cost model, the engine
// only through its scalar AddrLocalExtraCycles surcharge, and whether a
// profile is attached (countProgram) — never on per-run or
// per-invocation randomness — so they are shared across
// Machines and engines through a concurrency-safe CodeCache (mirroring
// pbox.Cache and layout.PlanCache): the parallel experiment runner
// compiles each workload once across all cells.

package vm

import (
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// cop enumerates compiled opcodes: the straight ports of ir.Op (with
// memory ops specialized by width and signedness), plus the fused
// superinstructions.
type cop uint8

const (
	cNop cop = iota
	cConst
	cMov
	cAdd
	cSub
	cMul
	cDiv
	cMod
	cAnd
	cOr
	cXor
	cShl
	cShr
	cNeg
	cNot
	cSetZ
	cEq
	cNe
	cLt
	cLe
	cGt
	cGe
	cLoad8
	cLoad4s
	cLoad4u
	cLoad1s
	cLoad1u
	cStore8
	cStore4
	cStore1
	cAddrLocal // frame-relative: resolved against the invocation's layout
	cAddrConst // global/data address, pre-resolved into imm
	cJmp
	cBr
	cCall
	cCallHost
	cRet
	cRetVoid
	cBad // unknown ir.Op: reproduces the interpreter's runtime error

	// Fused compare+branch: the compare result is still written to its
	// register (it may have later uses), then the branch consumes it.
	cEqBr
	cNeBr
	cLtBr
	cLeBr
	cGtBr
	cGeBr

	// Fused const+ALU (immediate forms): the constant is written to its
	// register, then the ALU op executes reading registers as usual — so
	// the fusion is valid whichever operand position the constant feeds.
	cConstAdd
	cConstSub
	cConstMul
	cConstDiv
	cConstMod
	cConstAnd
	cConstOr
	cConstXor
	cConstShl
	cConstShr

	// Fused const+compare+branch: the dominant loop-header triple
	// (i < LIMIT with a materialized limit).
	cConstEqBr
	cConstNeBr
	cConstLtBr
	cConstLeBr
	cConstGtBr
	cConstGeBr

	// Fused addr.local+load / addr.local+store: frame-offset addressing,
	// specialized by width and signedness so the executor can go straight
	// at the stack segment with an inlined view. The address still lands in
	// its register; the engine's AddrLocalExtraCycles surcharge rides in on
	// cost (folded into the cost table at build time, exactly as in the
	// switch tier).
	cAddrLoad8
	cAddrLoad4s
	cAddrLoad4u
	cAddrLoad1s
	cAddrLoad1u
	cAddrStore8
	cAddrStore4
	cAddrStore1

	// Fused add+load / add+store: computed-address (array element)
	// accesses, where an OpAdd forms the effective address the very next
	// load/store dereferences. The sum still lands in the add's register.
	// For stores, dst2 carries the stored value's register.
	cAddLoad8
	cAddLoad4s
	cAddLoad4u
	cAddLoad1s
	cAddLoad1u
	cAddStore8
	cAddStore4
	cAddStore1

	// Deeper groups for the 8-byte array-access idiom the MiniC frontend
	// emits. cMulLoad8/cMulStore8 cover Const(scale); Mul; Add; Load/Store
	// — constant-scaled indexing — with register roles dst=const,
	// a/b=multiplicands, dst2=product, t0=add's other operand, t1=sum
	// (effective address), sym=loaded dst / stored value. They are only
	// emitted when ct[OpConst]==ct[OpAdd] so reusing the cost field for
	// both ALU constituents stays bit-identical. cAddrAddrLoad8 covers two
	// back-to-back AddrLocals where the second feeds a Load (array base
	// materialized next to a scalar local read): sym/t0 are the two frame
	// slots, dst/a the two address registers, dst2 the loaded value.
	cMulLoad8
	cMulStore8
	cAddrAddrLoad8

	// cBlock is the block tier's superinstruction: one dispatch executes a
	// whole profile-selected straight-line run of cinstrs (the "uops" of a
	// blockDesc) with a single amortized step-budget check and a single
	// pre-summed cost add. Only emitted by blockProgram (blocktier.go), and
	// only when the folded cost table is integer-valued, which makes float
	// cost addition exact and hence associative — the one pre-summed add is
	// then bit-identical to the threaded tier's in-order per-constituent
	// adds. The covered cinstrs stay in the stream at their original
	// indexes, so mid-block faults and slow-path memory events hand the
	// driver plain indexes and resume through the untouched originals.
	// Fields: a = block index into compiledFunc.blocks, t0 = fall-through
	// continuation index (unused when the block ends in its own branch).
	cBlock

	// cCount leads every basic block of a profiled stream (countFunc) and
	// only there: it increments the block's count (a = index into
	// compiledProgram.bbs) and continues at t0, the block's first cop,
	// consuming no step and no cycle. Dormant streams never contain it.
	cCount
)

// cinstr is one compiled instruction. All operands are pre-decoded; for
// fused superinstructions dst/a/b/imm describe the first constituent where
// they overlap and dst2 carries the second constituent's destination.
// cost/cost2/cost3 are the constituents' per-op prices, kept separate so
// the executor can add them in original order (see the package comment on
// bit-identity). pc is the original IR index of the first constituent,
// used for fault attribution; constituent k faults report pc+k.
type cinstr struct {
	op       cop
	width    uint8
	unsigned bool
	dst      int32
	a, b     int32
	dst2     int32
	sym      int32
	t0, t1   int32
	pc       int32
	imm      int64
	cost     float64
	cost2    float64
	cost3    float64
}

// compiledFunc is one function's compiled stream. Call argument registers
// live in a side table (argLists, indexed by cinstr.a) to keep cinstr flat
// and pointer-free. Block-tier streams additionally carry the mined block
// descriptors (blocks, indexed by a cBlock's a field) and an entry index:
// block formation appends cBlock cinstrs at the end of the stream and
// redirects branch targets (and the function entry) that land on a block
// leader to the appended superinstruction, leaving the covered plain
// cinstrs in place for mid-block resume. Threaded streams have entry 0 and
// nil blocks.
type compiledFunc struct {
	code     []cinstr
	argLists [][]ir.Reg
	blocks   []blockDesc
	entry    int32
}

// compiledProgram holds every function's stream, indexed by ir.Function.ID.
// Profiled programs (countProgram) also carry their basic blocks, indexed
// by the a field of each block's cCount.
type compiledProgram struct {
	funcs []compiledFunc
	bbs   []basicBlock
}

// basicBlock is one basic block of a profiled stream: the cops
// funcs[fn].code[start:end], led by the cCount at start-1. The profile
// flush charges each block's count to these static cops.
type basicBlock struct {
	fn         int32
	start, end int32
}

// codeKey identifies a compiled program: streams bake in per-op costs
// (cost model + the engine's scalar AddrLocal surcharge) and the program's
// deterministic global/rodata addresses, so two Machines share a stream
// exactly when these three agree. prof selects the profiled variant, the
// same stream with a cCount at every basic-block leader.
type codeKey struct {
	prog      *ir.Program
	costs     Costs
	addrExtra float64
	prof      bool
}

// CodeCache is a concurrency-safe cache of compiled programs, the
// execution-tier sibling of pbox.Cache and layout.PlanCache: the parallel
// experiment runner's cells all hit one compile per (workload, cost model)
// instead of recompiling per Machine. Machines use a process-wide default
// cache unless Options.CodeCache overrides it (tests use private caches to
// observe hit/miss behaviour).
type CodeCache struct {
	mu     sync.Mutex
	progs  map[codeKey]*compiledProgram
	hits   int
	misses int
	// onCompile, when set, observes each cache miss (a real compile) with
	// the program name and function count — the telemetry tracer's
	// "compile" event. Called on the miss path only, outside any hot loop
	// (but under the cache lock; observers must not re-enter the cache).
	onCompile func(prog string, funcs int)

	// Block tier. blockProgs caches block-formed streams under the same
	// codeKey — the profile-derived fusion decisions are a deterministic
	// function of the key (the hot-count pre-run uses a fixed engine and a
	// constant TRNG seed), so the key fully identifies the block stream
	// too. hotCounts memoizes the one-shot profiling pre-run per program
	// (counts do not depend on costs or the engine surcharge, only on the
	// program), guarded by its own mutex because the pre-run runs a whole
	// switch-tier Machine and must not hold the main cache lock.
	blockProgs  map[codeKey]*compiledProgram
	blockHits   int
	blockMisses int
	hotMu       sync.Mutex
	hot         map[*ir.Program][][]uint64

	// retired marks a cache its owner discarded (MachinePool.Retire):
	// Machines built on it are no longer pooled.
	retired atomic.Bool
}

// OnCompile installs the compile observer (nil to clear).
func (c *CodeCache) OnCompile(fn func(prog string, funcs int)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onCompile = fn
}

// Len reports the number of cached compiled programs (telemetry gauge).
func (c *CodeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.progs)
}

// NewCodeCache creates an empty compiled-code cache.
func NewCodeCache() *CodeCache {
	return &CodeCache{
		progs:      make(map[codeKey]*compiledProgram),
		blockProgs: make(map[codeKey]*compiledProgram),
		hot:        make(map[*ir.Program][][]uint64),
	}
}

// defaultCodeCache backs every Machine that does not supply its own cache.
// Entries are immutable pure functions of their keys and are retained for
// the process lifetime (keys hold program pointers; programs are few and
// long-lived in every current usage).
var defaultCodeCache = NewCodeCache()

// DefaultCodeCache returns the process-wide compiled-code cache backing
// every Machine that does not supply its own (telemetry registers gauges
// and the compile observer on it).
func DefaultCodeCache() *CodeCache { return defaultCodeCache }

// Stats reports cache hits and misses (for tooling and tests).
func (c *CodeCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// BlockStats reports block-tier cache hits and misses (for tooling and
// tests; a miss implies one profiling pre-run plus one block-formation
// pass over the threaded stream).
func (c *CodeCache) BlockStats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blockHits, c.blockMisses
}

// BlockLen reports the number of cached block-formed programs (telemetry
// gauge).
func (c *CodeCache) BlockLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blockProgs)
}

// compiled returns the compiled program for the key, building it on miss.
// Compilation happens under the lock: it is a fast single pass, and
// serializing builders guarantees each program compiles exactly once.
func (c *CodeCache) compiled(prog *ir.Program, costs Costs, addrExtra float64, prof bool, globalAddr, dataAddr []uint64) *compiledProgram {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compiledLocked(codeKey{prog: prog, costs: costs, addrExtra: addrExtra, prof: prof}, globalAddr, dataAddr)
}

// compiledLocked is compiled with c.mu held. A profiled program is
// derived from the dormant one, which is compiled first if needed.
func (c *CodeCache) compiledLocked(k codeKey, globalAddr, dataAddr []uint64) *compiledProgram {
	if cp, ok := c.progs[k]; ok {
		c.hits++
		return cp
	}
	c.misses++
	prog := k.prog
	var cp *compiledProgram
	name := prog.Name
	if k.prof {
		dormant := k
		dormant.prof = false
		cp = countProgram(c.compiledLocked(dormant, globalAddr, dataAddr))
		name += "+counts"
	} else {
		ct := buildCostTableFrom(&k.costs, k.addrExtra)
		cp = &compiledProgram{funcs: make([]compiledFunc, len(prog.Funcs))}
		for i, fn := range prog.Funcs {
			cp.funcs[i] = compileFunc(fn, &ct, globalAddr, dataAddr)
		}
	}
	c.progs[k] = cp
	if c.onCompile != nil {
		c.onCompile(name, len(prog.Funcs))
	}
	return cp
}

// buildCostTableFrom folds the cost model and the engine's AddrLocal
// surcharge into a per-opcode price table. This is the single source of
// truth for both tiers: Machine.buildCostTable delegates here, and the
// compiler attaches these exact values to cinstrs, so the two tiers add
// bit-identical prices.
func buildCostTableFrom(c *Costs, addrLocalExtra float64) [ir.NumOps]float64 {
	var t [ir.NumOps]float64
	for op := range t {
		t[op] = c.ALU
	}
	t[ir.OpMul] = c.Mul
	t[ir.OpDiv] = c.Div
	t[ir.OpMod] = c.Div
	t[ir.OpLoad] = c.Load
	t[ir.OpStore] = c.Store
	t[ir.OpAddrLocal] = c.AddrCalc + addrLocalExtra
	t[ir.OpAddrGlobal] = c.AddrCalc
	t[ir.OpAddrData] = c.AddrCalc
	t[ir.OpJmp] = c.Branch
	t[ir.OpBr] = c.Branch
	t[ir.OpRet] = c.Branch
	t[ir.OpCall] = 0
	t[ir.OpCallHost] = 0
	return t
}

// cmpBrOp maps a comparison ir.Op to its fused compare+branch opcode.
func cmpBrOp(op ir.Op) (cop, bool) {
	switch op {
	case ir.OpEq:
		return cEqBr, true
	case ir.OpNe:
		return cNeBr, true
	case ir.OpLt:
		return cLtBr, true
	case ir.OpLe:
		return cLeBr, true
	case ir.OpGt:
		return cGtBr, true
	case ir.OpGe:
		return cGeBr, true
	}
	return 0, false
}

// constCmpBrOp maps a comparison ir.Op to its fused const+compare+branch
// opcode.
func constCmpBrOp(op ir.Op) (cop, bool) {
	switch op {
	case ir.OpEq:
		return cConstEqBr, true
	case ir.OpNe:
		return cConstNeBr, true
	case ir.OpLt:
		return cConstLtBr, true
	case ir.OpLe:
		return cConstLeBr, true
	case ir.OpGt:
		return cConstGtBr, true
	case ir.OpGe:
		return cConstGeBr, true
	}
	return 0, false
}

// constALUOp maps an ALU ir.Op to its fused const+ALU opcode.
func constALUOp(op ir.Op) (cop, bool) {
	switch op {
	case ir.OpAdd:
		return cConstAdd, true
	case ir.OpSub:
		return cConstSub, true
	case ir.OpMul:
		return cConstMul, true
	case ir.OpDiv:
		return cConstDiv, true
	case ir.OpMod:
		return cConstMod, true
	case ir.OpAnd:
		return cConstAnd, true
	case ir.OpOr:
		return cConstOr, true
	case ir.OpXor:
		return cConstXor, true
	case ir.OpShl:
		return cConstShl, true
	case ir.OpShr:
		return cConstShr, true
	}
	return 0, false
}

// loadOp specializes an OpLoad by width and signedness.
func loadOp(width uint8, unsigned bool) cop {
	switch width {
	case 1:
		if unsigned {
			return cLoad1u
		}
		return cLoad1s
	case 4:
		if unsigned {
			return cLoad4u
		}
		return cLoad4s
	default:
		return cLoad8
	}
}

// storeOp specializes an OpStore by width.
func storeOp(width uint8) cop {
	switch width {
	case 1:
		return cStore1
	case 4:
		return cStore4
	default:
		return cStore8
	}
}

// addrLoadOp specializes a fused addr.local+load by width and signedness.
func addrLoadOp(width uint8, unsigned bool) cop {
	switch width {
	case 1:
		if unsigned {
			return cAddrLoad1u
		}
		return cAddrLoad1s
	case 4:
		if unsigned {
			return cAddrLoad4u
		}
		return cAddrLoad4s
	default:
		return cAddrLoad8
	}
}

// addrStoreOp specializes a fused addr.local+store by width.
func addrStoreOp(width uint8) cop {
	switch width {
	case 1:
		return cAddrStore1
	case 4:
		return cAddrStore4
	default:
		return cAddrStore8
	}
}

// addLoadOp specializes a fused add+load by width and signedness.
func addLoadOp(width uint8, unsigned bool) cop {
	switch width {
	case 1:
		if unsigned {
			return cAddLoad1u
		}
		return cAddLoad1s
	case 4:
		if unsigned {
			return cAddLoad4u
		}
		return cAddLoad4s
	default:
		return cAddLoad8
	}
}

// addStoreOp specializes a fused add+store by width.
func addStoreOp(width uint8) cop {
	switch width {
	case 1:
		return cAddStore1
	case 4:
		return cAddStore4
	default:
		return cAddStore8
	}
}

// simpleOps maps the ir.Ops that port one-to-one (no specialization, no
// operand rewriting) to their compiled opcode.
var simpleOps = [ir.NumOps]cop{
	ir.OpNop: cNop, ir.OpConst: cConst, ir.OpMov: cMov,
	ir.OpAdd: cAdd, ir.OpSub: cSub, ir.OpMul: cMul, ir.OpDiv: cDiv, ir.OpMod: cMod,
	ir.OpAnd: cAnd, ir.OpOr: cOr, ir.OpXor: cXor, ir.OpShl: cShl, ir.OpShr: cShr,
	ir.OpNeg: cNeg, ir.OpNot: cNot, ir.OpSetZ: cSetZ,
	ir.OpEq: cEq, ir.OpNe: cNe, ir.OpLt: cLt, ir.OpLe: cLe, ir.OpGt: cGt, ir.OpGe: cGe,
}

// compileFunc lowers one function. Two passes: the first walks the IR
// greedily grouping fusible runs (a group never starts at or extends over
// a jump target, so every branch still lands on a cinstr boundary) and
// records the old→new index map; the second rewrites branch targets
// through that map.
func compileFunc(fn *ir.Function, ct *[ir.NumOps]float64, globalAddr, dataAddr []uint64) compiledFunc {
	code := fn.Code
	n := len(code)

	// Jump targets must begin a cinstr: a fused group may not swallow one.
	target := make([]bool, n)
	for _, in := range code {
		switch in.Op {
		case ir.OpJmp:
			target[in.Target0] = true
		case ir.OpBr:
			target[in.Target0] = true
			target[in.Target1] = true
		}
	}

	cf := compiledFunc{code: make([]cinstr, 0, n)}
	old2new := make([]int32, n)

	for i := 0; i < n; {
		in := &code[i]
		old2new[i] = int32(len(cf.code))
		c := cinstr{pc: int32(i), dst: int32(in.Dst), a: int32(in.A), b: int32(in.B),
			imm: in.Imm, width: in.Width, unsigned: in.Unsigned, sym: in.Sym,
			t0: in.Target0, t1: in.Target1, cost: ct[in.Op]}
		consumed := 1

		// Fusion candidates, longest first. The second (and third)
		// constituent must not be a jump target, and the dataflow must
		// actually chain (the follower consumes the leader's destination).
		fusible := func(k int) bool { return i+k < n && !target[i+k] }
		switch in.Op {
		case ir.OpConst:
			if fusible(1) {
				y := &code[i+1]
				usesDst := y.A == in.Dst || y.B == in.Dst
				if y.Op == ir.OpMul && usesDst && fusible(2) && fusible(3) &&
					ct[ir.OpConst] == ct[ir.OpAdd] {
					z, w := &code[i+2], &code[i+3]
					if z.Op == ir.OpAdd && (z.A == y.Dst || z.B == y.Dst) &&
						(w.Op == ir.OpLoad || w.Op == ir.OpStore) &&
						w.A == z.Dst && w.Width == 8 {
						other := z.B
						if z.A != y.Dst {
							other = z.A
						}
						c.a, c.b = int32(y.A), int32(y.B)
						c.dst2 = int32(y.Dst)
						c.t0, c.t1 = int32(other), int32(z.Dst)
						c.width = 8
						c.cost2 = ct[ir.OpMul]
						if w.Op == ir.OpLoad {
							c.op = cMulLoad8
							c.sym = int32(w.Dst)
							c.cost3 = ct[ir.OpLoad]
						} else {
							c.op = cMulStore8
							c.sym = int32(w.B)
							c.cost3 = ct[ir.OpStore]
						}
						consumed = 4
						break
					}
				}
				if op, ok := constCmpBrOp(y.Op); ok && usesDst && fusible(2) &&
					code[i+2].Op == ir.OpBr && code[i+2].A == y.Dst {
					z := &code[i+2]
					c.op = op
					c.dst2 = int32(y.Dst)
					c.a, c.b = int32(y.A), int32(y.B)
					c.t0, c.t1 = z.Target0, z.Target1
					c.cost2 = ct[y.Op]
					c.cost3 = ct[ir.OpBr]
					consumed = 3
					break
				}
				if op, ok := constALUOp(y.Op); ok && usesDst {
					c.op = op
					c.dst2 = int32(y.Dst)
					c.a, c.b = int32(y.A), int32(y.B)
					c.cost2 = ct[y.Op]
					consumed = 2
					break
				}
			}
			c.op = cConst
		case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			if fusible(1) && code[i+1].Op == ir.OpBr && code[i+1].A == in.Dst {
				op, _ := cmpBrOp(in.Op)
				c.op = op
				c.t0, c.t1 = code[i+1].Target0, code[i+1].Target1
				c.cost2 = ct[ir.OpBr]
				consumed = 2
				break
			}
			c.op = simpleOps[in.Op]
		case ir.OpAdd:
			if fusible(1) {
				switch y := &code[i+1]; y.Op {
				case ir.OpLoad:
					if y.A == in.Dst {
						c.op = addLoadOp(y.Width, y.Unsigned)
						c.width, c.unsigned = y.Width, y.Unsigned
						c.dst2 = int32(y.Dst)
						c.cost2 = ct[ir.OpLoad]
						consumed = 2
					}
				case ir.OpStore:
					if y.A == in.Dst {
						c.op = addStoreOp(y.Width)
						c.width = y.Width
						c.dst2 = int32(y.B)
						c.cost2 = ct[ir.OpStore]
						consumed = 2
					}
				}
				if consumed == 2 {
					break
				}
			}
			c.op = cAdd
		case ir.OpAddrLocal:
			if fusible(1) && code[i+1].Op == ir.OpAddrLocal && fusible(2) &&
				code[i+2].Op == ir.OpLoad && code[i+2].A == code[i+1].Dst &&
				code[i+2].Width == 8 {
				y, z := &code[i+1], &code[i+2]
				c.op = cAddrAddrLoad8
				c.a = int32(y.Dst)
				c.t0 = int32(y.Sym)
				c.dst2 = int32(z.Dst)
				c.width = 8
				c.cost2 = ct[ir.OpLoad]
				consumed = 3
				break
			}
			if fusible(1) {
				switch y := &code[i+1]; y.Op {
				case ir.OpLoad:
					if y.A == in.Dst {
						c.op = addrLoadOp(y.Width, y.Unsigned)
						c.width, c.unsigned = y.Width, y.Unsigned
						c.dst2 = int32(y.Dst)
						c.cost2 = ct[ir.OpLoad]
						consumed = 2
					}
				case ir.OpStore:
					if y.A == in.Dst {
						c.op = addrStoreOp(y.Width)
						c.width = y.Width
						c.b = int32(y.B)
						c.cost2 = ct[ir.OpStore]
						consumed = 2
					}
				}
				if consumed == 2 {
					break
				}
			}
			c.op = cAddrLocal
		case ir.OpLoad:
			c.op = loadOp(in.Width, in.Unsigned)
		case ir.OpStore:
			c.op = storeOp(in.Width)
		case ir.OpAddrGlobal:
			c.op = cAddrConst
			c.imm = int64(globalAddr[in.Sym])
		case ir.OpAddrData:
			c.op = cAddrConst
			c.imm = int64(dataAddr[in.Sym])
		case ir.OpJmp:
			c.op = cJmp
		case ir.OpBr:
			c.op = cBr
		case ir.OpCall:
			c.op = cCall
			c.a = int32(len(cf.argLists))
			cf.argLists = append(cf.argLists, in.Args)
		case ir.OpCallHost:
			c.op = cCallHost
			c.a = int32(len(cf.argLists))
			cf.argLists = append(cf.argLists, in.Args)
		case ir.OpRet:
			if in.A == ir.NoReg {
				c.op = cRetVoid
			} else {
				c.op = cRet
			}
		default:
			if int(in.Op) < len(simpleOps) && (simpleOps[in.Op] != cNop || in.Op == ir.OpNop) {
				c.op = simpleOps[in.Op]
			} else {
				// Unknown opcode: defer the interpreter's runtime error so
				// both tiers fail identically at the same pc.
				c.op = cBad
				c.sym = int32(in.Op)
			}
		}
		cf.code = append(cf.code, c)
		i += consumed
	}

	// Rewrite branch targets from IR indexes to compiled-stream indexes.
	// Every target begins a group (enforced above), so old2new is defined
	// at every target.
	retarget(cf.code, old2new)
	return cf
}

// retarget maps every branch target in code through old2new.
func retarget(code []cinstr, old2new []int32) {
	for j := range code {
		c := &code[j]
		switch c.op {
		case cJmp:
			c.t0 = old2new[c.t0]
		case cBr, cEqBr, cNeBr, cLtBr, cLeBr, cGtBr, cGeBr,
			cConstEqBr, cConstNeBr, cConstLtBr, cConstLeBr, cConstGtBr, cConstGeBr:
			c.t0 = old2new[c.t0]
			c.t1 = old2new[c.t1]
		}
	}
}

// countProgram derives the profiled variant of a threaded program: every
// function's stream with a cCount inserted at each basic-block leader, and
// the program-wide basic-block table those cCounts index.
func countProgram(base *compiledProgram) *compiledProgram {
	cp := &compiledProgram{funcs: make([]compiledFunc, len(base.funcs))}
	for i := range base.funcs {
		cp.funcs[i], cp.bbs = countFunc(&base.funcs[i], int32(i), cp.bbs)
	}
	return cp
}

// countFunc inserts a cCount before every basic-block leader of a threaded
// stream — the entry, every branch target, and every cop after a branch or
// return — appending the blocks to bbs. Calls do not end a block: a callee
// that fails leaves the rest of the caller's block unrun, which the driver
// settles (profLeave). Branches land on the cCount of their target block.
func countFunc(cf *compiledFunc, fn int32, bbs []basicBlock) (compiledFunc, []basicBlock) {
	code := cf.code
	n := len(code)
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for i := range code {
		c := &code[i]
		switch c.op {
		case cJmp:
			leader[c.t0] = true
		case cBr, cEqBr, cNeBr, cLtBr, cLeBr, cGtBr, cGeBr,
			cConstEqBr, cConstNeBr, cConstLtBr, cConstLeBr, cConstGtBr, cConstGeBr:
			leader[c.t0] = true
			leader[c.t1] = true
		case cRet, cRetVoid:
		default:
			continue
		}
		if i+1 < n {
			leader[i+1] = true
		}
	}

	out := make([]cinstr, 0, n+n/4)
	old2new := make([]int32, n)
	first := len(bbs)
	for i := range code {
		old2new[i] = int32(len(out))
		if leader[i] {
			if len(bbs) > first {
				bbs[len(bbs)-1].end = int32(len(out))
			}
			start := int32(len(out)) + 1
			out = append(out, cinstr{op: cCount, a: int32(len(bbs)), t0: start, pc: code[i].pc})
			bbs = append(bbs, basicBlock{fn: fn, start: start})
		}
		out = append(out, code[i])
	}
	if len(bbs) > first {
		bbs[len(bbs)-1].end = int32(len(out))
	}
	retarget(out, old2new)
	return compiledFunc{code: out, argLists: cf.argLists}, bbs
}
