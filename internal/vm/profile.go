// Cycle-attribution profiler. A Profile collects, per experiment cell,
// where the modeled cycles of every Machine run went: per-opcode rows
// (what the workload executed) and per-category rows (what the layout
// instrumentation cost on top — permutation draw, P-BOX lookup, guard
// write/check, frame spread, the AddrLocal GEP surcharge, call base
// price, and host-builtin time). This is the fine-grained decomposition
// the paper's Table I prices analytically; here it is measured from the
// running VM.
//
// Hot-path discipline: the Machine accumulates into plain per-Machine
// fields and expands/flushes them into the shared mutex-protected Profile
// only at Run/CallByName exit. The switch tier adds a weighted per-op
// count per step behind a never-taken nil check. The compiled tier runs
// one dispatch loop for dormant and profiled Machines alike: a profiled
// Machine runs its own stream variant with a zero-step, zero-cost cCount
// at every basic-block leader (countFunc), so the loop's only profiling
// work is one increment per basic block entered, and a dormant stream
// contains none. The flush charges each block's count to the block's
// static cops at cost-table prices and the function's jitter factor. The
// cycle accumulator itself is never touched, so dormant AND profiled runs
// alike stay bit-identical to the goldens.
//
// Attribution exactness: rows are grid-rounded (telemetry.GridRound) so
// the snapshot's per-cell TotalCycles is by construction the exact sum
// of its rows in any summation order. Against the VM's own Stats.Cycles
// — accumulated in windowed float order that no independent
// decomposition can reproduce bit-for-bit — the row sum agrees to ~1e-9
// relative error (TestProfileReconciliation pins the bound).
//
// Early-exit runs reconcile too, on every tier: op counts sum to
// Stats.Instructions and row cycles match Stats.Cycles. A constituent
// that consumed its step counts; one that faulted (divide-by-zero,
// memory fault) counts at zero cycles, as Stats charged it. The switch
// tier attributes in-flight calls before descending. The compiled tier
// settles a basic block the run leaves early — step limit (mid-group
// included), cancellation, fault, or a callee error unwinding past a
// call — by taking back the block's count and charging only what ran
// (profLeave). TestCancelledRunProfileFlush, TestFaultedRunProfileFlush
// and TestProfileStepLimitSweep pin this.
package vm

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/ir"
	"repro/internal/telemetry"
)

// PrologueProfiler is an optional layout-engine interface: engines whose
// PrologueCycles price is composite (Smokestack) can report the split so
// the profiler buckets draw/lookup/guard/spread separately. The four
// components must sum to PrologueCycles(fn) for the same invocation.
// Engines without it get their whole prologue under "prologue.other".
type PrologueProfiler interface {
	PrologueBreakdown(fn *ir.Function) (draw, lookup, guard, spread float64)
}

// DefenseProfiler is the optional layout-engine interface for the defense
// zoo (cleanstack / shadowstack / stackato): engines report the per-event
// decomposition of their instrumentation prices so the profiler can bucket
// canary writes/checks, shadow pushes/checks and unsafe-stack rebases
// separately. The prologue components (draw, canaryWrite, shadowPush,
// unsafeRebase) must sum to PrologueCycles(fn) and the epilogue components
// (canaryCheck, shadowCheck) to EpilogueCycles(fn) for the same
// invocation; any residual is bucketed under prologue.other /
// epilogue.guardcheck. PrologueProfiler wins when both are implemented.
type DefenseProfiler interface {
	DefenseBreakdown(fn *ir.Function) (draw, canaryWrite, shadowPush, unsafeRebase, canaryCheck, shadowCheck float64)
}

// Instrumentation-cost categories. These price what the layout engine
// and the call model add on top of plain opcode execution.
const (
	catCallBase      = iota // Costs.CallBase per sub-call
	catDraw                 // prologue: permutation/entropy draw (source.Cost)
	catLookup               // prologue: P-BOX row lookup or runtime decode
	catGuardWrite           // prologue: canary store
	catSpread               // prologue: frame-spread locality surcharge
	catPrologueOther        // whole prologue, engines without a breakdown
	catGuardCheck           // epilogue: guard compare (and undecomposed epilogue)
	catAddrSurcharge        // AddrLocalExtraCycles share of every addr.local
	catHost                 // host builtins: HostBase + per-op modeled time
	catCanaryWrite          // prologue: per-frame canary store (stackato)
	catCanaryCheck          // epilogue: per-frame canary compare
	catShadowPush           // prologue: shadow return-token push
	catShadowCheck          // epilogue: shadow return-token compare
	catUnsafeRebase         // prologue: unsafe-stack pointer rebase (cleanstack)
	numProfCats
)

var catNames = [numProfCats]string{
	catCallBase:      "call.base",
	catDraw:          "prologue.draw",
	catLookup:        "prologue.lookup",
	catGuardWrite:    "prologue.guardwrite",
	catSpread:        "prologue.spread",
	catPrologueOther: "prologue.other",
	catGuardCheck:    "epilogue.guardcheck",
	catAddrSurcharge: "addrlocal.surcharge",
	catHost:          "host",
	catCanaryWrite:   "canary.write",
	catCanaryCheck:   "canary.check",
	catShadowPush:    "shadow.push",
	catShadowCheck:   "shadow.check",
	catUnsafeRebase:  "unsafe.rebase",
}

// numCops sizes per-cop tables (compiled-tier dispatch counts).
const numCops = int(cCount) + 1

// copNames names every compiled opcode for the fused-dispatch counters.
var copNames = [numCops]string{
	cNop: "nop", cConst: "const", cMov: "mov",
	cAdd: "add", cSub: "sub", cMul: "mul", cDiv: "div", cMod: "mod",
	cAnd: "and", cOr: "or", cXor: "xor", cShl: "shl", cShr: "shr",
	cNeg: "neg", cNot: "not", cSetZ: "setz",
	cEq: "eq", cNe: "ne", cLt: "lt", cLe: "le", cGt: "gt", cGe: "ge",
	cLoad8: "load8", cLoad4s: "load4s", cLoad4u: "load4u",
	cLoad1s: "load1s", cLoad1u: "load1u",
	cStore8: "store8", cStore4: "store4", cStore1: "store1",
	cAddrLocal: "addr.local", cAddrConst: "addr.const",
	cJmp: "jmp", cBr: "br", cCall: "call", cCallHost: "call.host",
	cRet: "ret", cRetVoid: "ret.void", cBad: "bad",
	cEqBr: "eq.br", cNeBr: "ne.br", cLtBr: "lt.br",
	cLeBr: "le.br", cGtBr: "gt.br", cGeBr: "ge.br",
	cConstAdd: "const.add", cConstSub: "const.sub", cConstMul: "const.mul",
	cConstDiv: "const.div", cConstMod: "const.mod", cConstAnd: "const.and",
	cConstOr: "const.or", cConstXor: "const.xor", cConstShl: "const.shl",
	cConstShr:  "const.shr",
	cConstEqBr: "const.eq.br", cConstNeBr: "const.ne.br",
	cConstLtBr: "const.lt.br", cConstLeBr: "const.le.br",
	cConstGtBr: "const.gt.br", cConstGeBr: "const.ge.br",
	cAddrLoad8: "addr.load8", cAddrLoad4s: "addr.load4s",
	cAddrLoad4u: "addr.load4u", cAddrLoad1s: "addr.load1s",
	cAddrLoad1u: "addr.load1u",
	cAddrStore8: "addr.store8", cAddrStore4: "addr.store4",
	cAddrStore1: "addr.store1",
	cAddLoad8:   "add.load8", cAddLoad4s: "add.load4s",
	cAddLoad4u: "add.load4u", cAddLoad1s: "add.load1s",
	cAddLoad1u: "add.load1u",
	cAddStore8: "add.store8", cAddStore4: "add.store4",
	cAddStore1: "add.store1",
	cMulLoad8:  "mul.load8", cMulStore8: "mul.store8",
	cAddrAddrLoad8: "addr.addr.load8",
	cCount:         "count",
}

// copConstituents maps each compiled opcode to the ir.Ops it completed,
// in execution order — the expansion the flush uses to charge compiled-
// tier dispatch counts back to per-opcode rows at cost-table prices.
// cAddrConst maps to OpAddrGlobal: globals and rodata are
// indistinguishable after compilation, and buildCostTableFrom prices
// OpAddrGlobal and OpAddrData identically (both AddrCalc), so the
// attribution stays cost-exact. cMulLoad8/cMulStore8 are only emitted
// when ct[OpConst]==ct[OpAdd] (see compileFunc), so expanding them at
// table prices matches the executor's cost-field reuse. cBad never
// completes, so it expands to nothing.
var copConstituents = [numCops][]ir.Op{
	cNop: {ir.OpNop}, cConst: {ir.OpConst}, cMov: {ir.OpMov},
	cAdd: {ir.OpAdd}, cSub: {ir.OpSub}, cMul: {ir.OpMul},
	cDiv: {ir.OpDiv}, cMod: {ir.OpMod},
	cAnd: {ir.OpAnd}, cOr: {ir.OpOr}, cXor: {ir.OpXor},
	cShl: {ir.OpShl}, cShr: {ir.OpShr},
	cNeg: {ir.OpNeg}, cNot: {ir.OpNot}, cSetZ: {ir.OpSetZ},
	cEq: {ir.OpEq}, cNe: {ir.OpNe}, cLt: {ir.OpLt},
	cLe: {ir.OpLe}, cGt: {ir.OpGt}, cGe: {ir.OpGe},
	cLoad8: {ir.OpLoad}, cLoad4s: {ir.OpLoad}, cLoad4u: {ir.OpLoad},
	cLoad1s: {ir.OpLoad}, cLoad1u: {ir.OpLoad},
	cStore8: {ir.OpStore}, cStore4: {ir.OpStore}, cStore1: {ir.OpStore},
	cAddrLocal: {ir.OpAddrLocal}, cAddrConst: {ir.OpAddrGlobal},
	cJmp: {ir.OpJmp}, cBr: {ir.OpBr},
	cCall: {ir.OpCall}, cCallHost: {ir.OpCallHost},
	cRet: {ir.OpRet}, cRetVoid: {ir.OpRet},
	cBad:  {},
	cEqBr: {ir.OpEq, ir.OpBr}, cNeBr: {ir.OpNe, ir.OpBr},
	cLtBr: {ir.OpLt, ir.OpBr}, cLeBr: {ir.OpLe, ir.OpBr},
	cGtBr: {ir.OpGt, ir.OpBr}, cGeBr: {ir.OpGe, ir.OpBr},
	cConstAdd: {ir.OpConst, ir.OpAdd}, cConstSub: {ir.OpConst, ir.OpSub},
	cConstMul: {ir.OpConst, ir.OpMul}, cConstDiv: {ir.OpConst, ir.OpDiv},
	cConstMod: {ir.OpConst, ir.OpMod}, cConstAnd: {ir.OpConst, ir.OpAnd},
	cConstOr: {ir.OpConst, ir.OpOr}, cConstXor: {ir.OpConst, ir.OpXor},
	cConstShl: {ir.OpConst, ir.OpShl}, cConstShr: {ir.OpConst, ir.OpShr},
	cConstEqBr:     {ir.OpConst, ir.OpEq, ir.OpBr},
	cConstNeBr:     {ir.OpConst, ir.OpNe, ir.OpBr},
	cConstLtBr:     {ir.OpConst, ir.OpLt, ir.OpBr},
	cConstLeBr:     {ir.OpConst, ir.OpLe, ir.OpBr},
	cConstGtBr:     {ir.OpConst, ir.OpGt, ir.OpBr},
	cConstGeBr:     {ir.OpConst, ir.OpGe, ir.OpBr},
	cAddrLoad8:     {ir.OpAddrLocal, ir.OpLoad},
	cAddrLoad4s:    {ir.OpAddrLocal, ir.OpLoad},
	cAddrLoad4u:    {ir.OpAddrLocal, ir.OpLoad},
	cAddrLoad1s:    {ir.OpAddrLocal, ir.OpLoad},
	cAddrLoad1u:    {ir.OpAddrLocal, ir.OpLoad},
	cAddrStore8:    {ir.OpAddrLocal, ir.OpStore},
	cAddrStore4:    {ir.OpAddrLocal, ir.OpStore},
	cAddrStore1:    {ir.OpAddrLocal, ir.OpStore},
	cAddLoad8:      {ir.OpAdd, ir.OpLoad},
	cAddLoad4s:     {ir.OpAdd, ir.OpLoad},
	cAddLoad4u:     {ir.OpAdd, ir.OpLoad},
	cAddLoad1s:     {ir.OpAdd, ir.OpLoad},
	cAddLoad1u:     {ir.OpAdd, ir.OpLoad},
	cAddStore8:     {ir.OpAdd, ir.OpStore},
	cAddStore4:     {ir.OpAdd, ir.OpStore},
	cAddStore1:     {ir.OpAdd, ir.OpStore},
	cMulLoad8:      {ir.OpConst, ir.OpMul, ir.OpAdd, ir.OpLoad},
	cMulStore8:     {ir.OpConst, ir.OpMul, ir.OpAdd, ir.OpStore},
	cAddrAddrLoad8: {ir.OpAddrLocal, ir.OpAddrLocal, ir.OpLoad},
	// cCount expands to nothing and is never counted: profiles charge its
	// basic-block count to the cops the block covers.
	cCount: {},
}

// copIsFused reports whether a cop is a fused superinstruction (counted
// as a "fused.<name>" cell counter) rather than a straight port.
func copIsFused(c int) bool { return c > int(cBad) }

// fusedNames holds the "fused.<name>" counter name of every fused cop,
// built once rather than per Counters call.
var fusedNames = func() (names [numCops]string) {
	for c := range names {
		if copIsFused(c) {
			names[c] = "fused." + copNames[c]
		}
	}
	return names
}()

type profAgg struct {
	Count  uint64
	Cycles float64
}

// auxNames names the auxiliary counters a flush reports next to the rows,
// in the order flushProfile adds them to Profile.aux.
var auxNames = [...]string{
	"vm.calls", "vm.hostcalls", "vm.hotview.miss", "vm.framepool.reuse",
	"vm.framepool.alloc", "vm.segcache.hits", "vm.segcache.misses",
}

// Profile aggregates attribution across every Machine of one cell. All
// Machines of a cell (clean run, injected run, repeat seeds) may share
// one Profile; merges are mutex-protected and happen only at machine
// run boundaries, never per step. Reset empties it for the next cell.
type Profile struct {
	mu sync.Mutex
	profData
}

type profData struct {
	ops   [ir.NumOps]profAgg
	cats  [numProfCats]profAgg
	fused [numCops]uint64
	aux   [len(auxNames)]uint64
}

// NewProfile returns an empty profile ready to attach via Options.Prof.
func NewProfile() *Profile { return &Profile{} }

// Reset empties the profile, so one that no Machine holds can serve
// another cell.
func (p *Profile) Reset() {
	p.mu.Lock()
	p.profData = profData{}
	p.mu.Unlock()
}

// Rows emits the attribution as telemetry rows: kind "op" for opcode
// execution, kind "cat" for instrumentation categories. Cycles are
// grid-rounded so any re-summation is exact; rows are sorted by
// (kind, name) for deterministic output.
func (p *Profile) Rows() []telemetry.Row {
	if p == nil {
		return nil
	}
	return p.AppendRows(nil)
}

// AppendRows appends the rows Rows returns to buf, growing it at most
// once, so a caller that reuses buf allocates nothing.
func (p *Profile) AppendRows(buf []telemetry.Row) []telemetry.Row {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, a := range p.ops {
		if a.Count != 0 || a.Cycles != 0 {
			n++
		}
	}
	for _, a := range p.cats {
		if a.Count != 0 || a.Cycles != 0 {
			n++
		}
	}
	rows := slices.Grow(buf, n)
	for op, a := range p.ops {
		if a.Count != 0 || a.Cycles != 0 {
			rows = append(rows, telemetry.Row{Kind: "op", Name: ir.Op(op).String(), Count: a.Count, Cycles: telemetry.GridRound(a.Cycles)})
		}
	}
	for c, a := range p.cats {
		if a.Count != 0 || a.Cycles != 0 {
			rows = append(rows, telemetry.Row{Kind: "cat", Name: catNames[c], Count: a.Count, Cycles: telemetry.GridRound(a.Cycles)})
		}
	}
	slices.SortFunc(rows[len(buf):], func(a, b telemetry.Row) int {
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.Name, b.Name)
	})
	return rows
}

// TotalCycles sums the grid-rounded rows: the profile's own notion of
// the cell's total modeled cycles (see the package comment for how this
// relates to Stats.Cycles).
func (p *Profile) TotalCycles() float64 {
	var t float64
	for _, r := range p.Rows() {
		t += r.Cycles
	}
	return t
}

// Counters returns the auxiliary counters plus fused-superinstruction
// dispatch counts ("fused.<name>").
func (p *Profile) Counters() map[string]uint64 {
	if p == nil {
		return nil
	}
	out := map[string]uint64{}
	p.EachCounter(func(name string, n uint64) { out[name] = n })
	return out
}

// EachCounter calls fn with every non-zero counter Counters returns,
// without building the map.
func (p *Profile) EachCounter(fn func(name string, n uint64)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, n := range p.aux {
		if n != 0 {
			fn(auxNames[i], n)
		}
	}
	for c, n := range p.fused {
		if n != 0 && copIsFused(c) {
			fn(fusedNames[c], n)
		}
	}
}

// flushProfile expands and merges the Machine's plain-field accumulators
// into the attached Profile, then zeroes them. Called at Run/CallByName
// exit (success or fault) — never from a hot loop.
func (m *Machine) flushProfile() {
	p := m.prof
	if p == nil {
		return
	}
	m.expandBlocks()
	ct := &m.costTable
	sur := m.addrExtra
	p.mu.Lock()
	// Per-op weighted counts: cycles = weight * table price, with the
	// engine surcharge share of addr.local split out into its own category
	// so the opcode row prices the plain GEP.
	for op := range m.profN {
		n := m.profN[op]
		if n == 0 {
			continue
		}
		w := m.profW[op]
		price := ct[op]
		if op == int(ir.OpAddrLocal) && sur != 0 {
			p.cats[catAddrSurcharge].Count += n
			p.cats[catAddrSurcharge].Cycles += w * sur
			price -= sur
		}
		p.ops[op].Count += n
		p.ops[op].Cycles += w * price
		m.profN[op], m.profW[op] = 0, 0
	}
	for c, n := range m.profCops {
		if n != 0 {
			p.fused[c] += n
			m.profCops[c] = 0
		}
	}
	// Instrumentation categories.
	if m.profCalls != 0 {
		p.cats[catCallBase].Count += m.profCalls
		p.cats[catCallBase].Cycles += float64(m.profCalls) * m.costs.CallBase
	}
	for c := range m.profCat {
		if m.profCat[c].Cycles != 0 || m.profCat[c].Count != 0 {
			p.cats[c].Count += m.profCat[c].Count
			p.cats[c].Cycles += m.profCat[c].Cycles
			m.profCat[c] = profAgg{}
		}
	}
	if m.profHostCalls != 0 {
		p.cats[catHost].Count += m.profHostCalls
		p.cats[catHost].Cycles += m.profHostCycles
	}
	// Auxiliary counters.
	var segHits, segMisses uint64
	if m.Mem != nil {
		hits, misses := m.Mem.CacheStats()
		segHits, segMisses = hits-m.profMemHits, misses-m.profMemMisses
		m.profMemHits, m.profMemMisses = hits, misses
	}
	for i, n := range [len(auxNames)]uint64{m.profCalls, m.profHostCalls, m.profMemSlow,
		m.profFrameReuse, m.profFrameAlloc, segHits, segMisses} {
		p.aux[i] += n
	}
	m.profCalls, m.profHostCalls, m.profHostCycles = 0, 0, 0
	m.profMemSlow, m.profFrameReuse, m.profFrameAlloc = 0, 0, 0
	p.mu.Unlock()
}

// expandBlocks charges the compiled tier's basic-block counts to the
// blocks' static cops: every constituent of every cop counts once per
// block entry, weighted by the function's jitter factor. Zeroes profBB.
func (m *Machine) expandBlocks() {
	for g, n := range m.profBB {
		if n == 0 {
			continue
		}
		m.profBB[g] = 0
		b := &m.ccode.bbs[g]
		w := float64(n)
		if m.jitter != nil {
			w *= m.jitter[b.fn]
		}
		code := m.ccode.funcs[b.fn].code[b.start:b.end]
		for i := range code {
			c := code[i].op
			m.profCops[c] += n
			for _, op := range copConstituents[c] {
				m.profN[op] += n
				m.profW[op] += w
			}
		}
	}
}

// profLeave settles the basic block a profiled compiled run leaves early
// at code[pc]. The block's cCount already counted all of it; this takes
// that count back and charges what did run instead: every cop before pc,
// and of code[pc] the first ran constituents (each consumed a step), of
// which the first charged were also charged their cycles. costMul is the
// function's jitter factor.
func (m *Machine) profLeave(cf *compiledFunc, pc, ran, charged int, costMul float64) {
	code := cf.code
	if code[pc].op == cCount {
		return // stopped before entering the block
	}
	start := pc
	for code[start-1].op != cCount {
		start--
	}
	m.profBB[code[start-1].a]--
	for i := start; i < pc; i++ {
		n := len(copConstituents[code[i].op])
		m.profRan(code[i].op, n, n, costMul)
	}
	m.profRan(code[pc].op, ran, charged, costMul)
}

// profRan charges the first ran constituents of one dispatch of c, the
// first charged of them with cycles.
func (m *Machine) profRan(c cop, ran, charged int, costMul float64) {
	if ran == 0 {
		return
	}
	m.profCops[c]++
	for i, op := range copConstituents[c][:ran] {
		m.profN[op]++
		if i < charged {
			m.profW[op] += costMul
		}
	}
}
