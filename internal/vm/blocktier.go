// Block tier, compile half: profile-guided block superinstructions on top
// of the threaded stream. A one-shot profiling pre-run (switch tier, fixed
// layout, constant TRNG seed — fully deterministic per program) counts how
// often each IR pc executes; hot straight-line runs of the threaded stream
// are then folded into cBlock superinstructions that the executor
// dispatches once per block with ONE amortized step-budget check and ONE
// pre-summed cost add, instead of one check and 1-4 float adds per cinstr.
//
// Bit-identity discipline (extends the PR 3 contract):
//
//   - Exact pre-summing. Block formation is gated on the folded cost table
//     being integer-valued (integralTable): sums of non-negative
//     integer-valued float64s are exact while they stay below 2^53, and
//     exact additions are associative, so adding the pre-summed block cost
//     in one float add produces bit-identical cycles to the threaded
//     tier's in-order per-constituent adds. New keeps the in-core
//     accumulator below 2^52 by refusing the block tier when StepLimit
//     exceeds 2^32 (costs are capped at 2^20 by the gate). Non-integral
//     tables simply reuse the threaded stream — correct, unaccelerated.
//
//   - Overlay blocks, plain resume. A cBlock is APPENDED to the stream;
//     the covered cinstrs stay at their original indexes, and every branch
//     target (plus the function entry) that lands on a block leader is
//     redirected to the appended superinstruction. Any event with
//     per-constituent semantics — a step budget that may land inside the
//     block, a slow-path memory access, a div-by-zero, a fault — makes the
//     executor fall back to the plain copy at the original index, where
//     the PR 3 per-constituent accounting (in-order cost adds, pc+k fault
//     attribution, per-constituent step-limit landing) runs unchanged.
//     Execution rejoins the accelerated stream at the next redirected
//     branch.
//
//   - Amortized watchdog. The supervision check (steps >= next) happens
//     once per block dispatch at the normal loop head, so an armed
//     watchdog's poll can be late by at most blockMaxUops cinstrs —
//     negligible against the 32768-step supervision interval, and exactly
//     the fused-group-boundary-only polling contract PR 4 documents.
package vm

import (
	"math"
	"sync"

	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/rng"
)

const (
	// blockPreRunSteps bounds the profiling pre-run. It only needs to get
	// past initialization and around the hot loops a few hundred times;
	// the resulting counts are a heuristic, not an observable.
	blockPreRunSteps = 2_000_000
	// blockPreRunSeed seeds the pre-run TRNG. Any constant works; fixing
	// it makes the block stream a pure function of the codeKey.
	blockPreRunSeed = 0xb10c5eed
	// blockMinUops / blockMaxUops bound block length (in cinstrs). The
	// minimum keeps the per-dispatch overhead amortization worthwhile; the
	// maximum bounds both the watchdog poll slack and the step-budget
	// granularity of the careful fallback.
	blockMinUops = 3
	blockMaxUops = 64
	// blockHotDivisor: a leader is hot when its pre-run execution count is
	// at least total/blockHotDivisor (and at least blockHotFloor, so tiny
	// programs form no blocks).
	blockHotDivisor = 1024
	blockHotFloor   = 16
	// blockMaxCost caps each cost-table entry the integrality gate
	// accepts: with costs <= 2^20 and step limits <= 2^32 the in-core
	// cycle accumulator stays below 2^52, inside the exact-integer range.
	blockMaxCost = 1 << 20
	// blockMaxStepLimit is the largest Options.StepLimit the block tier
	// accepts (see blockMaxCost); New silently falls back to the threaded
	// tier above it.
	blockMaxStepLimit = 1 << 32
)

// blockDesc describes one mined block: the covered cinstrs (uops, copies
// with redirected branch targets), exact prefix cost/step sums for
// mid-block event accounting, the pre-summed totals, and the stream index
// of the plain copy of the leader (start) for the careful fallback.
type blockDesc struct {
	uops   []cinstr
	prefix []float64 // prefix[j] = exact cost of uops[0..j)
	psteps []uint32  // psteps[j] = IR constituents in uops[0..j)
	cost   float64   // exact total cost of all uops
	steps  uint64    // total IR constituents of all uops
	start  int32     // plain-stream index of the leader
}

// blockable reports whether a cop may appear inside a block (any position
// including the leader). Control transfers, calls, returns and cBad stay
// outside; simple branches may only terminate a block (see blockTerm).
func blockable(op cop) bool {
	switch op {
	case cJmp, cBr, cCall, cCallHost, cRet, cRetVoid, cBad, cBlock, cCount:
		return false
	}
	switch {
	case op >= cEqBr && op <= cGeBr, op >= cConstEqBr && op <= cConstGeBr:
		return false
	}
	return true
}

// blockTerm reports whether a cop may terminate a block: the simple
// branches whose successors are known stream indexes. cBr (indirect on a
// register computed earlier) is included — its targets were pre-resolved
// at compile time like every branch.
func blockTerm(op cop) bool {
	switch op {
	case cJmp, cBr:
		return true
	}
	switch {
	case op >= cEqBr && op <= cGeBr, op >= cConstEqBr && op <= cConstGeBr:
		return true
	}
	return false
}

// copCost returns the cinstr's total modeled cost: the same per-field sum
// the threaded executor adds in order, mirroring its cost-field reuse
// (cAddrAddrLoad8 charges cost twice for the two AddrLocals;
// cMulLoad8/cMulStore8 charge cost, cost2, cost again for the Add — only
// emitted when ct[OpConst]==ct[OpAdd] — then cost3). Exactness of the
// integrality gate makes the summation order immaterial.
func copCost(c *cinstr) float64 {
	switch c.op {
	case cAddrAddrLoad8:
		return c.cost + c.cost + c.cost2
	case cMulLoad8, cMulStore8:
		return c.cost + c.cost2 + c.cost + c.cost3
	}
	switch len(copConstituents[c.op]) {
	case 2:
		return c.cost + c.cost2
	case 3:
		return c.cost + c.cost2 + c.cost3
	default:
		return c.cost
	}
}

// copSteps returns how many IR constituents (interpreter steps) the cinstr
// retires.
func copSteps(op cop) uint64 { return uint64(len(copConstituents[op])) }

// integralTable reports whether every folded cost-table entry is a
// non-negative integer small enough that per-invocation cycle sums stay in
// float64's exact-integer range (see blockMaxCost). All shipped cost
// models and engine surcharges qualify; a model that doesn't simply keeps
// the threaded tier's accounting.
func integralTable(ct *[ir.NumOps]float64) bool {
	for _, v := range ct {
		if !(v >= 0) || v > blockMaxCost || v != math.Trunc(v) {
			return false
		}
	}
	return true
}

// hotProfiles memoizes pre-run counts across CodeCache instances: the
// counts are a pure function of the program alone (fixed layout engine,
// constant TRNG seed, switch tier), so harness paths that build a private
// cache per experiment cell would otherwise repeat an up-to-2M-step
// pre-run — plus a full memory-image allocation — for the same workload
// program dozens of times per pipeline. The map is pointer-keyed and
// therefore pins its keys; hotProfilesCap bounds that retention so suites
// that generate thousands of throwaway programs don't accumulate them.
// Past the cap, new programs fall back to per-cache memoization only.
var (
	hotProfMu   sync.Mutex
	hotProfiles = make(map[*ir.Program][][]uint64)
)

const hotProfilesCap = 256

// hotCounts returns per-function, per-IR-pc execution counts from the
// memoized profiling pre-run. The pre-run is deterministic (fixed layout
// engine, constant TRNG seed, switch tier so it never touches this cache,
// bounded step budget, empty environment); its outcome — clean return,
// fault, or step limit — is irrelevant, only the counts matter.
func (c *CodeCache) hotCounts(prog *ir.Program) [][]uint64 {
	c.hotMu.Lock()
	defer c.hotMu.Unlock()
	if counts, ok := c.hot[prog]; ok {
		return counts
	}
	hotProfMu.Lock()
	counts, ok := hotProfiles[prog]
	hotProfMu.Unlock()
	if ok {
		c.hot[prog] = counts
		return counts
	}
	counts = make([][]uint64, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		counts[i] = make([]uint64, len(fn.Code))
	}
	m := New(prog, layout.NewFixed(), &Env{}, &Options{
		TRNG:      rng.SeededTRNG(blockPreRunSeed),
		StepLimit: blockPreRunSteps,
		Exec:      TierSwitch,
	})
	m.bbCount = counts
	m.Run()
	c.hot[prog] = counts
	hotProfMu.Lock()
	if len(hotProfiles) < hotProfilesCap {
		hotProfiles[prog] = counts
	}
	hotProfMu.Unlock()
	return counts
}

// blockCompiled returns the block-formed program for the key, building it
// on miss from the threaded stream plus the memoized hot counts. The main
// cache lock is never held across the pre-run.
func (c *CodeCache) blockCompiled(prog *ir.Program, costs Costs, addrExtra float64, prof bool, globalAddr, dataAddr []uint64) *compiledProgram {
	k := codeKey{prog: prog, costs: costs, addrExtra: addrExtra, prof: prof}
	c.mu.Lock()
	if bp, ok := c.blockProgs[k]; ok {
		c.blockHits++
		c.mu.Unlock()
		return bp
	}
	c.mu.Unlock()

	base := c.compiled(prog, costs, addrExtra, prof, globalAddr, dataAddr)
	counts := c.hotCounts(prog)
	ct := buildCostTableFrom(&costs, addrExtra)
	bp := blockProgram(base, counts, &ct)

	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.blockProgs[k]; ok {
		// Lost a build race; both builds are deterministic and identical —
		// keep the stored one for pointer-equality sharing.
		c.blockHits++
		return prev
	}
	c.blockMisses++
	c.blockProgs[k] = bp
	if c.onCompile != nil {
		c.onCompile(prog.Name+"+blocks", len(prog.Funcs))
	}
	return bp
}

// blockProgram forms blocks over every function of a threaded program.
// Returns the base program unchanged (pointer-equal) when the cost table
// fails the integrality gate or no function is hot enough to form blocks.
func blockProgram(base *compiledProgram, counts [][]uint64, ct *[ir.NumOps]float64) *compiledProgram {
	if !integralTable(ct) {
		return base
	}
	var total uint64
	for _, fc := range counts {
		for _, n := range fc {
			total += n
		}
	}
	hotMin := total / blockHotDivisor
	if hotMin < blockHotFloor {
		hotMin = blockHotFloor
	}
	bp := &compiledProgram{funcs: make([]compiledFunc, len(base.funcs)), bbs: base.bbs}
	changed := false
	for i := range base.funcs {
		bp.funcs[i] = blockFunc(&base.funcs[i], counts[i], hotMin)
		if bp.funcs[i].blocks != nil {
			changed = true
		}
	}
	if !changed {
		return base
	}
	return bp
}

// blockFunc forms blocks over one function's threaded stream. A block is a
// maximal run of blockable cinstrs whose interior indexes are not jump
// targets, optionally closed by a branch terminator, at least blockMinUops
// long, whose leader's IR pc executed at least hotMin times in the
// pre-run. The returned stream is the input stream plus one appended
// cBlock per mined block, with branch targets (and the entry) landing on a
// block leader redirected to its superinstruction.
func blockFunc(cf *compiledFunc, counts []uint64, hotMin uint64) compiledFunc {
	code := cf.code
	n := len(code)

	target := make([]bool, n)
	for i := range code {
		c := &code[i]
		switch c.op {
		case cJmp, cCount:
			target[c.t0] = true
		case cBr, cEqBr, cNeBr, cLtBr, cLeBr, cGtBr, cGeBr,
			cConstEqBr, cConstNeBr, cConstLtBr, cConstLeBr, cConstGtBr, cConstGeBr:
			target[c.t0] = true
			target[c.t1] = true
		}
	}

	type span struct {
		start, end int
		term       bool // last uop is a branch (no fall-through continuation)
	}
	var spans []span
	for i := 0; i < n; {
		if !blockable(code[i].op) {
			i++
			continue
		}
		j := i + 1
		for j < n && j-i < blockMaxUops && blockable(code[j].op) && !target[j] {
			j++
		}
		term := false
		if j < n && j-i < blockMaxUops && blockTerm(code[j].op) && !target[j] {
			term = true
			j++
		}
		// A non-terminated block needs an in-stream continuation; streams
		// always end in a control op, so end==n only ever pairs with term.
		if j-i >= blockMinUops && (term || j < n) &&
			int(code[i].pc) < len(counts) && counts[code[i].pc] >= hotMin {
			spans = append(spans, span{start: i, end: j, term: term})
		}
		i = j
	}
	if len(spans) == 0 {
		return *cf
	}

	out := make([]cinstr, n, n+len(spans))
	copy(out, code)
	redirect := make([]int32, n)
	for i := range redirect {
		redirect[i] = int32(i)
	}
	blocks := make([]blockDesc, 0, len(spans))
	for bi, sp := range spans {
		k := sp.end - sp.start
		d := blockDesc{
			uops:   append([]cinstr(nil), code[sp.start:sp.end]...),
			prefix: make([]float64, k),
			psteps: make([]uint32, k),
			start:  int32(sp.start),
		}
		for j := range d.uops {
			d.prefix[j] = d.cost
			d.psteps[j] = uint32(d.steps)
			d.cost += copCost(&d.uops[j])
			d.steps += copSteps(d.uops[j].op)
		}
		cont := int32(0)
		if !sp.term {
			cont = int32(sp.end)
		}
		redirect[sp.start] = int32(len(out))
		out = append(out, cinstr{op: cBlock, a: int32(bi), t0: cont, pc: code[sp.start].pc})
		blocks = append(blocks, d)
	}

	// Redirect every branch landing on a block leader — in the overlay
	// stream, inside each block's uop copies (self-loop back-edges), on
	// each cBlock's fall-through continuation, and on each cCount's
	// continuation in a profiled stream — so hot control flow re-enters
	// superinstructions while the plain copies remain reachable for
	// mid-block resume.
	remap := func(cs []cinstr) {
		for j := range cs {
			c := &cs[j]
			switch c.op {
			case cJmp, cCount:
				c.t0 = redirect[c.t0]
			case cBr, cEqBr, cNeBr, cLtBr, cLeBr, cGtBr, cGeBr,
				cConstEqBr, cConstNeBr, cConstLtBr, cConstLeBr, cConstGtBr, cConstGeBr:
				c.t0 = redirect[c.t0]
				c.t1 = redirect[c.t1]
			case cBlock:
				// t0 is 0 (and unused) for terminated blocks; redirecting
				// index 0 is harmless either way.
				c.t0 = redirect[c.t0]
			}
		}
	}
	remap(out)
	for bi := range blocks {
		remap(blocks[bi].uops)
	}
	return compiledFunc{
		code:     out,
		argLists: cf.argLists,
		blocks:   blocks,
		entry:    redirect[0],
	}
}

// PrewarmBlockTier populates the process-wide code cache's block-tier
// entry (threaded stream, hot counts, block stream) for prog under the
// default cost model and a surcharge-free engine — the configuration every
// harness cell and benchmark uses. Building a throwaway Machine is the
// cheapest way to reach the exact cache key (global/rodata addresses are
// computed during construction).
func PrewarmBlockTier(prog *ir.Program) {
	if prog == nil {
		return
	}
	New(prog, layout.NewFixed(), &Env{}, &Options{
		TRNG: rng.SeededTRNG(blockPreRunSeed),
		Exec: TierBlock,
	})
}
