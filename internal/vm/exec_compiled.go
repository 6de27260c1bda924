// Threaded-code tier, execute half: the dispatch loop over pre-decoded
// cinstr streams. Structurally this mirrors Machine.exec — same pooled
// register slabs, same hoisted step/cycle locals, same flush points around
// calls — because the modeled-cycle accounting must be bit-identical
// between the tiers (see compile.go on cost ordering). What changes is the
// per-step work:
//
//   - no operand re-decoding and no width/signedness switches on loads and
//     stores (the compiler specialized them);
//   - costs read off the instruction instead of a table;
//   - fused superinstructions executing two or three IR ops per dispatch,
//     each its own case arm so a fused group costs exactly one dispatch
//     (grouped arms with an inner switch would re-dispatch and forfeit the
//     win);
//   - memory through inlined segment views instead of out-of-line accessor
//     calls: fused frame-offset loads/stores go straight at the stack
//     segment (a frame address is always in it), and computed-address ops
//     try two rotating hot-segment views plus the stack view, so streams
//     that alternate between two data segments stay in-core.
//
// The loop is split into a CALL-FREE core (runCore) and a driver
// (execCompiled). The core contains no function calls at all — no calls
// into Memory, no error allocation, no sub-VM calls — only inlinable
// segment-view accessors and arithmetic. That matters more than it looks:
// Go's register allocator gives any value that is live across a call a
// stack slot, and with calls in the loop the cycle accumulator degraded to
// a load-add-store chain through memory on every step (store-forwarding
// latency ~3x the FP add alone, and the accumulator chain is the loop's
// critical path). With a pure core, cycles/steps/pc live in registers and
// the serial float chain runs at ADDSD latency. Anything that needs a real
// call — CALL/host dispatch, slow-path memory, faults, returns — exits the
// core with an event code; the driver handles it with full state in hand
// and re-enters.
//
// Profiling adds no work to this loop. A Machine with a Profile attached
// runs a stream variant with a zero-step, zero-cost cCount at each
// basic-block leader (countFunc in compile.go); the driver settles a block
// the run leaves early (profLeave), and the flush expands block counts into
// op rows (profile.go). Dormant streams contain no cCount.
//
// Step-limit semantics inside a fused group replicate the switch
// interpreter exactly: the budget is re-checked before every constituent,
// so a limit that lands mid-group stops after the same instruction, with
// the same partial cycle total, as the unfused stream would. Likewise a
// fused divide still checks its divisor only after the constant
// constituent ran, and faults attribute to the constituent's original IR
// pc (c.pc + k for constituent k).

package vm

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/mem"
)

// coreEvent is why runCore handed control back to the driver.
type coreEvent int32

const (
	evLimit    coreEvent = iota // step budget exhausted (before code[pc] ran)
	evLimit1                    // step budget exhausted after 1 constituent of code[pc]
	evLimit2                    // ... after 2 constituents
	evLimit3                    // ... after 3 constituents
	evRet                       // cRet at pc; result is regs[code[pc].a]
	evRetVoid                   // cRetVoid at pc
	evCall                      // cCall at pc; driver performs the sub-call
	evCallHost                  // cCallHost at pc
	evMemSlow                   // memory constituent at pc missed the fast views
	evDivZero                   // divide/modulo by zero at pc
	evBad                       // unknown opcode at pc
)

// execCompiled interprets fn's compiled stream. It is the compiled tier's
// counterpart of exec and must preserve its observable behaviour (results,
// faults, Stats) bit for bit; TestCycleInvariance and the tier
// differential test enforce that.
func (m *Machine) execCompiled(fn *ir.Function, cf *compiledFunc, base uint64, offsets []int64) (int64, error) {
	regs := m.regSlab(len(m.frames)-1, fn.NumRegs)
	code := cf.code
	// Block tier: blocks holds the mined superinstruction descriptors and
	// entry points at the function's first dispatch (a cBlock when the
	// entry run is hot). Threaded streams have nil blocks and entry 0, and
	// the core never touches either.
	blocks := cf.blocks
	costMul := 1.0
	if m.jitter != nil {
		costMul = m.jitter[fn.ID]
	}
	mm := m.Mem
	stk := m.stack
	// Two rotating segment views for computed addresses. Workloads (and
	// especially DOP attack scenarios) alternate between two non-stack
	// segments — heap and globals — and a single view would double-miss on
	// every other access, paying the full event round-trip each time. With
	// two views the driver rotates hot→hot2 on each slow-path re-aim, so
	// steady alternation settles in-core after two events.
	hot, hot2 := stk, stk
	// bbn is the per-basic-block count slab that a profiled stream's count
	// cinstrs increment (see countFunc); dormant streams contain no count
	// cinstrs, so the core never touches it. prof gates the driver's
	// settling of a block the run leaves early (profLeave).
	bbn := m.profBB
	prof := m.prof != nil
	cycles := 0.0
	steps, limit := m.steps, m.stepLimit
	// next is the supervised chunk boundary (see exec): equal to limit with
	// the watchdog dormant — bit-identical behaviour — and every
	// supervisionInterval steps when armed. Only the core's loop-head check
	// compares against next; mid-group re-checks keep the real limit, so a
	// loop-head evLimit with steps < limit is always a clean, resumable
	// group boundary (no partial constituent effects).
	next := limit
	if m.watchdog {
		next = supNext(steps, limit)
	}
	pc := int(cf.entry)
	for {
		var ev coreEvent
		pc, cycles, steps, ev = runCore(code, blocks, bbn, regs, base, offsets, stk, hot, hot2, pc, cycles, steps, next, limit)
		c := &code[pc]
		switch ev {
		case evLimit, evLimit1, evLimit2, evLimit3:
			// evLimitK always has steps == limit: K constituents of the
			// fused group at pc ran and were charged.
			if steps >= limit {
				m.steps = steps
				m.stats.Cycles += cycles * costMul
				if prof {
					k := int(ev - evLimit)
					m.profLeave(cf, pc, k, k, costMul)
				}
				return 0, &StepLimit{Limit: limit}
			}
			// Supervised chunk boundary: poll the watchdog, then resume at
			// the same pc (the instruction there has not run).
			if m.interrupted.Load() {
				m.steps = steps
				m.stats.Cycles += cycles * costMul
				if prof {
					m.profLeave(cf, pc, 0, 0, costMul)
				}
				return 0, &Canceled{}
			}
			next = supNext(steps, limit)
		case evRet:
			m.steps = steps
			m.stats.Cycles += cycles * costMul
			return regs[c.a], nil
		case evRetVoid:
			m.steps = steps
			m.stats.Cycles += cycles * costMul
			return 0, nil
		case evCall:
			list := cf.argLists[c.a]
			args := m.argSlab(len(m.frames), len(list))
			for i, r := range list {
				args[i] = regs[r]
			}
			// Flush this frame's cycles and step count before descending so
			// recursive accounting stays ordered (same flush point as exec).
			m.stats.Cycles += cycles * costMul
			cycles = 0
			m.steps = steps
			v, err := m.call(m.Prog.Funcs[c.sym], args)
			steps = m.steps
			if err != nil {
				m.steps = steps
				if prof {
					// The call dispatch counts as run (its step was consumed,
					// as in exec); the rest of this block did not run.
					m.profLeave(cf, pc, 1, 1, costMul)
				}
				return 0, err
			}
			if c.dst != int32(ir.NoReg) {
				regs[c.dst] = v
			}
			cycles += c.cost // OpCall carries zero cost; kept for tail parity
			pc++
		case evCallHost:
			list := cf.argLists[c.a]
			args := m.argSlab(len(m.frames), len(list))
			for i, r := range list {
				args[i] = regs[r]
			}
			m.steps = steps
			v, err := m.hostCall(fn, int(c.pc), int(c.sym), args)
			if err != nil {
				m.stats.Cycles += cycles * costMul
				if prof {
					m.profLeave(cf, pc, 1, 1, costMul)
				}
				return 0, err
			}
			if c.dst != int32(ir.NoReg) {
				regs[c.dst] = v
			}
			cycles += c.cost
			pc++
		case evMemSlow:
			costAdd, err := m.slowMem(fn, c, regs, base, offsets)
			if err != nil {
				// The memory access is the last constituent of every group
				// that can raise evMemSlow: all of them consumed a step, all
				// but the faulting access were charged.
				if prof {
					n := len(copConstituents[c.op])
					m.profLeave(cf, pc, n, n-1, costMul)
				}
				m.steps = steps
				m.stats.Cycles += cycles * costMul
				return 0, err
			}
			if prof {
				m.profMemSlow++
			}
			cycles += costAdd
			pc++
			if h := mm.HotSegment(); h != nil && h != hot {
				hot2, hot = hot, h
			}
		case evDivZero:
			// The divide is the last constituent of cDiv/cMod/cConstDiv/
			// cConstMod: settled like a memory fault above.
			if prof {
				n := len(copConstituents[c.op])
				m.profLeave(cf, pc, n, n-1, costMul)
			}
			m.steps = steps
			m.stats.Cycles += cycles * costMul
			at := int(c.pc)
			if c.op == cConstDiv || c.op == cConstMod {
				at++ // the divide is the second constituent of the fused pair
			}
			return 0, &DivideByZero{Func: fn.Name, PC: at}
		default: // evBad
			m.steps = steps
			m.stats.Cycles += cycles * costMul
			if prof {
				m.profLeave(cf, pc, 0, 0, costMul)
			}
			if c.op == cBad {
				return 0, fmt.Errorf("vm: unknown opcode %v in %s at pc=%d", ir.Op(c.sym), fn.Name, c.pc)
			}
			return 0, fmt.Errorf("vm: unknown compiled opcode %d in %s at pc=%d", c.op, fn.Name, c.pc)
		}
	}
}

// slowRead reads n bytes through Memory.FindSegment rather than the plain
// fast-path accessors: FindSegment promotes the serving segment to
// HotSegment even when the cache's prev slot holds it, and the driver
// re-aims the core's inline views from HotSegment after every slow-path
// event. Without the promotion an alternating two-segment stream would
// leave the views stuck and take this round-trip on every other access.
func slowRead(mm *mem.Memory, addr uint64, n int) (uint64, bool) {
	s := mm.FindSegment(addr, n)
	if s == nil {
		return 0, false
	}
	switch n {
	case 8:
		return s.ReadU64At(addr)
	case 4:
		v, ok := s.ReadU32At(addr)
		return uint64(v), ok
	case 1:
		v, ok := s.ReadU8At(addr)
		return uint64(v), ok
	}
	return 0, false
}

// slowWrite is slowRead's store counterpart; false sends the caller to
// WriteU for the authoritative error.
func slowWrite(mm *mem.Memory, addr uint64, n int, val uint64) bool {
	s := mm.FindSegment(addr, n)
	if s == nil {
		return false
	}
	return s.WriteUAt(addr, n, val)
}

// slowMem performs the memory constituent of code[pc] through the general
// (fault-producing) Memory path after the core's fast segment views missed.
// The core has already run every earlier constituent of a fused group —
// in particular the effective address is always in regs[c.dst] for fused
// forms — so only the access itself and its cost remain. Returns the cost
// the driver must still accumulate for the constituent.
func (m *Machine) slowMem(fn *ir.Function, c *cinstr, regs []int64, base uint64, offsets []int64) (float64, error) {
	mm := m.Mem
	switch c.op {
	case cLoad8, cLoad4s, cLoad4u, cLoad1s, cLoad1u:
		addr := uint64(regs[c.a])
		n := int(c.width)
		v, ok := slowRead(mm, addr, n)
		if !ok {
			var err error
			if v, err = mm.ReadU(addr, n); err != nil {
				return 0, &MemFault{Func: fn.Name, PC: int(c.pc), Err: err}
			}
		}
		regs[c.dst] = extend(v, c.width, c.unsigned)
		return c.cost, nil
	case cStore8, cStore4, cStore1:
		addr := uint64(regs[c.a])
		n := int(c.width)
		if !slowWrite(mm, addr, n, uint64(regs[c.b])) {
			if err := mm.WriteU(addr, n, uint64(regs[c.b])); err != nil {
				return 0, &MemFault{Func: fn.Name, PC: int(c.pc), Err: err}
			}
		}
		return c.cost, nil
	case cAddrLoad8, cAddrLoad4s, cAddrLoad4u, cAddrLoad1s, cAddrLoad1u,
		cAddLoad8, cAddLoad4s, cAddLoad4u, cAddLoad1s, cAddLoad1u:
		addr := uint64(regs[c.dst])
		n := int(c.width)
		v, ok := slowRead(mm, addr, n)
		if !ok {
			var err error
			if v, err = mm.ReadU(addr, n); err != nil {
				return 0, &MemFault{Func: fn.Name, PC: int(c.pc) + 1, Err: err}
			}
		}
		regs[c.dst2] = extend(v, c.width, c.unsigned)
		return c.cost2, nil
	case cAddrStore8, cAddrStore4, cAddrStore1:
		addr := uint64(regs[c.dst])
		n := int(c.width)
		if !slowWrite(mm, addr, n, uint64(regs[c.b])) {
			if err := mm.WriteU(addr, n, uint64(regs[c.b])); err != nil {
				return 0, &MemFault{Func: fn.Name, PC: int(c.pc) + 1, Err: err}
			}
		}
		return c.cost2, nil
	case cAddStore8, cAddStore4, cAddStore1:
		addr := uint64(regs[c.dst])
		n := int(c.width)
		if !slowWrite(mm, addr, n, uint64(regs[c.dst2])) {
			if err := mm.WriteU(addr, n, uint64(regs[c.dst2])); err != nil {
				return 0, &MemFault{Func: fn.Name, PC: int(c.pc) + 1, Err: err}
			}
		}
		return c.cost2, nil
	case cAddrAddrLoad8:
		addr := uint64(regs[c.a])
		v, ok := slowRead(mm, addr, 8)
		if !ok {
			var err error
			if v, err = mm.ReadU(addr, 8); err != nil {
				return 0, &MemFault{Func: fn.Name, PC: int(c.pc) + 2, Err: err}
			}
		}
		regs[c.dst2] = int64(v)
		return c.cost2, nil
	case cMulLoad8:
		addr := uint64(regs[c.t1])
		v, ok := slowRead(mm, addr, 8)
		if !ok {
			var err error
			if v, err = mm.ReadU(addr, 8); err != nil {
				return 0, &MemFault{Func: fn.Name, PC: int(c.pc) + 3, Err: err}
			}
		}
		regs[c.sym] = int64(v)
		return c.cost3, nil
	case cMulStore8:
		addr := uint64(regs[c.t1])
		if !slowWrite(mm, addr, 8, uint64(regs[c.sym])) {
			if err := mm.WriteU(addr, 8, uint64(regs[c.sym])); err != nil {
				return 0, &MemFault{Func: fn.Name, PC: int(c.pc) + 3, Err: err}
			}
		}
		return c.cost3, nil
	}
	return 0, fmt.Errorf("vm: slowMem on non-memory opcode %d in %s at pc=%d", c.op, fn.Name, c.pc)
}

// runCore executes compiled instructions until something needs a real
// function call, then reports (pc, cycles, steps, event) for the driver.
// It must stay free of function calls (only inlinable accessors) so the
// accumulators registerize; do not add error construction, Memory methods,
// or anything else that compiles to CALL here.
//
// next is the driver's supervised chunk boundary (next <= limit; equal when
// no watchdog is armed), checked only here at the loop head where no
// partial group effects exist. The mid-group re-checks below compare the
// real limit and report how many constituents ran (evLimit1..3), so an
// evLimit with steps < limit can only come from the loop head and is
// always safe to resume.
//
// bbn is the basic-block count slab of a profiled stream: its cCount
// cinstrs are the only profiling work in the loop, and dormant streams
// contain none, so the dormant loop never reads bbn.
func runCore(code []cinstr, blocks []blockDesc, bbn []uint64, regs []int64, base uint64, offsets []int64, stk, hot, hot2 *mem.Segment, pc int, cycles float64, steps, next, limit uint64) (int, float64, uint64, coreEvent) {
	for {
		if steps >= next {
			return pc, cycles, steps, evLimit
		}
		steps++
		c := &code[pc]
		switch c.op {
		case cNop:
		case cConst:
			regs[c.dst] = c.imm
		case cMov:
			regs[c.dst] = regs[c.a]
		case cAdd:
			regs[c.dst] = regs[c.a] + regs[c.b]
		case cSub:
			regs[c.dst] = regs[c.a] - regs[c.b]
		case cMul:
			regs[c.dst] = regs[c.a] * regs[c.b]
		case cDiv:
			if regs[c.b] == 0 {
				return pc, cycles, steps, evDivZero
			}
			regs[c.dst] = regs[c.a] / regs[c.b]
		case cMod:
			if regs[c.b] == 0 {
				return pc, cycles, steps, evDivZero
			}
			regs[c.dst] = regs[c.a] % regs[c.b]
		case cAnd:
			regs[c.dst] = regs[c.a] & regs[c.b]
		case cOr:
			regs[c.dst] = regs[c.a] | regs[c.b]
		case cXor:
			regs[c.dst] = regs[c.a] ^ regs[c.b]
		case cShl:
			regs[c.dst] = regs[c.a] << (uint64(regs[c.b]) & 63)
		case cShr:
			regs[c.dst] = regs[c.a] >> (uint64(regs[c.b]) & 63)
		case cNeg:
			regs[c.dst] = -regs[c.a]
		case cNot:
			regs[c.dst] = ^regs[c.a]
		case cSetZ:
			if regs[c.a] == 0 {
				regs[c.dst] = 1
			} else {
				regs[c.dst] = 0
			}
		case cEq:
			regs[c.dst] = b2i(regs[c.a] == regs[c.b])
		case cNe:
			regs[c.dst] = b2i(regs[c.a] != regs[c.b])
		case cLt:
			regs[c.dst] = b2i(regs[c.a] < regs[c.b])
		case cLe:
			regs[c.dst] = b2i(regs[c.a] <= regs[c.b])
		case cGt:
			regs[c.dst] = b2i(regs[c.a] > regs[c.b])
		case cGe:
			regs[c.dst] = b2i(regs[c.a] >= regs[c.b])

		case cLoad8:
			addr := uint64(regs[c.a])
			var v uint64
			if hd, hb, he := hot.View(); has8(hb, he, addr) {
				v = get8(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has8(sb, se, addr) {
				v = get8(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has8(b2, e2, addr) {
				v = get8(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.dst] = int64(v)
		case cLoad4s:
			addr := uint64(regs[c.a])
			var v uint32
			if hd, hb, he := hot.View(); has4(hb, he, addr) {
				v = get4(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has4(sb, se, addr) {
				v = get4(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has4(b2, e2, addr) {
				v = get4(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.dst] = int64(int32(v))
		case cLoad4u:
			addr := uint64(regs[c.a])
			var v uint32
			if hd, hb, he := hot.View(); has4(hb, he, addr) {
				v = get4(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has4(sb, se, addr) {
				v = get4(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has4(b2, e2, addr) {
				v = get4(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.dst] = int64(v)
		case cLoad1s:
			addr := uint64(regs[c.a])
			var v byte
			if hd, hb, he := hot.View(); has1(hb, he, addr) {
				v = get1(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has1(sb, se, addr) {
				v = get1(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has1(b2, e2, addr) {
				v = get1(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.dst] = int64(int8(v))
		case cLoad1u:
			addr := uint64(regs[c.a])
			var v byte
			if hd, hb, he := hot.View(); has1(hb, he, addr) {
				v = get1(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has1(sb, se, addr) {
				v = get1(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has1(b2, e2, addr) {
				v = get1(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.dst] = int64(v)

		case cStore8:
			addr := uint64(regs[c.a])
			if hd, hb, he := hot.View(); hot.Writable && has8(hb, he, addr) {
				put8(hd, hb, addr, uint64(regs[c.b]))
			} else if sd, sb, se := stk.View(); stk.Writable && has8(sb, se, addr) {
				put8(sd, sb, addr, uint64(regs[c.b]))
			} else if d2, b2, e2 := hot2.View(); hot2.Writable && has8(b2, e2, addr) {
				put8(d2, b2, addr, uint64(regs[c.b]))
			} else {
				return pc, cycles, steps, evMemSlow
			}
		case cStore4:
			addr := uint64(regs[c.a])
			if hd, hb, he := hot.View(); hot.Writable && has4(hb, he, addr) {
				put4(hd, hb, addr, uint32(regs[c.b]))
			} else if sd, sb, se := stk.View(); stk.Writable && has4(sb, se, addr) {
				put4(sd, sb, addr, uint32(regs[c.b]))
			} else if d2, b2, e2 := hot2.View(); hot2.Writable && has4(b2, e2, addr) {
				put4(d2, b2, addr, uint32(regs[c.b]))
			} else {
				return pc, cycles, steps, evMemSlow
			}
		case cStore1:
			addr := uint64(regs[c.a])
			if hd, hb, he := hot.View(); hot.Writable && has1(hb, he, addr) {
				put1(hd, hb, addr, byte(regs[c.b]))
			} else if sd, sb, se := stk.View(); stk.Writable && has1(sb, se, addr) {
				put1(sd, sb, addr, byte(regs[c.b]))
			} else if d2, b2, e2 := hot2.View(); hot2.Writable && has1(b2, e2, addr) {
				put1(d2, b2, addr, byte(regs[c.b]))
			} else {
				return pc, cycles, steps, evMemSlow
			}

		case cAddrLocal:
			regs[c.dst] = int64(base + uint64(offsets[c.sym]))
		case cAddrConst:
			regs[c.dst] = c.imm
		case cJmp:
			pc = int(c.t0)
			cycles += c.cost
			continue
		case cBr:
			if regs[c.a] != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost
			continue
		case cCall:
			return pc, cycles, steps, evCall
		case cCallHost:
			return pc, cycles, steps, evCallHost
		case cRet:
			cycles += c.cost
			return pc, cycles, steps, evRet
		case cRetVoid:
			cycles += c.cost
			return pc, cycles, steps, evRetVoid

		case cEqBr:
			v := b2i(regs[c.a] == regs[c.b])
			regs[c.dst] = v
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost2
			continue
		case cNeBr:
			v := b2i(regs[c.a] != regs[c.b])
			regs[c.dst] = v
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost2
			continue
		case cLtBr:
			v := b2i(regs[c.a] < regs[c.b])
			regs[c.dst] = v
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost2
			continue
		case cLeBr:
			v := b2i(regs[c.a] <= regs[c.b])
			regs[c.dst] = v
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost2
			continue
		case cGtBr:
			v := b2i(regs[c.a] > regs[c.b])
			regs[c.dst] = v
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost2
			continue
		case cGeBr:
			v := b2i(regs[c.a] >= regs[c.b])
			regs[c.dst] = v
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost2
			continue

		case cConstAdd:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			regs[c.dst2] = regs[c.a] + regs[c.b]
			cycles += c.cost2
			pc++
			continue
		case cConstSub:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			regs[c.dst2] = regs[c.a] - regs[c.b]
			cycles += c.cost2
			pc++
			continue
		case cConstMul:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			regs[c.dst2] = regs[c.a] * regs[c.b]
			cycles += c.cost2
			pc++
			continue
		case cConstDiv:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if regs[c.b] == 0 {
				return pc, cycles, steps, evDivZero
			}
			regs[c.dst2] = regs[c.a] / regs[c.b]
			cycles += c.cost2
			pc++
			continue
		case cConstMod:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if regs[c.b] == 0 {
				return pc, cycles, steps, evDivZero
			}
			regs[c.dst2] = regs[c.a] % regs[c.b]
			cycles += c.cost2
			pc++
			continue
		case cConstAnd:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			regs[c.dst2] = regs[c.a] & regs[c.b]
			cycles += c.cost2
			pc++
			continue
		case cConstOr:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			regs[c.dst2] = regs[c.a] | regs[c.b]
			cycles += c.cost2
			pc++
			continue
		case cConstXor:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			regs[c.dst2] = regs[c.a] ^ regs[c.b]
			cycles += c.cost2
			pc++
			continue
		case cConstShl:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			regs[c.dst2] = regs[c.a] << (uint64(regs[c.b]) & 63)
			cycles += c.cost2
			pc++
			continue
		case cConstShr:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			regs[c.dst2] = regs[c.a] >> (uint64(regs[c.b]) & 63)
			cycles += c.cost2
			pc++
			continue

		case cConstEqBr:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			v := b2i(regs[c.a] == regs[c.b])
			regs[c.dst2] = v
			cycles += c.cost2
			if steps >= limit {
				return pc, cycles, steps, evLimit2
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost3
			continue
		case cConstNeBr:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			v := b2i(regs[c.a] != regs[c.b])
			regs[c.dst2] = v
			cycles += c.cost2
			if steps >= limit {
				return pc, cycles, steps, evLimit2
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost3
			continue
		case cConstLtBr:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			v := b2i(regs[c.a] < regs[c.b])
			regs[c.dst2] = v
			cycles += c.cost2
			if steps >= limit {
				return pc, cycles, steps, evLimit2
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost3
			continue
		case cConstLeBr:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			v := b2i(regs[c.a] <= regs[c.b])
			regs[c.dst2] = v
			cycles += c.cost2
			if steps >= limit {
				return pc, cycles, steps, evLimit2
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost3
			continue
		case cConstGtBr:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			v := b2i(regs[c.a] > regs[c.b])
			regs[c.dst2] = v
			cycles += c.cost2
			if steps >= limit {
				return pc, cycles, steps, evLimit2
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost3
			continue
		case cConstGeBr:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			v := b2i(regs[c.a] >= regs[c.b])
			regs[c.dst2] = v
			cycles += c.cost2
			if steps >= limit {
				return pc, cycles, steps, evLimit2
			}
			steps++
			if v != 0 {
				pc = int(c.t0)
			} else {
				pc = int(c.t1)
			}
			cycles += c.cost3
			continue

		// Fused frame-offset loads/stores: the address is base+offset,
		// which is always inside the stack segment, so the stack view is
		// the effectively-always path.
		case cAddrLoad8:
			addr := base + uint64(offsets[c.sym])
			regs[c.dst] = int64(addr)
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			sd, sb, se := stk.View()
			if !has8(sb, se, addr) {
				return pc, cycles, steps, evMemSlow
			}
			v := get8(sd, sb, addr)
			regs[c.dst2] = int64(v)
			cycles += c.cost2
			pc++
			continue
		case cAddrLoad4s:
			addr := base + uint64(offsets[c.sym])
			regs[c.dst] = int64(addr)
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			sd, sb, se := stk.View()
			if !has4(sb, se, addr) {
				return pc, cycles, steps, evMemSlow
			}
			v := get4(sd, sb, addr)
			regs[c.dst2] = int64(int32(v))
			cycles += c.cost2
			pc++
			continue
		case cAddrLoad4u:
			addr := base + uint64(offsets[c.sym])
			regs[c.dst] = int64(addr)
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			sd, sb, se := stk.View()
			if !has4(sb, se, addr) {
				return pc, cycles, steps, evMemSlow
			}
			v := get4(sd, sb, addr)
			regs[c.dst2] = int64(v)
			cycles += c.cost2
			pc++
			continue
		case cAddrLoad1s:
			addr := base + uint64(offsets[c.sym])
			regs[c.dst] = int64(addr)
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			sd, sb, se := stk.View()
			if !has1(sb, se, addr) {
				return pc, cycles, steps, evMemSlow
			}
			v := get1(sd, sb, addr)
			regs[c.dst2] = int64(int8(v))
			cycles += c.cost2
			pc++
			continue
		case cAddrLoad1u:
			addr := base + uint64(offsets[c.sym])
			regs[c.dst] = int64(addr)
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			sd, sb, se := stk.View()
			if !has1(sb, se, addr) {
				return pc, cycles, steps, evMemSlow
			}
			v := get1(sd, sb, addr)
			regs[c.dst2] = int64(v)
			cycles += c.cost2
			pc++
			continue

		case cAddrStore8:
			addr := base + uint64(offsets[c.sym])
			regs[c.dst] = int64(addr)
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if sd, sb, se := stk.View(); stk.Writable && has8(sb, se, addr) {
				put8(sd, sb, addr, uint64(regs[c.b]))
			} else {
				return pc, cycles, steps, evMemSlow
			}
			cycles += c.cost2
			pc++
			continue
		case cAddrStore4:
			addr := base + uint64(offsets[c.sym])
			regs[c.dst] = int64(addr)
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if sd, sb, se := stk.View(); stk.Writable && has4(sb, se, addr) {
				put4(sd, sb, addr, uint32(regs[c.b]))
			} else {
				return pc, cycles, steps, evMemSlow
			}
			cycles += c.cost2
			pc++
			continue
		case cAddrStore1:
			addr := base + uint64(offsets[c.sym])
			regs[c.dst] = int64(addr)
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			if sd, sb, se := stk.View(); stk.Writable && has1(sb, se, addr) {
				put1(sd, sb, addr, byte(regs[c.b]))
			} else {
				return pc, cycles, steps, evMemSlow
			}
			cycles += c.cost2
			pc++
			continue

		// Fused computed-address (array element) loads/stores: the add's
		// sum is the effective address, through the hot then stack views.
		case cAddLoad8:
			sum := regs[c.a] + regs[c.b]
			regs[c.dst] = sum
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			addr := uint64(sum)
			var v uint64
			if hd, hb, he := hot.View(); has8(hb, he, addr) {
				v = get8(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has8(sb, se, addr) {
				v = get8(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has8(b2, e2, addr) {
				v = get8(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.dst2] = int64(v)
			cycles += c.cost2
			pc++
			continue
		case cAddLoad4s:
			sum := regs[c.a] + regs[c.b]
			regs[c.dst] = sum
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			addr := uint64(sum)
			var v uint32
			if hd, hb, he := hot.View(); has4(hb, he, addr) {
				v = get4(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has4(sb, se, addr) {
				v = get4(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has4(b2, e2, addr) {
				v = get4(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.dst2] = int64(int32(v))
			cycles += c.cost2
			pc++
			continue
		case cAddLoad4u:
			sum := regs[c.a] + regs[c.b]
			regs[c.dst] = sum
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			addr := uint64(sum)
			var v uint32
			if hd, hb, he := hot.View(); has4(hb, he, addr) {
				v = get4(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has4(sb, se, addr) {
				v = get4(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has4(b2, e2, addr) {
				v = get4(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.dst2] = int64(v)
			cycles += c.cost2
			pc++
			continue
		case cAddLoad1s:
			sum := regs[c.a] + regs[c.b]
			regs[c.dst] = sum
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			addr := uint64(sum)
			var v byte
			if hd, hb, he := hot.View(); has1(hb, he, addr) {
				v = get1(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has1(sb, se, addr) {
				v = get1(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has1(b2, e2, addr) {
				v = get1(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.dst2] = int64(int8(v))
			cycles += c.cost2
			pc++
			continue
		case cAddLoad1u:
			sum := regs[c.a] + regs[c.b]
			regs[c.dst] = sum
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			addr := uint64(sum)
			var v byte
			if hd, hb, he := hot.View(); has1(hb, he, addr) {
				v = get1(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has1(sb, se, addr) {
				v = get1(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has1(b2, e2, addr) {
				v = get1(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.dst2] = int64(v)
			cycles += c.cost2
			pc++
			continue

		case cAddStore8:
			sum := regs[c.a] + regs[c.b]
			regs[c.dst] = sum
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			addr := uint64(sum)
			val := uint64(regs[c.dst2])
			if hd, hb, he := hot.View(); hot.Writable && has8(hb, he, addr) {
				put8(hd, hb, addr, val)
			} else if sd, sb, se := stk.View(); stk.Writable && has8(sb, se, addr) {
				put8(sd, sb, addr, val)
			} else if d2, b2, e2 := hot2.View(); hot2.Writable && has8(b2, e2, addr) {
				put8(d2, b2, addr, val)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			cycles += c.cost2
			pc++
			continue
		case cAddStore4:
			sum := regs[c.a] + regs[c.b]
			regs[c.dst] = sum
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			addr := uint64(sum)
			val := uint64(regs[c.dst2])
			if hd, hb, he := hot.View(); hot.Writable && has4(hb, he, addr) {
				put4(hd, hb, addr, uint32(val))
			} else if sd, sb, se := stk.View(); stk.Writable && has4(sb, se, addr) {
				put4(sd, sb, addr, uint32(val))
			} else if d2, b2, e2 := hot2.View(); hot2.Writable && has4(b2, e2, addr) {
				put4(d2, b2, addr, uint32(val))
			} else {
				return pc, cycles, steps, evMemSlow
			}
			cycles += c.cost2
			pc++
			continue
		case cAddStore1:
			sum := regs[c.a] + regs[c.b]
			regs[c.dst] = sum
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			addr := uint64(sum)
			val := uint64(regs[c.dst2])
			if hd, hb, he := hot.View(); hot.Writable && has1(hb, he, addr) {
				put1(hd, hb, addr, byte(val))
			} else if sd, sb, se := stk.View(); stk.Writable && has1(sb, se, addr) {
				put1(sd, sb, addr, byte(val))
			} else if d2, b2, e2 := hot2.View(); hot2.Writable && has1(b2, e2, addr) {
				put1(d2, b2, addr, byte(val))
			} else {
				return pc, cycles, steps, evMemSlow
			}
			cycles += c.cost2
			pc++
			continue

		case cAddrAddrLoad8:
			regs[c.dst] = int64(base + uint64(offsets[c.sym]))
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			addr := base + uint64(offsets[c.t0])
			regs[c.a] = int64(addr)
			cycles += c.cost // second AddrLocal, same table entry
			if steps >= limit {
				return pc, cycles, steps, evLimit2
			}
			steps++
			sd, sb, se := stk.View()
			if !has8(sb, se, addr) {
				return pc, cycles, steps, evMemSlow
			}
			v := get8(sd, sb, addr)
			regs[c.dst2] = int64(v)
			cycles += c.cost2
			pc++
			continue

		case cMulLoad8:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			regs[c.dst2] = regs[c.a] * regs[c.b]
			cycles += c.cost2
			if steps >= limit {
				return pc, cycles, steps, evLimit2
			}
			steps++
			sum := regs[c.t0] + regs[c.dst2]
			regs[c.t1] = sum
			cycles += c.cost // the Add shares the const's ALU cost (compile-time guarded)
			if steps >= limit {
				return pc, cycles, steps, evLimit3
			}
			steps++
			addr := uint64(sum)
			var v uint64
			if hd, hb, he := hot.View(); has8(hb, he, addr) {
				v = get8(hd, hb, addr)
			} else if sd, sb, se := stk.View(); has8(sb, se, addr) {
				v = get8(sd, sb, addr)
			} else if d2, b2, e2 := hot2.View(); has8(b2, e2, addr) {
				v = get8(d2, b2, addr)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			regs[c.sym] = int64(v)
			cycles += c.cost3
			pc++
			continue
		case cMulStore8:
			regs[c.dst] = c.imm
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit1
			}
			steps++
			regs[c.dst2] = regs[c.a] * regs[c.b]
			cycles += c.cost2
			if steps >= limit {
				return pc, cycles, steps, evLimit2
			}
			steps++
			sum := regs[c.t0] + regs[c.dst2]
			regs[c.t1] = sum
			cycles += c.cost
			if steps >= limit {
				return pc, cycles, steps, evLimit3
			}
			steps++
			addr := uint64(sum)
			val := uint64(regs[c.sym])
			if hd, hb, he := hot.View(); hot.Writable && has8(hb, he, addr) {
				put8(hd, hb, addr, val)
			} else if sd, sb, se := stk.View(); stk.Writable && has8(sb, se, addr) {
				put8(sd, sb, addr, val)
			} else if d2, b2, e2 := hot2.View(); hot2.Writable && has8(b2, e2, addr) {
				put8(d2, b2, addr, val)
			} else {
				return pc, cycles, steps, evMemSlow
			}
			cycles += c.cost3
			pc++
			continue

		case cBlock:
			// Block superinstruction (blocktier.go): the whole mined
			// straight-line run executes with ONE pre-summed cost add and
			// the step budget amortized into this dispatch's loop-head
			// check. The bail below guarantees the budget cannot land
			// inside the block (entry steps + d.steps <= limit); when it
			// could, the plain copies at d.start replay the run with full
			// per-constituent fidelity instead (steps-- undoes this loop
			// head's increment; the plain leader re-increments). Mid-block
			// events that don't depend on the budget — slow-path memory,
			// divide-by-zero — exit with exact partial sums (prefix/psteps)
			// at the PLAIN index of the faulting uop, so the driver's
			// handlers, fault attribution and pc+1 resume work unchanged
			// and execution rejoins the accelerated stream at the next
			// redirected branch.
			d := &blocks[c.a]
			if d.steps > limit-steps+1 {
				steps--
				pc = int(d.start)
				continue
			}
			uops := d.uops
			npc := int(c.t0)
			for j := 0; j < len(uops); j++ {
				u := &uops[j]
				switch u.op {
				case cNop:
				case cConst:
					regs[u.dst] = u.imm
				case cMov:
					regs[u.dst] = regs[u.a]
				case cAdd:
					regs[u.dst] = regs[u.a] + regs[u.b]
				case cSub:
					regs[u.dst] = regs[u.a] - regs[u.b]
				case cMul:
					regs[u.dst] = regs[u.a] * regs[u.b]
				case cDiv:
					if regs[u.b] == 0 {
						cycles += d.prefix[j]
						steps += uint64(d.psteps[j])
						return int(d.start) + j, cycles, steps, evDivZero
					}
					regs[u.dst] = regs[u.a] / regs[u.b]
				case cMod:
					if regs[u.b] == 0 {
						cycles += d.prefix[j]
						steps += uint64(d.psteps[j])
						return int(d.start) + j, cycles, steps, evDivZero
					}
					regs[u.dst] = regs[u.a] % regs[u.b]
				case cAnd:
					regs[u.dst] = regs[u.a] & regs[u.b]
				case cOr:
					regs[u.dst] = regs[u.a] | regs[u.b]
				case cXor:
					regs[u.dst] = regs[u.a] ^ regs[u.b]
				case cShl:
					regs[u.dst] = regs[u.a] << (uint64(regs[u.b]) & 63)
				case cShr:
					regs[u.dst] = regs[u.a] >> (uint64(regs[u.b]) & 63)
				case cNeg:
					regs[u.dst] = -regs[u.a]
				case cNot:
					regs[u.dst] = ^regs[u.a]
				case cSetZ:
					if regs[u.a] == 0 {
						regs[u.dst] = 1
					} else {
						regs[u.dst] = 0
					}
				case cEq:
					regs[u.dst] = b2i(regs[u.a] == regs[u.b])
				case cNe:
					regs[u.dst] = b2i(regs[u.a] != regs[u.b])
				case cLt:
					regs[u.dst] = b2i(regs[u.a] < regs[u.b])
				case cLe:
					regs[u.dst] = b2i(regs[u.a] <= regs[u.b])
				case cGt:
					regs[u.dst] = b2i(regs[u.a] > regs[u.b])
				case cGe:
					regs[u.dst] = b2i(regs[u.a] >= regs[u.b])

				case cLoad8:
					addr := uint64(regs[u.a])
					var v uint64
					if hd, hb, he := hot.View(); has8(hb, he, addr) {
						v = get8(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has8(sb, se, addr) {
						v = get8(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has8(b2, e2, addr) {
						v = get8(d2, b2, addr)
					} else {
						cycles += d.prefix[j]
						steps += uint64(d.psteps[j])
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.dst] = int64(v)
				case cLoad4s:
					addr := uint64(regs[u.a])
					var v uint32
					if hd, hb, he := hot.View(); has4(hb, he, addr) {
						v = get4(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has4(sb, se, addr) {
						v = get4(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has4(b2, e2, addr) {
						v = get4(d2, b2, addr)
					} else {
						cycles += d.prefix[j]
						steps += uint64(d.psteps[j])
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.dst] = int64(int32(v))
				case cLoad4u:
					addr := uint64(regs[u.a])
					var v uint32
					if hd, hb, he := hot.View(); has4(hb, he, addr) {
						v = get4(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has4(sb, se, addr) {
						v = get4(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has4(b2, e2, addr) {
						v = get4(d2, b2, addr)
					} else {
						cycles += d.prefix[j]
						steps += uint64(d.psteps[j])
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.dst] = int64(v)
				case cLoad1s:
					addr := uint64(regs[u.a])
					var v byte
					if hd, hb, he := hot.View(); has1(hb, he, addr) {
						v = get1(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has1(sb, se, addr) {
						v = get1(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has1(b2, e2, addr) {
						v = get1(d2, b2, addr)
					} else {
						cycles += d.prefix[j]
						steps += uint64(d.psteps[j])
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.dst] = int64(int8(v))
				case cLoad1u:
					addr := uint64(regs[u.a])
					var v byte
					if hd, hb, he := hot.View(); has1(hb, he, addr) {
						v = get1(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has1(sb, se, addr) {
						v = get1(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has1(b2, e2, addr) {
						v = get1(d2, b2, addr)
					} else {
						cycles += d.prefix[j]
						steps += uint64(d.psteps[j])
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.dst] = int64(v)

				case cStore8:
					addr := uint64(regs[u.a])
					if hd, hb, he := hot.View(); hot.Writable && has8(hb, he, addr) {
						put8(hd, hb, addr, uint64(regs[u.b]))
					} else if sd, sb, se := stk.View(); stk.Writable && has8(sb, se, addr) {
						put8(sd, sb, addr, uint64(regs[u.b]))
					} else if d2, b2, e2 := hot2.View(); hot2.Writable && has8(b2, e2, addr) {
						put8(d2, b2, addr, uint64(regs[u.b]))
					} else {
						cycles += d.prefix[j]
						steps += uint64(d.psteps[j])
						return int(d.start) + j, cycles, steps, evMemSlow
					}
				case cStore4:
					addr := uint64(regs[u.a])
					if hd, hb, he := hot.View(); hot.Writable && has4(hb, he, addr) {
						put4(hd, hb, addr, uint32(regs[u.b]))
					} else if sd, sb, se := stk.View(); stk.Writable && has4(sb, se, addr) {
						put4(sd, sb, addr, uint32(regs[u.b]))
					} else if d2, b2, e2 := hot2.View(); hot2.Writable && has4(b2, e2, addr) {
						put4(d2, b2, addr, uint32(regs[u.b]))
					} else {
						cycles += d.prefix[j]
						steps += uint64(d.psteps[j])
						return int(d.start) + j, cycles, steps, evMemSlow
					}
				case cStore1:
					addr := uint64(regs[u.a])
					if hd, hb, he := hot.View(); hot.Writable && has1(hb, he, addr) {
						put1(hd, hb, addr, byte(regs[u.b]))
					} else if sd, sb, se := stk.View(); stk.Writable && has1(sb, se, addr) {
						put1(sd, sb, addr, byte(regs[u.b]))
					} else if d2, b2, e2 := hot2.View(); hot2.Writable && has1(b2, e2, addr) {
						put1(d2, b2, addr, byte(regs[u.b]))
					} else {
						cycles += d.prefix[j]
						steps += uint64(d.psteps[j])
						return int(d.start) + j, cycles, steps, evMemSlow
					}

				case cAddrLocal:
					regs[u.dst] = int64(base + uint64(offsets[u.sym]))
				case cAddrConst:
					regs[u.dst] = u.imm

				case cConstAdd:
					regs[u.dst] = u.imm
					regs[u.dst2] = regs[u.a] + regs[u.b]
				case cConstSub:
					regs[u.dst] = u.imm
					regs[u.dst2] = regs[u.a] - regs[u.b]
				case cConstMul:
					regs[u.dst] = u.imm
					regs[u.dst2] = regs[u.a] * regs[u.b]
				case cConstDiv:
					regs[u.dst] = u.imm
					if regs[u.b] == 0 {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evDivZero
					}
					regs[u.dst2] = regs[u.a] / regs[u.b]
				case cConstMod:
					regs[u.dst] = u.imm
					if regs[u.b] == 0 {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evDivZero
					}
					regs[u.dst2] = regs[u.a] % regs[u.b]
				case cConstAnd:
					regs[u.dst] = u.imm
					regs[u.dst2] = regs[u.a] & regs[u.b]
				case cConstOr:
					regs[u.dst] = u.imm
					regs[u.dst2] = regs[u.a] | regs[u.b]
				case cConstXor:
					regs[u.dst] = u.imm
					regs[u.dst2] = regs[u.a] ^ regs[u.b]
				case cConstShl:
					regs[u.dst] = u.imm
					regs[u.dst2] = regs[u.a] << (uint64(regs[u.b]) & 63)
				case cConstShr:
					regs[u.dst] = u.imm
					regs[u.dst2] = regs[u.a] >> (uint64(regs[u.b]) & 63)

				case cAddrLoad8:
					addr := base + uint64(offsets[u.sym])
					regs[u.dst] = int64(addr)
					sd, sb, se := stk.View()
					if !has8(sb, se, addr) {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					v := get8(sd, sb, addr)
					regs[u.dst2] = int64(v)
				case cAddrLoad4s:
					addr := base + uint64(offsets[u.sym])
					regs[u.dst] = int64(addr)
					sd, sb, se := stk.View()
					if !has4(sb, se, addr) {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					v := get4(sd, sb, addr)
					regs[u.dst2] = int64(int32(v))
				case cAddrLoad4u:
					addr := base + uint64(offsets[u.sym])
					regs[u.dst] = int64(addr)
					sd, sb, se := stk.View()
					if !has4(sb, se, addr) {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					v := get4(sd, sb, addr)
					regs[u.dst2] = int64(v)
				case cAddrLoad1s:
					addr := base + uint64(offsets[u.sym])
					regs[u.dst] = int64(addr)
					sd, sb, se := stk.View()
					if !has1(sb, se, addr) {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					v := get1(sd, sb, addr)
					regs[u.dst2] = int64(int8(v))
				case cAddrLoad1u:
					addr := base + uint64(offsets[u.sym])
					regs[u.dst] = int64(addr)
					sd, sb, se := stk.View()
					if !has1(sb, se, addr) {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					v := get1(sd, sb, addr)
					regs[u.dst2] = int64(v)

				case cAddrStore8:
					addr := base + uint64(offsets[u.sym])
					regs[u.dst] = int64(addr)
					if sd, sb, se := stk.View(); stk.Writable && has8(sb, se, addr) {
						put8(sd, sb, addr, uint64(regs[u.b]))
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
				case cAddrStore4:
					addr := base + uint64(offsets[u.sym])
					regs[u.dst] = int64(addr)
					if sd, sb, se := stk.View(); stk.Writable && has4(sb, se, addr) {
						put4(sd, sb, addr, uint32(regs[u.b]))
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
				case cAddrStore1:
					addr := base + uint64(offsets[u.sym])
					regs[u.dst] = int64(addr)
					if sd, sb, se := stk.View(); stk.Writable && has1(sb, se, addr) {
						put1(sd, sb, addr, byte(regs[u.b]))
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}

				case cAddLoad8:
					sum := regs[u.a] + regs[u.b]
					regs[u.dst] = sum
					addr := uint64(sum)
					var v uint64
					if hd, hb, he := hot.View(); has8(hb, he, addr) {
						v = get8(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has8(sb, se, addr) {
						v = get8(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has8(b2, e2, addr) {
						v = get8(d2, b2, addr)
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.dst2] = int64(v)
				case cAddLoad4s:
					sum := regs[u.a] + regs[u.b]
					regs[u.dst] = sum
					addr := uint64(sum)
					var v uint32
					if hd, hb, he := hot.View(); has4(hb, he, addr) {
						v = get4(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has4(sb, se, addr) {
						v = get4(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has4(b2, e2, addr) {
						v = get4(d2, b2, addr)
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.dst2] = int64(int32(v))
				case cAddLoad4u:
					sum := regs[u.a] + regs[u.b]
					regs[u.dst] = sum
					addr := uint64(sum)
					var v uint32
					if hd, hb, he := hot.View(); has4(hb, he, addr) {
						v = get4(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has4(sb, se, addr) {
						v = get4(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has4(b2, e2, addr) {
						v = get4(d2, b2, addr)
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.dst2] = int64(v)
				case cAddLoad1s:
					sum := regs[u.a] + regs[u.b]
					regs[u.dst] = sum
					addr := uint64(sum)
					var v byte
					if hd, hb, he := hot.View(); has1(hb, he, addr) {
						v = get1(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has1(sb, se, addr) {
						v = get1(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has1(b2, e2, addr) {
						v = get1(d2, b2, addr)
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.dst2] = int64(int8(v))
				case cAddLoad1u:
					sum := regs[u.a] + regs[u.b]
					regs[u.dst] = sum
					addr := uint64(sum)
					var v byte
					if hd, hb, he := hot.View(); has1(hb, he, addr) {
						v = get1(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has1(sb, se, addr) {
						v = get1(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has1(b2, e2, addr) {
						v = get1(d2, b2, addr)
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.dst2] = int64(v)

				case cAddStore8:
					sum := regs[u.a] + regs[u.b]
					regs[u.dst] = sum
					addr := uint64(sum)
					val := uint64(regs[u.dst2])
					if hd, hb, he := hot.View(); hot.Writable && has8(hb, he, addr) {
						put8(hd, hb, addr, val)
					} else if sd, sb, se := stk.View(); stk.Writable && has8(sb, se, addr) {
						put8(sd, sb, addr, val)
					} else if d2, b2, e2 := hot2.View(); hot2.Writable && has8(b2, e2, addr) {
						put8(d2, b2, addr, val)
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
				case cAddStore4:
					sum := regs[u.a] + regs[u.b]
					regs[u.dst] = sum
					addr := uint64(sum)
					val := uint64(regs[u.dst2])
					if hd, hb, he := hot.View(); hot.Writable && has4(hb, he, addr) {
						put4(hd, hb, addr, uint32(val))
					} else if sd, sb, se := stk.View(); stk.Writable && has4(sb, se, addr) {
						put4(sd, sb, addr, uint32(val))
					} else if d2, b2, e2 := hot2.View(); hot2.Writable && has4(b2, e2, addr) {
						put4(d2, b2, addr, uint32(val))
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}
				case cAddStore1:
					sum := regs[u.a] + regs[u.b]
					regs[u.dst] = sum
					addr := uint64(sum)
					val := uint64(regs[u.dst2])
					if hd, hb, he := hot.View(); hot.Writable && has1(hb, he, addr) {
						put1(hd, hb, addr, byte(val))
					} else if sd, sb, se := stk.View(); stk.Writable && has1(sb, se, addr) {
						put1(sd, sb, addr, byte(val))
					} else if d2, b2, e2 := hot2.View(); hot2.Writable && has1(b2, e2, addr) {
						put1(d2, b2, addr, byte(val))
					} else {
						cycles += d.prefix[j] + u.cost
						steps += uint64(d.psteps[j]) + 1
						return int(d.start) + j, cycles, steps, evMemSlow
					}

				case cAddrAddrLoad8:
					regs[u.dst] = int64(base + uint64(offsets[u.sym]))
					addr := base + uint64(offsets[u.t0])
					regs[u.a] = int64(addr)
					sd, sb, se := stk.View()
					if !has8(sb, se, addr) {
						cycles += d.prefix[j] + u.cost + u.cost
						steps += uint64(d.psteps[j]) + 2
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					v := get8(sd, sb, addr)
					regs[u.dst2] = int64(v)

				case cMulLoad8:
					regs[u.dst] = u.imm
					regs[u.dst2] = regs[u.a] * regs[u.b]
					sum := regs[u.t0] + regs[u.dst2]
					regs[u.t1] = sum
					addr := uint64(sum)
					var v uint64
					if hd, hb, he := hot.View(); has8(hb, he, addr) {
						v = get8(hd, hb, addr)
					} else if sd, sb, se := stk.View(); has8(sb, se, addr) {
						v = get8(sd, sb, addr)
					} else if d2, b2, e2 := hot2.View(); has8(b2, e2, addr) {
						v = get8(d2, b2, addr)
					} else {
						cycles += d.prefix[j] + u.cost + u.cost2 + u.cost
						steps += uint64(d.psteps[j]) + 3
						return int(d.start) + j, cycles, steps, evMemSlow
					}
					regs[u.sym] = int64(v)
				case cMulStore8:
					regs[u.dst] = u.imm
					regs[u.dst2] = regs[u.a] * regs[u.b]
					sum := regs[u.t0] + regs[u.dst2]
					regs[u.t1] = sum
					addr := uint64(sum)
					val := uint64(regs[u.sym])
					if hd, hb, he := hot.View(); hot.Writable && has8(hb, he, addr) {
						put8(hd, hb, addr, val)
					} else if sd, sb, se := stk.View(); stk.Writable && has8(sb, se, addr) {
						put8(sd, sb, addr, val)
					} else if d2, b2, e2 := hot2.View(); hot2.Writable && has8(b2, e2, addr) {
						put8(d2, b2, addr, val)
					} else {
						cycles += d.prefix[j] + u.cost + u.cost2 + u.cost
						steps += uint64(d.psteps[j]) + 3
						return int(d.start) + j, cycles, steps, evMemSlow
					}

				case cJmp:
					npc = int(u.t0)
				case cBr:
					if regs[u.a] != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cEqBr:
					v := b2i(regs[u.a] == regs[u.b])
					regs[u.dst] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cNeBr:
					v := b2i(regs[u.a] != regs[u.b])
					regs[u.dst] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cLtBr:
					v := b2i(regs[u.a] < regs[u.b])
					regs[u.dst] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cLeBr:
					v := b2i(regs[u.a] <= regs[u.b])
					regs[u.dst] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cGtBr:
					v := b2i(regs[u.a] > regs[u.b])
					regs[u.dst] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cGeBr:
					v := b2i(regs[u.a] >= regs[u.b])
					regs[u.dst] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cConstEqBr:
					regs[u.dst] = u.imm
					v := b2i(regs[u.a] == regs[u.b])
					regs[u.dst2] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cConstNeBr:
					regs[u.dst] = u.imm
					v := b2i(regs[u.a] != regs[u.b])
					regs[u.dst2] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cConstLtBr:
					regs[u.dst] = u.imm
					v := b2i(regs[u.a] < regs[u.b])
					regs[u.dst2] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cConstLeBr:
					regs[u.dst] = u.imm
					v := b2i(regs[u.a] <= regs[u.b])
					regs[u.dst2] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cConstGtBr:
					regs[u.dst] = u.imm
					v := b2i(regs[u.a] > regs[u.b])
					regs[u.dst2] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}
				case cConstGeBr:
					regs[u.dst] = u.imm
					v := b2i(regs[u.a] >= regs[u.b])
					regs[u.dst2] = v
					if v != 0 {
						npc = int(u.t0)
					} else {
						npc = int(u.t1)
					}

				default:
					// Unreachable: the miner only admits uops with a case
					// above. Surface as evBad at the plain index.
					cycles += d.prefix[j]
					steps += uint64(d.psteps[j])
					return int(d.start) + j, cycles, steps, evBad
				}
			}
			cycles += d.cost
			steps += d.steps - 1
			pc = npc
			continue

		case cCount:
			// Profiled streams only: count the basic block this cinstr
			// leads, then continue at its first cop without consuming a
			// step or a cycle.
			bbn[c.a]++
			steps--
			pc = int(c.t0)
			continue

		default: // cBad and anything unrecognized
			return pc, cycles, steps, evBad
		}
		cycles += c.cost
		pc++
	}
}
