// Package ir defines the intermediate representation MiniC compiles to and
// the Smokestack passes operate on. It is a flat register-machine IR: each
// function is a linear instruction array with explicit jump targets, an
// unbounded virtual register file, and — critically for this paper — an
// explicit list of stack allocations (allocas) carrying size and alignment
// metadata. The Smokestack instrumentation replaces direct alloca addressing
// with per-invocation permuted offsets into one total frame allocation
// (paper §III-D1); in this IR that shows up as AddrLocal resolving through
// the active layout engine at run time.
package ir

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Reg is a virtual register index within a function.
type Reg int32

// NoReg marks an absent register operand (e.g. void call results).
const NoReg Reg = -1

// Op enumerates IR opcodes.
type Op uint8

// Opcodes.
const (
	OpNop Op = iota

	OpConst // Dst = Imm
	OpMov   // Dst = A

	// Integer arithmetic; all values are 64-bit two's complement.
	OpAdd  // Dst = A + B
	OpSub  // Dst = A - B
	OpMul  // Dst = A * B
	OpDiv  // Dst = A / B (signed; B==0 faults)
	OpMod  // Dst = A % B (signed; B==0 faults)
	OpAnd  // Dst = A & B
	OpOr   // Dst = A | B
	OpXor  // Dst = A ^ B
	OpShl  // Dst = A << (B & 63)
	OpShr  // Dst = A >> (B & 63) (arithmetic)
	OpNeg  // Dst = -A
	OpNot  // Dst = ^A
	OpSetZ // Dst = (A == 0) ? 1 : 0  (logical not)

	// Comparisons (signed); result is 0 or 1.
	OpEq // Dst = A == B
	OpNe // Dst = A != B
	OpLt // Dst = A < B
	OpLe // Dst = A <= B
	OpGt // Dst = A > B
	OpGe // Dst = A >= B

	// Memory. Width is 1, 4 or 8 bytes; loads of width < 8 sign-extend for
	// int and zero-extend for char (Unsigned flag).
	OpLoad  // Dst = mem[A]
	OpStore // mem[A] = B

	// Address formation. AddrLocal resolves Sym (an alloca index) through
	// the layout engine for the current invocation — this is the GEP off
	// the total allocation in the paper's instrumentation.
	OpAddrLocal  // Dst = &frame.alloca[Sym]
	OpAddrGlobal // Dst = &globals[Sym]
	OpAddrData   // Dst = &rodata[Sym]

	// Control flow. Targets are instruction indices.
	OpJmp // goto Target0
	OpBr  // if A != 0 goto Target0 else goto Target1

	// Calls. Sym is the callee index (program function table or host
	// builtin table); Args hold argument registers; Dst receives the result
	// (NoReg for void).
	OpCall
	OpCallHost

	OpRet // return A (NoReg for void)
)

// NumOps is the number of opcodes; per-opcode tables (such as the VM's
// cycle cost table) are indexed by Op and sized by this.
const NumOps = int(OpRet) + 1

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not", OpSetZ: "setz",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpLoad: "load", OpStore: "store",
	OpAddrLocal: "addr.local", OpAddrGlobal: "addr.global", OpAddrData: "addr.data",
	OpJmp: "jmp", OpBr: "br", OpCall: "call", OpCallHost: "call.host",
	OpRet: "ret",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one IR instruction. Fields are interpreted per opcode; unused
// fields are zero.
type Instr struct {
	Op       Op
	Dst      Reg
	A, B     Reg
	Imm      int64
	Width    uint8 // 1, 4, 8 for memory ops
	Unsigned bool  // zero-extend loads (char)
	Sym      int32 // alloca/global/data/function/host index
	Args     []Reg
	Target0  int32
	Target1  int32
	Comment  string // callee or symbol name, for the printer only
}

// Alloca is one stack allocation in a function: the unit the P-BOX permutes.
// Params are materialized as allocas too (the caller's argument values are
// spilled into them at entry), so spilled arguments participate in the
// randomization exactly as the paper requires for register variables saved
// on the stack (§III-C).
type Alloca struct {
	Name    string
	Size    int64
	Align   int64
	IsParam bool
}

// Function is a compiled MiniC function.
type Function struct {
	Name      string
	Allocas   []Alloca // params first, then locals, in declaration order
	NumParams int
	NumRegs   int
	Code      []Instr

	// ReturnsValue reports whether OpRet carries a register.
	ReturnsValue bool

	// ID is the function's index in its Program; also used as the
	// load-time function identifier for the XOR guard check (§III-D2).
	ID int

	// frame caches Frame's result.
	frame atomic.Pointer[FrameFacts]
}

// TotalAllocaBytes returns the sum of alloca sizes (no padding); the real
// frame size depends on the layout engine's chosen permutation.
func (f *Function) TotalAllocaBytes() int64 {
	var n int64
	for _, a := range f.Allocas {
		n += a.Size
	}
	return n
}

// Global is one global variable with optional initial bytes.
type Global struct {
	Name  string
	Size  int64
	Align int64
	Init  []byte // len ≤ Size; remainder is zero
}

// Program is a complete compiled unit.
type Program struct {
	Name    string
	Funcs   []*Function
	FuncIdx map[string]int
	Globals []Global
	Data    [][]byte // interned string literals (NUL-terminated)
}

// FuncByName returns the function with the given name, if present.
func (p *Program) FuncByName(name string) (*Function, bool) {
	i, ok := p.FuncIdx[name]
	if !ok {
		return nil, false
	}
	return p.Funcs[i], true
}

// Validate performs structural sanity checks: jump targets in range,
// register indices within NumRegs, symbol indices within their tables. It
// returns the first problem found.
func (p *Program) Validate() error {
	for _, f := range p.Funcs {
		if err := p.validateFunc(f); err != nil {
			return fmt.Errorf("function %s: %w", f.Name, err)
		}
	}
	return nil
}

func (p *Program) validateFunc(f *Function) error {
	checkReg := func(r Reg, what string, i int) error {
		if r == NoReg {
			return nil
		}
		if r < 0 || int(r) >= f.NumRegs {
			return fmt.Errorf("instr %d: %s register %d out of range [0,%d)", i, what, r, f.NumRegs)
		}
		return nil
	}
	checkTarget := func(t int32, i int) error {
		if t < 0 || int(t) >= len(f.Code) {
			return fmt.Errorf("instr %d: jump target %d out of range [0,%d)", i, t, len(f.Code))
		}
		return nil
	}
	if f.NumParams > len(f.Allocas) {
		return fmt.Errorf("NumParams %d exceeds alloca count %d", f.NumParams, len(f.Allocas))
	}
	for ai, a := range f.Allocas {
		if a.Size <= 0 {
			return fmt.Errorf("alloca %d (%s): non-positive size %d", ai, a.Name, a.Size)
		}
		if a.Align <= 0 || a.Align&(a.Align-1) != 0 {
			return fmt.Errorf("alloca %d (%s): alignment %d is not a positive power of two", ai, a.Name, a.Align)
		}
	}
	if len(f.Code) == 0 {
		return fmt.Errorf("empty body")
	}
	for i, in := range f.Code {
		if err := checkReg(in.Dst, "dst", i); err != nil {
			return err
		}
		if err := checkReg(in.A, "a", i); err != nil {
			return err
		}
		if err := checkReg(in.B, "b", i); err != nil {
			return err
		}
		for _, r := range in.Args {
			if err := checkReg(r, "arg", i); err != nil {
				return err
			}
		}
		switch in.Op {
		case OpJmp:
			if err := checkTarget(in.Target0, i); err != nil {
				return err
			}
		case OpBr:
			if err := checkTarget(in.Target0, i); err != nil {
				return err
			}
			if err := checkTarget(in.Target1, i); err != nil {
				return err
			}
		case OpLoad, OpStore:
			if in.Width != 1 && in.Width != 4 && in.Width != 8 {
				return fmt.Errorf("instr %d: bad memory width %d", i, in.Width)
			}
		case OpAddrLocal:
			if int(in.Sym) < 0 || int(in.Sym) >= len(f.Allocas) {
				return fmt.Errorf("instr %d: alloca index %d out of range", i, in.Sym)
			}
		case OpAddrGlobal:
			if int(in.Sym) < 0 || int(in.Sym) >= len(p.Globals) {
				return fmt.Errorf("instr %d: global index %d out of range", i, in.Sym)
			}
		case OpAddrData:
			if int(in.Sym) < 0 || int(in.Sym) >= len(p.Data) {
				return fmt.Errorf("instr %d: data index %d out of range", i, in.Sym)
			}
		case OpCall:
			if int(in.Sym) < 0 || int(in.Sym) >= len(p.Funcs) {
				return fmt.Errorf("instr %d: callee index %d out of range", i, in.Sym)
			}
		}
	}
	last := f.Code[len(f.Code)-1]
	if last.Op != OpRet && last.Op != OpJmp {
		return fmt.Errorf("body does not end in ret or jmp")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Printer

// String renders the whole program as readable IR assembly.
func (p *Program) String() string {
	var sb strings.Builder
	for i, g := range p.Globals {
		fmt.Fprintf(&sb, "global %d %s size=%d align=%d\n", i, g.Name, g.Size, g.Align)
	}
	for i, d := range p.Data {
		fmt.Fprintf(&sb, "data %d %q\n", i, string(d))
	}
	for _, f := range p.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// String renders one function.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "\nfunc %s (id=%d, params=%d, regs=%d):\n", f.Name, f.ID, f.NumParams, f.NumRegs)
	for i, a := range f.Allocas {
		kind := "local"
		if a.IsParam {
			kind = "param"
		}
		fmt.Fprintf(&sb, "  alloca %d %s %s size=%d align=%d\n", i, kind, a.Name, a.Size, a.Align)
	}
	for i, in := range f.Code {
		fmt.Fprintf(&sb, "  %4d: %s\n", i, in.String())
	}
	return sb.String()
}

// String renders one instruction.
func (in Instr) String() string {
	var sb strings.Builder
	reg := func(r Reg) string {
		if r == NoReg {
			return "_"
		}
		return fmt.Sprintf("r%d", r)
	}
	switch in.Op {
	case OpConst:
		fmt.Fprintf(&sb, "%s = const %d", reg(in.Dst), in.Imm)
	case OpMov:
		fmt.Fprintf(&sb, "%s = mov %s", reg(in.Dst), reg(in.A))
	case OpNeg, OpNot, OpSetZ:
		fmt.Fprintf(&sb, "%s = %s %s", reg(in.Dst), in.Op, reg(in.A))
	case OpLoad:
		u := ""
		if in.Unsigned {
			u = "u"
		}
		fmt.Fprintf(&sb, "%s = load%s.%d [%s]", reg(in.Dst), u, in.Width, reg(in.A))
	case OpStore:
		fmt.Fprintf(&sb, "store.%d [%s] = %s", in.Width, reg(in.A), reg(in.B))
	case OpAddrLocal, OpAddrGlobal, OpAddrData:
		fmt.Fprintf(&sb, "%s = %s %d", reg(in.Dst), in.Op, in.Sym)
		if in.Comment != "" {
			fmt.Fprintf(&sb, " ; %s", in.Comment)
		}
	case OpJmp:
		fmt.Fprintf(&sb, "jmp %d", in.Target0)
	case OpBr:
		fmt.Fprintf(&sb, "br %s ? %d : %d", reg(in.A), in.Target0, in.Target1)
	case OpCall, OpCallHost:
		args := make([]string, len(in.Args))
		for i, r := range in.Args {
			args[i] = reg(r)
		}
		fmt.Fprintf(&sb, "%s = %s %d(%s)", reg(in.Dst), in.Op, in.Sym, strings.Join(args, ", "))
		if in.Comment != "" {
			fmt.Fprintf(&sb, " ; %s", in.Comment)
		}
	case OpRet:
		fmt.Fprintf(&sb, "ret %s", reg(in.A))
	default:
		fmt.Fprintf(&sb, "%s %s, %s, %s", in.Op, reg(in.Dst), reg(in.A), reg(in.B))
	}
	return sb.String()
}
