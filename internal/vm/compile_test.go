package vm

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/rng"
)

// testCostTable folds the default cost model with no AddrLocal surcharge —
// the table the fusion tests compile against.
func testCostTable() [ir.NumOps]float64 {
	c := DefaultCosts()
	return buildCostTableFrom(&c, 0)
}

// compileSeq lowers a hand-built instruction sequence as a one-function
// body (appending a terminating ret so Validate-style invariants hold).
func compileSeq(code ...ir.Instr) compiledFunc {
	fn := &ir.Function{Name: "t", NumRegs: 16, Code: code}
	ct := testCostTable()
	return compileFunc(fn, &ct, nil, nil)
}

func TestCompileFusionShapes(t *testing.T) {
	ct := testCostTable()
	ret := ir.Instr{Op: ir.OpRet, A: 0}

	t.Run("cmp+br", func(t *testing.T) {
		cf := compileSeq(
			ir.Instr{Op: ir.OpLt, Dst: 2, A: 0, B: 1},
			ir.Instr{Op: ir.OpBr, A: 2, Target0: 2, Target1: 2},
			ret,
		)
		if len(cf.code) != 2 || cf.code[0].op != cLtBr {
			t.Fatalf("want [cLtBr ret], got %+v", cf.code)
		}
		c := cf.code[0]
		if c.cost != ct[ir.OpLt] || c.cost2 != ct[ir.OpBr] {
			t.Fatalf("cost layout wrong: %+v", c)
		}
		// Both arms of the branch were IR index 2 (the ret); after fusion the
		// ret is compiled index 1, so the remap must follow.
		if c.t0 != 1 || c.t1 != 1 {
			t.Fatalf("branch targets not remapped: t0=%d t1=%d", c.t0, c.t1)
		}
	})

	t.Run("const+alu", func(t *testing.T) {
		cf := compileSeq(
			ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 5},
			ir.Instr{Op: ir.OpAdd, Dst: 2, A: 0, B: 1},
			ret,
		)
		if len(cf.code) != 2 || cf.code[0].op != cConstAdd {
			t.Fatalf("want [cConstAdd ret], got %+v", cf.code)
		}
		c := cf.code[0]
		if c.imm != 5 || c.dst != 1 || c.dst2 != 2 || c.cost2 != ct[ir.OpAdd] {
			t.Fatalf("operand layout wrong: %+v", c)
		}
	})

	t.Run("const+cmp+br", func(t *testing.T) {
		cf := compileSeq(
			ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 100},
			ir.Instr{Op: ir.OpLt, Dst: 2, A: 0, B: 1},
			ir.Instr{Op: ir.OpBr, A: 2, Target0: 3, Target1: 3},
			ret,
		)
		if len(cf.code) != 2 || cf.code[0].op != cConstLtBr {
			t.Fatalf("want [cConstLtBr ret], got %+v", cf.code)
		}
		c := cf.code[0]
		if c.cost != ct[ir.OpConst] || c.cost2 != ct[ir.OpLt] || c.cost3 != ct[ir.OpBr] {
			t.Fatalf("cost layout wrong: %+v", c)
		}
		if c.t0 != 1 || c.t1 != 1 {
			t.Fatalf("branch targets not remapped: t0=%d t1=%d", c.t0, c.t1)
		}
	})

	t.Run("addr+load-width-propagation", func(t *testing.T) {
		fn := &ir.Function{Name: "t", NumRegs: 16,
			Allocas: []ir.Alloca{{Name: "x", Size: 8, Align: 8}},
			Code: []ir.Instr{
				{Op: ir.OpAddrLocal, Dst: 1, Sym: 0},
				{Op: ir.OpLoad, Dst: 2, A: 1, Width: 4, Unsigned: true},
				ret,
			}}
		ct := testCostTable()
		cf := compileFunc(fn, &ct, nil, nil)
		if len(cf.code) != 2 || cf.code[0].op != cAddrLoad4u {
			t.Fatalf("want [cAddrLoad4u ret], got %+v", cf.code)
		}
		// The fused group's width/signedness must come from the Load, not the
		// leading AddrLocal (whose width is zero) — the slow-path replay
		// depends on it.
		c := cf.code[0]
		if c.width != 4 || !c.unsigned {
			t.Fatalf("width/signedness not propagated: %+v", c)
		}
	})

	t.Run("add+store-width-propagation", func(t *testing.T) {
		cf := compileSeq(
			ir.Instr{Op: ir.OpAdd, Dst: 3, A: 0, B: 1},
			ir.Instr{Op: ir.OpStore, A: 3, B: 2, Width: 1},
			ret,
		)
		if len(cf.code) != 2 || cf.code[0].op != cAddStore1 {
			t.Fatalf("want [cAddStore1 ret], got %+v", cf.code)
		}
		if c := cf.code[0]; c.width != 1 || c.dst2 != 2 {
			t.Fatalf("store layout wrong: %+v", c)
		}
	})

	t.Run("const+mul+add+load", func(t *testing.T) {
		cf := compileSeq(
			ir.Instr{Op: ir.OpConst, Dst: 4, Imm: 8},
			ir.Instr{Op: ir.OpMul, Dst: 5, A: 3, B: 4},
			ir.Instr{Op: ir.OpAdd, Dst: 6, A: 2, B: 5},
			ir.Instr{Op: ir.OpLoad, Dst: 7, A: 6, Width: 8},
			ret,
		)
		if len(cf.code) != 2 || cf.code[0].op != cMulLoad8 {
			t.Fatalf("want [cMulLoad8 ret], got %+v", cf.code)
		}
		c := cf.code[0]
		// Register roles per the opcode contract: dst=const, a/b=multiplicands,
		// dst2=product, t0=add's other operand, t1=effective address, sym=dst.
		if c.dst != 4 || c.a != 3 || c.b != 4 || c.dst2 != 5 || c.t0 != 2 || c.t1 != 6 || c.sym != 7 {
			t.Fatalf("register roles wrong: %+v", c)
		}
		if c.cost != ct[ir.OpConst] || c.cost2 != ct[ir.OpMul] || c.cost3 != ct[ir.OpLoad] {
			t.Fatalf("cost layout wrong: %+v", c)
		}
	})

	t.Run("const+mul+add+store", func(t *testing.T) {
		cf := compileSeq(
			ir.Instr{Op: ir.OpConst, Dst: 4, Imm: 8},
			ir.Instr{Op: ir.OpMul, Dst: 5, A: 3, B: 4},
			ir.Instr{Op: ir.OpAdd, Dst: 6, A: 5, B: 2},
			ir.Instr{Op: ir.OpStore, A: 6, B: 9, Width: 8},
			ret,
		)
		if len(cf.code) != 2 || cf.code[0].op != cMulStore8 {
			t.Fatalf("want [cMulStore8 ret], got %+v", cf.code)
		}
		if c := cf.code[0]; c.sym != 9 || c.t0 != 2 || c.t1 != 6 {
			t.Fatalf("register roles wrong: %+v", c)
		}
	})

	t.Run("addr+addr+load", func(t *testing.T) {
		fn := &ir.Function{Name: "t", NumRegs: 16,
			Allocas: []ir.Alloca{{Name: "a", Size: 8, Align: 8}, {Name: "b", Size: 8, Align: 8}},
			Code: []ir.Instr{
				{Op: ir.OpAddrLocal, Dst: 1, Sym: 0},
				{Op: ir.OpAddrLocal, Dst: 2, Sym: 1},
				{Op: ir.OpLoad, Dst: 3, A: 2, Width: 8},
				ret,
			}}
		ct := testCostTable()
		cf := compileFunc(fn, &ct, nil, nil)
		if len(cf.code) != 2 || cf.code[0].op != cAddrAddrLoad8 {
			t.Fatalf("want [cAddrAddrLoad8 ret], got %+v", cf.code)
		}
		if c := cf.code[0]; c.sym != 0 || c.t0 != 1 || c.dst != 1 || c.a != 2 || c.dst2 != 3 {
			t.Fatalf("register roles wrong: %+v", c)
		}
	})

	t.Run("jump-target-blocks-fusion", func(t *testing.T) {
		// The Br at the end targets the Add (index 2), so Const+Add must NOT
		// fuse: a fused group may never swallow a jump target.
		cf := compileSeq(
			ir.Instr{Op: ir.OpConst, Dst: 0, Imm: 1},
			ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 5},
			ir.Instr{Op: ir.OpAdd, Dst: 2, A: 0, B: 1},
			ir.Instr{Op: ir.OpBr, A: 2, Target0: 2, Target1: 4},
			ret,
		)
		for _, c := range cf.code {
			if c.op == cConstAdd {
				t.Fatalf("Const+Add fused across a jump target: %+v", cf.code)
			}
		}
	})

	t.Run("fault-pc-attribution", func(t *testing.T) {
		// The compiled pc of a fused group is the IR index of its FIRST
		// constituent; fault reporting adds the constituent offset.
		cf := compileSeq(
			ir.Instr{Op: ir.OpNop},
			ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 0},
			ir.Instr{Op: ir.OpDiv, Dst: 2, A: 0, B: 1},
			ret,
		)
		if len(cf.code) != 3 || cf.code[1].op != cConstDiv {
			t.Fatalf("want [cNop cConstDiv ret], got %+v", cf.code)
		}
		if cf.code[1].pc != 1 {
			t.Fatalf("fused group pc should be first constituent's IR index 1, got %d", cf.code[1].pc)
		}
	})
}

// testProg builds a minimal valid program: main() { return 42; }.
func testProg(name string) *ir.Program {
	fn := &ir.Function{
		Name: "main", NumRegs: 1, ReturnsValue: true,
		Code: []ir.Instr{
			{Op: ir.OpConst, Dst: 0, Imm: 42},
			{Op: ir.OpRet, A: 0},
		},
	}
	return &ir.Program{Name: name, Funcs: []*ir.Function{fn}, FuncIdx: map[string]int{"main": 0}}
}

func TestCodeCacheSharing(t *testing.T) {
	prog := testProg("cache")
	cache := NewCodeCache()
	newMachine := func(eng layout.Engine) *Machine {
		return New(prog, eng, &Env{}, &Options{
			TRNG: rng.SeededTRNG(1), Exec: TierCompiled, CodeCache: cache,
		})
	}

	m1 := newMachine(layout.NewFixed())
	if h, m := cache.Stats(); h != 0 || m != 1 {
		t.Fatalf("first Machine: want 0 hits / 1 miss, got %d/%d", h, m)
	}
	m2 := newMachine(layout.NewFixed())
	if h, m := cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("second Machine: want 1 hit / 1 miss, got %d/%d", h, m)
	}
	if m1.ccode != m2.ccode {
		t.Fatal("Machines with identical (program, costs, surcharge) must share one compiled program")
	}

	// Both tiers still run the program correctly.
	for _, m := range []*Machine{m1, m2} {
		v, err := m.Run()
		if err != nil || v != 42 {
			t.Fatalf("Run = %d, %v; want 42, nil", v, err)
		}
	}

	// A different cost model is a different key: recompile.
	costs := DefaultCosts()
	costs.Mul = costs.Mul + 1
	New(prog, layout.NewFixed(), &Env{}, &Options{
		TRNG: rng.SeededTRNG(1), Exec: TierCompiled, CodeCache: cache, Costs: &costs,
	})
	if h, m := cache.Stats(); h != 1 || m != 2 {
		t.Fatalf("changed costs: want 1 hit / 2 misses, got %d/%d", h, m)
	}
}

// TestCompileObserverRemove pins OnCompile's remove func: it uninstalls
// its own observer, and is a no-op once a later install replaced it.
func TestCompileObserverRemove(t *testing.T) {
	cache := NewCodeCache()
	var seen []string
	observer := func(tag string) func(string, int) {
		return func(prog string, _ int) { seen = append(seen, tag+":"+prog) }
	}
	compileNew := func(name string) {
		New(testProg(name), layout.NewFixed(), &Env{}, &Options{
			TRNG: rng.SeededTRNG(1), Exec: TierCompiled, CodeCache: cache,
		})
	}
	removeA := cache.OnCompile(observer("a"))
	compileNew("p1")
	removeB := cache.OnCompile(observer("b"))
	removeA()
	compileNew("p2")
	removeB()
	compileNew("p3")
	removeA()
	if got := fmt.Sprint(seen); got != "[a:p1 b:p2]" {
		t.Fatalf("observed %s, want [a:p1 b:p2]", got)
	}
}

func TestExecTierSelection(t *testing.T) {
	prog := testProg("tier")
	mk := func(o *Options) *Machine { return New(prog, layout.NewFixed(), &Env{}, o) }

	t.Run("auto-defaults-to-compiled", func(t *testing.T) {
		t.Setenv(execTierEnv, "")
		cache := NewCodeCache()
		m := mk(&Options{TRNG: rng.SeededTRNG(1), CodeCache: cache})
		if m.tier != TierCompiled || m.ccode == nil {
			t.Fatal("TierAuto with no env override must select the compiled tier")
		}
		if _, misses := cache.Stats(); misses != 1 {
			t.Fatal("TierAuto with no env override must compile once")
		}
	})
	// The compiled tier is the default, not an environment choice, and the
	// removed block tier's name is gone: neither name parses, and TierAuto
	// under either selects the compiled tier.
	for _, name := range []string{"threaded", "block"} {
		t.Run("env-selects-"+name, func(t *testing.T) {
			if _, ok := ParseExecTier(name); ok {
				t.Fatalf("ParseExecTier(%q) must not parse", name)
			}
			t.Setenv(execTierEnv, name)
			if m := mk(&Options{TRNG: rng.SeededTRNG(1)}); m.tier != TierCompiled {
				t.Fatalf("SMOKESTACK_EXEC=%s must fall through to the compiled tier", name)
			}
		})
	}
	t.Run("env-selects-switch", func(t *testing.T) {
		t.Setenv(execTierEnv, "switch")
		if m := mk(&Options{TRNG: rng.SeededTRNG(1)}); m.ccode != nil {
			t.Fatal("SMOKESTACK_EXEC=switch must select the switch tier under TierAuto")
		}
	})
	t.Run("explicit-tier-beats-env", func(t *testing.T) {
		t.Setenv(execTierEnv, "switch")
		if m := mk(&Options{TRNG: rng.SeededTRNG(1), Exec: TierCompiled}); m.ccode == nil {
			t.Fatal("explicit TierCompiled must override the environment")
		}
	})
	t.Run("explicit-switch", func(t *testing.T) {
		m := mk(&Options{TRNG: rng.SeededTRNG(1), Exec: TierSwitch})
		if m.ccode != nil {
			t.Fatal("explicit TierSwitch must not compile")
		}
		if v, err := m.Run(); err != nil || v != 42 {
			t.Fatalf("switch tier Run = %d, %v; want 42, nil", v, err)
		}
	})
}
