package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/layout"
)

func TestUnknownEngineError(t *testing.T) {
	err := UnknownEngineError("stackatoo")
	if err == nil {
		t.Fatal("nil error")
	}
	for _, want := range append([]string{"stackatoo"}, EngineNames()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if ValidEngine("stackatoo") || ValidEngine("") {
		t.Error("ValidEngine accepted a bogus name")
	}
	for _, name := range append(EngineNames(), "smokestack", "smokestack+pseudo") {
		if !ValidEngine(name) {
			t.Errorf("ValidEngine rejected registered %q", name)
		}
	}
}

// genFunction builds a random but structurally valid function: params
// first, locals of assorted sizes/alignments, and a body that takes
// addresses of a random subset of locals and leaks some of them through
// stores, calls and arithmetic — exercising CleanStack's escape analysis
// as well as the plain packers.
func genFunction(r *rand.Rand, id int) *ir.Function {
	fn := &ir.Function{Name: fmt.Sprintf("f%d", id), ID: id}
	nParams := r.Intn(3)
	nLocals := 1 + r.Intn(6)
	aligns := []int64{1, 2, 4, 8}
	for i := 0; i < nParams+nLocals; i++ {
		a := ir.Alloca{
			Name:    fmt.Sprintf("v%d", i),
			Size:    1 + int64(r.Intn(64)),
			Align:   aligns[r.Intn(len(aligns))],
			IsParam: i < nParams,
		}
		if a.Align > a.Size {
			a.Align = 1
		}
		fn.Allocas = append(fn.Allocas, a)
	}
	fn.NumParams = nParams
	// Body: for each alloca, maybe take its address; for each taken
	// address, maybe leak it (store as value / pass to call / copy).
	reg := ir.Reg(0)
	emit := func(in ir.Instr) { fn.Code = append(fn.Code, in) }
	for i := range fn.Allocas {
		if r.Intn(3) == 0 {
			continue
		}
		addr := reg
		reg++
		emit(ir.Instr{Op: ir.OpAddrLocal, Dst: addr, Sym: int32(i)})
		switch r.Intn(4) {
		case 0: // safe: load through it
			dst := reg
			reg++
			emit(ir.Instr{Op: ir.OpLoad, Dst: dst, A: addr, Width: 8})
		case 1: // escape: stored as a value
			emit(ir.Instr{Op: ir.OpStore, A: addr, B: addr, Width: 8})
		case 2: // escape: passed to a call
			emit(ir.Instr{Op: ir.OpCall, Dst: ir.NoReg, Sym: int32(id), Args: []ir.Reg{addr}})
		case 3: // escape: copied
			dst := reg
			reg++
			emit(ir.Instr{Op: ir.OpMov, Dst: dst, A: addr})
		}
	}
	emit(ir.Instr{Op: ir.OpRet, A: ir.NoReg})
	fn.NumRegs = int(reg)
	return fn
}

// TestEngineLayoutProperties drives every registered engine over seeded
// random functions and checks the layout invariants every consumer
// assumes: offsets in-bounds and aligned, allocas non-overlapping within
// their region, integrity slots 8-aligned inside the frame extent, and
// 16-aligned region sizes. Every draw reuses one buffer, as the VM's
// per-depth layout slabs do.
func TestEngineLayoutProperties(t *testing.T) {
	r := rand.New(rand.NewSource(0x5eed))
	prog := &ir.Program{Name: "prop", FuncIdx: map[string]int{}}
	for i := 0; i < 24; i++ {
		fn := genFunction(r, i)
		prog.FuncIdx[fn.Name] = i
		prog.Funcs = append(prog.Funcs, fn)
	}
	for _, name := range EngineNames() {
		t.Run(name, func(t *testing.T) {
			eng, err := BuildEngine(name, prog, 0x900d, SaltSecurity)
			if err != nil {
				t.Fatalf("BuildEngine: %v", err)
			}
			var buf []int64
			for run := 0; run < 3; run++ {
				eng.NewRun()
				for _, fn := range prog.Funcs {
					if cap(buf) < len(fn.Allocas)+1 {
						buf = make([]int64, len(fn.Allocas)+1)
					}
					for draw := 0; draw < 4; draw++ {
						checkLayout(t, name, fn, eng.Layout(fn, buf))
					}
				}
			}
		})
	}
}

// checkLayout asserts the FrameLayout invariants for one draw.
func checkLayout(t *testing.T, engine string, fn *ir.Function, fl layout.FrameLayout) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("%s/%s: %s (layout %+v)", engine, fn.Name, fmt.Sprintf(format, args...), fl)
	}
	if len(fl.Offsets) != len(fn.Allocas) {
		fail("%d offsets for %d allocas", len(fl.Offsets), len(fn.Allocas))
	}
	if fl.Size%16 != 0 || fl.UnsafeSize%16 != 0 {
		fail("sizes %d/%d not 16-aligned", fl.Size, fl.UnsafeSize)
	}
	type span struct{ lo, hi int64 }
	regions := map[uint8][]span{}
	for i, a := range fn.Allocas {
		off := fl.Offsets[i]
		reg := fl.Region(i)
		limit := fl.Size
		if reg == layout.RegionUnsafe {
			limit = fl.UnsafeSize
		}
		if off < 0 || off+a.Size > limit {
			fail("alloca %s [%d,%d) outside region %d extent %d", a.Name, off, off+a.Size, reg, limit)
		}
		if off%a.Align != 0 {
			fail("alloca %s offset %d violates align %d", a.Name, off, a.Align)
		}
		regions[reg] = append(regions[reg], span{off, off + a.Size})
	}
	for reg, spans := range regions {
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					fail("overlap in region %d: %v vs %v", reg, spans[i], spans[j])
				}
			}
		}
	}
	for _, s := range fl.SlotsView() {
		if s.Offset < 0 || s.Offset+8 > fl.Size {
			fail("slot %v outside frame [0,%d)", s, fl.Size)
		}
		if s.Offset%8 != 0 {
			fail("slot %v not 8-aligned", s)
		}
		for _, sp := range regions[layout.RegionMain] {
			if s.Offset < sp.hi && sp.lo < s.Offset+8 {
				fail("slot %v overlaps alloca span %v", s, sp)
			}
		}
	}
}
