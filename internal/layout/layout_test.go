package layout_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/pbox"
	"repro/internal/rng"
)

// testProg compiles a program with a function of several mixed locals.
func testProg(t *testing.T) *ir.Program {
	t.Helper()
	return compile.MustCompile("lt.c", `
long g;
long work(long a, long b) {
	char buf[48];
	long x;
	int y;
	x = a + b;
	y = 3;
	buf[0] = 1;
	return x + y + buf[0];
}
long main() { return work(1, 2); }
`)
}

func workFn(t *testing.T, p *ir.Program) *ir.Function {
	t.Helper()
	fn, ok := p.FuncByName("work")
	if !ok {
		t.Fatal("no work function")
	}
	return fn
}

// validate checks the standard frame invariants for a layout.
func validate(t *testing.T, fn *ir.Function, fl layout.FrameLayout) {
	t.Helper()
	type span struct{ lo, hi int64 }
	var spans []span
	var unsafeSpans []span
	for i, a := range fn.Allocas {
		off := fl.Offsets[i]
		if fl.Region(i) == layout.RegionUnsafe {
			if off < 0 || off+a.Size > fl.UnsafeSize {
				t.Fatalf("unsafe alloca %s out of region: off=%d size=%d region=%d", a.Name, off, a.Size, fl.UnsafeSize)
			}
			if off%a.Align != 0 {
				t.Fatalf("alloca %s misaligned: off=%d align=%d", a.Name, off, a.Align)
			}
			unsafeSpans = append(unsafeSpans, span{off, off + a.Size})
			continue
		}
		if off < 0 || off+a.Size > fl.Size {
			t.Fatalf("alloca %s out of frame: off=%d size=%d frame=%d", a.Name, off, a.Size, fl.Size)
		}
		if off%a.Align != 0 {
			t.Fatalf("alloca %s misaligned: off=%d align=%d", a.Name, off, a.Align)
		}
		spans = append(spans, span{off, off + a.Size})
	}
	for _, s := range fl.SlotsView() {
		if s.Offset < 0 || s.Offset+8 > fl.Size || s.Offset%8 != 0 {
			t.Fatalf("integrity slot out of frame or misaligned: %d", s.Offset)
		}
		spans = append(spans, span{s.Offset, s.Offset + 8})
	}
	overlapFree := func(spans []span) {
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					t.Fatalf("objects %d and %d overlap", i, j)
				}
			}
		}
	}
	overlapFree(spans)
	overlapFree(unsafeSpans)
	if fl.Size%16 != 0 {
		t.Fatalf("frame size %d not 16-aligned", fl.Size)
	}
}

func TestFixedIsDeclarationOrder(t *testing.T) {
	p := testProg(t)
	fn := workFn(t, p)
	fl := layout.NewFixed().Layout(fn, nil)
	validate(t, fn, fl)
	if fl.GuardOffset() != -1 {
		t.Error("fixed must not place a guard")
	}
	// Declaration order: offsets strictly increase (modulo alignment).
	for i := 1; i < len(fl.Offsets); i++ {
		if fl.Offsets[i] <= fl.Offsets[i-1] {
			t.Fatalf("fixed layout not in declaration order: %v", fl.Offsets)
		}
	}
	// And it is deterministic.
	fl2 := layout.NewFixed().Layout(fn, nil)
	for i := range fl.Offsets {
		if fl.Offsets[i] != fl2.Offsets[i] {
			t.Fatal("fixed layout must be deterministic")
		}
	}
}

func TestStaticRandProperties(t *testing.T) {
	p := testProg(t)
	fn := workFn(t, p)
	e := layout.NewStaticRand(77)
	fl := e.Layout(fn, nil)
	validate(t, fn, fl)
	// Same every invocation and across NewRun (process restart).
	e.NewRun()
	fl2 := e.Layout(fn, nil)
	if fmt.Sprint(fl.Offsets) != fmt.Sprint(fl2.Offsets) {
		t.Fatal("static permutation must survive restarts")
	}
	// A recompile (new seed) usually yields a different order.
	diff := 0
	for seed := uint64(1); seed <= 8; seed++ {
		flS := layout.NewStaticRand(seed).Layout(fn, nil)
		if fmt.Sprint(flS.Offsets) != fmt.Sprint(fl.Offsets) {
			diff++
		}
		validate(t, fn, flS)
	}
	if diff == 0 {
		t.Fatal("eight recompiles produced identical layouts")
	}
}

func TestPaddingRule(t *testing.T) {
	p := testProg(t)
	fn := workFn(t, p)
	fixed := layout.NewFixed().Layout(fn, nil)
	e := layout.NewPadding(3)
	fl := e.Layout(fn, nil)
	validate(t, fn, fl)
	pad := fl.Offsets[0] - fixed.Offsets[0]
	if pad < 8 || pad > 64 || pad%8 != 0 {
		t.Fatalf("pad %d outside Forrest's 8..64 multiples of 8", pad)
	}
	// All offsets shift by the same pad: relative distances intact — the
	// property DOP attacks exploit.
	for i := range fl.Offsets {
		if fl.Offsets[i]-fixed.Offsets[i] != pad {
			t.Fatalf("padding changed relative layout at %d", i)
		}
	}
	// Small frames (≤16B of allocations) get no pad.
	small := compile.MustCompile("s.c", `
long f(long a) { long x; x = a; return x; }
long main() { return f(1); }
`)
	sfn, _ := small.FuncByName("f")
	sfl := layout.NewPadding(3).Layout(sfn, nil)
	sfx := layout.NewFixed().Layout(sfn, nil)
	if sfl.Offsets[0] != sfx.Offsets[0] {
		t.Fatal("frames with ≤16B of allocations must not be padded")
	}
}

func TestBaseRand(t *testing.T) {
	e := layout.NewBaseRand(rng.SeededTRNG(5))
	b1 := e.StackBias()
	if b1%16 != 0 || b1 >= layout.BaseRandWindow {
		t.Fatalf("bias %d outside window", b1)
	}
	seen := map[uint64]bool{b1: true}
	for i := 0; i < 8; i++ {
		e.NewRun()
		seen[e.StackBias()] = true
	}
	if len(seen) < 3 {
		t.Fatalf("restarts should redraw the bias; saw %d distinct", len(seen))
	}
	// Relative layout untouched.
	p := testProg(t)
	fn := workFn(t, p)
	if fmt.Sprint(e.Layout(fn, nil).Offsets) != fmt.Sprint(layout.NewFixed().Layout(fn, nil).Offsets) {
		t.Fatal("baserand must not alter relative layout")
	}
}

func TestSmokestackPerInvocation(t *testing.T) {
	p := testProg(t)
	fn := workFn(t, p)
	e := layout.NewSmokestack(p, rng.NewAESCtr(10, rng.SeededTRNG(7)), nil)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		fl := e.Layout(fn, nil)
		validate(t, fn, fl)
		if fl.GuardOffset() < 0 {
			t.Fatal("smokestack must place a guard")
		}
		seen[fmt.Sprint(fl.Offsets, fl.GuardOffset())] = true
	}
	// 5 objects + guard = 6 → 720 permutations; 64 draws should hit many
	// distinct layouts.
	if len(seen) < 30 {
		t.Fatalf("only %d distinct layouts in 64 invocations", len(seen))
	}
}

func TestSmokestackLayoutForValueIsPure(t *testing.T) {
	p := testProg(t)
	fn := workFn(t, p)
	e := layout.NewSmokestack(p, rng.NewAESCtr(10, rng.SeededTRNG(9)), nil)
	a := e.LayoutForValue(fn, 12345, nil)
	b := e.LayoutForValue(fn, 12345, nil)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("LayoutForValue must be a pure function of r")
	}
	c := e.LayoutForValue(fn, 54321, nil)
	_ = c // different r may or may not differ; only purity is asserted
}

func TestSmokestackGuardDisabled(t *testing.T) {
	p := testProg(t)
	fn := workFn(t, p)
	e := layout.NewSmokestack(p, rng.NewPseudo(3), &layout.SmokestackOptions{
		PBox: pbox.DefaultConfig(), Guard: false, MaxVLAPad: 64,
	})
	fl := e.Layout(fn, nil)
	validate(t, fn, fl)
	if fl.GuardOffset() != -1 {
		t.Fatal("guard disabled but offset present")
	}
	if e.EpilogueCycles(fn) != 0 {
		t.Fatal("no guard → no epilogue cost")
	}
}

func TestVLAPad(t *testing.T) {
	p := testProg(t)
	e := layout.NewSmokestack(p, rng.NewPseudo(11), nil)
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		pad := e.VLAPad()
		if pad <= 0 || pad > 256 || pad%16 != 0 {
			t.Fatalf("VLA pad %d outside (0,256] multiples of 16", pad)
		}
		seen[pad] = true
	}
	if len(seen) < 4 {
		t.Fatalf("VLA pads show no variety: %v", seen)
	}
	// Deterministic engines pad nothing.
	if layout.NewFixed().VLAPad() != 0 || layout.NewStaticRand(1).VLAPad() != 0 {
		t.Fatal("non-smokestack engines must not pad VLAs")
	}
}

func TestPrologueCostOrdering(t *testing.T) {
	p := testProg(t)
	fn := workFn(t, p)
	mk := func(name string) layout.Engine {
		e, err := layout.NewByName(name, p, 3, rng.SeededTRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	pseudo := mk("smokestack+pseudo").PrologueCycles(fn)
	aes1 := mk("smokestack+aes-1").PrologueCycles(fn)
	aes10 := mk("smokestack+aes-10").PrologueCycles(fn)
	rdr := mk("smokestack+rdrand").PrologueCycles(fn)
	if !(pseudo < aes1 && aes1 < aes10 && aes10 < rdr) {
		t.Fatalf("cost ordering violated: %v %v %v %v", pseudo, aes1, aes10, rdr)
	}
	for _, name := range []string{"fixed", "staticrand", "padding", "baserand"} {
		if c := mk(name).PrologueCycles(fn); c != 0 {
			t.Errorf("%s prologue cost %v, want 0", name, c)
		}
	}
}

func TestNewByName(t *testing.T) {
	p := testProg(t)
	names := []string{"fixed", "staticrand", "padding", "baserand",
		"smokestack", "smokestack+pseudo", "smokestack+aes-1", "smokestack+aes-10", "smokestack+rdrand"}
	for _, n := range names {
		if _, err := layout.NewByName(n, p, 1, rng.SeededTRNG(1)); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := layout.NewByName("bogus", p, 1, rng.SeededTRNG(1)); err == nil {
		t.Error("unknown engine must error")
	}
	if _, err := layout.NewByName("smokestack+bogus", p, 1, rng.SeededTRNG(1)); err == nil {
		t.Error("unknown rng must error")
	}
}

func TestRodataBytes(t *testing.T) {
	p := testProg(t)
	e := layout.NewSmokestack(p, rng.NewPseudo(1), nil)
	if e.RodataBytes() <= 0 {
		t.Fatal("smokestack must report P-BOX bytes")
	}
	if e.RodataBytes() != e.Box().TotalBytes() {
		t.Fatal("RodataBytes must equal the box total")
	}
	if layout.NewFixed().RodataBytes() != 0 {
		t.Fatal("fixed adds no rodata")
	}
}

func TestPlanCacheSharesBuilds(t *testing.T) {
	p := testProg(t)
	pc := layout.NewPlanCache()
	plan1 := pc.Plan(p, nil)
	plan2 := pc.Plan(p, nil)
	if plan1 != plan2 {
		t.Fatal("same program + options must hit the plan cache")
	}
	// A recompiled copy of the same source has identical allocation
	// sequences and must hit too — the key is the shape, not the pointer.
	copyProg := testProg(t)
	if pc.Plan(copyProg, nil) != plan1 {
		t.Fatal("recompiled identical program should share the plan")
	}
	// Different options must miss.
	if pc.Plan(p, &layout.SmokestackOptions{Guard: false, MaxVLAPad: 256, PBox: pbox.DefaultConfig()}) == plan1 {
		t.Fatal("different options must not share a plan")
	}
	hits, misses := pc.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 2/2", hits, misses)
	}
}

func TestPlanEnginesMatchDirectConstruction(t *testing.T) {
	p := testProg(t)
	fn := workFn(t, p)
	pc := layout.NewPlanCache()
	cached := pc.Plan(p, nil).NewEngine(rng.NewPseudo(99))
	direct := layout.NewSmokestack(p, rng.NewPseudo(99), nil)
	for i := 0; i < 50; i++ {
		a, b := cached.Layout(fn, nil), direct.Layout(fn, nil)
		validate(t, fn, a)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("invocation %d: cached-plan layout %v != direct %v", i, a, b)
		}
	}
	if cached.RodataBytes() != direct.RodataBytes() {
		t.Fatalf("rodata %d != %d", cached.RodataBytes(), direct.RodataBytes())
	}
	if cached.PrologueCycles(fn) != direct.PrologueCycles(fn) {
		t.Fatal("prologue pricing should not depend on plan caching")
	}
}

// TestPaddingThresholdCountsAlignment pins the padded/unpadded boundary:
// the 16-byte threshold is on the laid-out frame extent (allocation sizes
// plus inter-allocation alignment padding), not the raw sum of sizes. Two
// 8-byte allocas with 16-byte alignment sum to 16 bytes but span 24, and
// must be padded.
func TestPaddingThresholdCountsAlignment(t *testing.T) {
	aligned := &ir.Function{
		Name: "aligned", ID: 3,
		Allocas: []ir.Alloca{
			{Name: "a", Size: 8, Align: 16},
			{Name: "b", Size: 8, Align: 16},
		},
	}
	fl := layout.NewPadding(3).Layout(aligned, nil)
	fx := layout.NewFixed().Layout(aligned, nil)
	pad := fl.Offsets[0] - fx.Offsets[0]
	if pad < 8 || pad > 64 || pad%8 != 0 {
		t.Fatalf("24-byte frame (16B of allocas + 8B alignment gap) must be padded by 8..64, got %d", pad)
	}
	// Exactly 16 bytes of contiguous allocations: at the threshold, unpadded.
	atLimit := &ir.Function{
		Name: "atlimit", ID: 4,
		Allocas: []ir.Alloca{
			{Name: "a", Size: 8, Align: 8},
			{Name: "b", Size: 8, Align: 8},
		},
	}
	fl = layout.NewPadding(3).Layout(atLimit, nil)
	fx = layout.NewFixed().Layout(atLimit, nil)
	if fl.Offsets[0] != fx.Offsets[0] || fl.Size != fx.Size {
		t.Fatalf("16-byte frame must not be padded: got offsets %v size %d", fl.Offsets, fl.Size)
	}
	// One byte over via a trailing allocation: padded.
	over := &ir.Function{
		Name: "over", ID: 5,
		Allocas: []ir.Alloca{
			{Name: "a", Size: 16, Align: 8},
			{Name: "b", Size: 1, Align: 1},
		},
	}
	fl = layout.NewPadding(3).Layout(over, nil)
	fx = layout.NewFixed().Layout(over, nil)
	if fl.Offsets[0] == fx.Offsets[0] {
		t.Fatal("17-byte frame must be padded")
	}
}

// TestLayoutCachesConcurrent shares one StaticRand and one Padding engine
// across goroutines hammering Layout, each into its own buffer — the
// plan/engine split invites exactly this sharing — and has 8 goroutines
// build a fresh program's per-function frame facts at once. Run under
// -race this fails if an engine keeps unguarded state or the facts are
// unguarded; all goroutines must also agree on the
// layouts, and every caller of Function.Frame must get the one stored
// value.
func TestLayoutCachesConcurrent(t *testing.T) {
	p := testProg(t)
	frameFactsConcurrent(t, p)
	engines := []layout.Engine{layout.NewStaticRand(11), layout.NewPadding(11)}
	for _, eng := range engines {
		eng := eng
		want := make(map[string]string)
		for _, fn := range p.Funcs {
			want[fn.Name] = fmt.Sprint(eng.Layout(fn, nil))
		}
		var wg sync.WaitGroup
		errc := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]int64, 64)
				for i := 0; i < 200; i++ {
					for _, fn := range p.Funcs {
						if got := fmt.Sprint(eng.Layout(fn, buf)); got != want[fn.Name] {
							select {
							case errc <- fmt.Errorf("%s: concurrent layout %s != %s", eng.Name(), got, want[fn.Name]):
							default:
							}
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// frameFactsConcurrent releases 8 goroutines at once onto a fresh compile
// of p's source, whose functions have no frame facts yet: each calls
// Frame and lays every function out under the engines that read the
// facts. Layouts must match those of p (built beforehand by separate
// engine instances), and all goroutines must see the same facts.
func frameFactsConcurrent(t *testing.T, p *ir.Program) {
	t.Helper()
	engines := func() []layout.Engine {
		return []layout.Engine{
			layout.NewFixed(), layout.NewBaseRand(rng.SeededTRNG(1)), layout.NewPadding(11),
			layout.NewCleanStack(rng.SeededTRNG(1)), layout.NewShadowStack(),
		}
	}
	want := make(map[string]string)
	for _, eng := range engines() {
		for _, fn := range p.Funcs {
			want[eng.Name()+"/"+fn.Name] = fmt.Sprint(eng.Layout(fn, nil))
		}
	}
	fresh := testProg(t)
	shared := engines()
	const workers = 8
	facts := make([][]*ir.FrameFacts, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for _, fn := range fresh.Funcs {
				facts[g] = append(facts[g], fn.Frame())
				for _, eng := range shared {
					if got, w := fmt.Sprint(eng.Layout(fn, nil)), want[eng.Name()+"/"+fn.Name]; got != w {
						t.Errorf("%s/%s: concurrent layout %s != %s", eng.Name(), fn.Name, got, w)
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range facts {
		for i, fn := range fresh.Funcs {
			if facts[g][i] != fn.Frame() {
				t.Fatalf("goroutine %d got different frame facts for %s", g, fn.Name)
			}
		}
	}
}
