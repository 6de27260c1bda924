package vm

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/layout"
	"repro/internal/rng"
)

// blockProbeSrc has a hot inner loop (array writes, arithmetic, a
// conditional) nested in calls, so the miner sees hot leaders in more than
// one function and the blocks cover fused memory ops as well as plain ALU.
const blockProbeSrc = `
long glob;

long leaf(long x) {
	long a[8];
	long i;
	i = 0;
	while (i < 8) {
		a[i] = x * i + 3;
		i = i + 1;
	}
	return a[3] + a[7] % 5;
}

long main() {
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < 4000) {
		acc = acc + leaf(i) + (i & 7);
		glob = glob + (acc & 15);
		i = i + 1;
	}
	return acc & 65535;
}
`

var blockProbeProg = compile.MustCompile("blockprobe.c", blockProbeSrc)

// blockBranchTargets collects every stream index a branch-family cinstr in
// cs can transfer to.
func blockBranchTargets(cs []cinstr) []int32 {
	var ts []int32
	for i := range cs {
		c := &cs[i]
		switch c.op {
		case cJmp:
			ts = append(ts, c.t0)
		case cBr, cEqBr, cNeBr, cLtBr, cLeBr, cGtBr, cGeBr,
			cConstEqBr, cConstNeBr, cConstLtBr, cConstLeBr, cConstGtBr, cConstGeBr:
			ts = append(ts, c.t0, c.t1)
		}
	}
	return ts
}

// resolveOverlay maps any overlay-stream index to the plain index it
// represents (identity for plain indexes, block leader for cBlocks).
// Returns -1 for an out-of-range or non-cBlock overlay index.
func resolveOverlay(t int32, out []cinstr, nPlain int, blocks []blockDesc) int32 {
	if int(t) < nPlain {
		return t
	}
	if int(t) >= len(out) || out[t].op != cBlock {
		return -1
	}
	return blocks[out[t].a].start
}

// TestBlockFormationInvariants pins the structural contract of the overlay
// block stream: plain copies intact, exact prefix sums, redirects only to
// equivalent superinstructions, and no block interior ever swallowing a
// jump target — including the indexes a fault handler resumes at
// (d.start+j and d.start+j+1 for every j), which must hold the original
// per-constituent cinstrs.
func TestBlockFormationInvariants(t *testing.T) {
	cc := NewCodeCache()
	costs := DefaultCosts()
	m := New(blockProbeProg, layout.NewFixed(), &Env{}, &Options{
		TRNG: rng.SeededTRNG(1), Exec: TierBlock, CodeCache: cc,
	})
	bp := m.ccode
	base := cc.compiled(blockProbeProg, costs, 0, false, m.globalAddr, m.dataAddr)
	if bp == base {
		t.Fatal("no blocks formed for the hot probe program")
	}
	ct := buildCostTableFrom(&costs, 0)

	totalBlocks := 0
	for fi := range bp.funcs {
		bf := &bp.funcs[fi]
		pf := &base.funcs[fi]
		nPlain := len(pf.code)
		totalBlocks += len(bf.blocks)

		if len(bf.code) != nPlain+len(bf.blocks) {
			t.Fatalf("func %d: overlay length %d != plain %d + %d blocks",
				fi, len(bf.code), nPlain, len(bf.blocks))
		}
		if got := resolveOverlay(bf.entry, bf.code, nPlain, bf.blocks); got != 0 {
			t.Fatalf("func %d: entry %d resolves to plain %d, want 0", fi, bf.entry, got)
		}

		// Jump targets of the PLAIN stream: no block interior may contain one.
		isTarget := make(map[int32]bool)
		for _, tgt := range blockBranchTargets(pf.code) {
			isTarget[tgt] = true
		}

		for bi, d := range bf.blocks {
			k := len(d.uops)
			if k < blockMinUops || k > blockMaxUops {
				t.Fatalf("func %d block %d: %d uops outside [%d,%d]", fi, bi, k, blockMinUops, blockMaxUops)
			}
			if int(d.start)+k > nPlain {
				t.Fatalf("func %d block %d: covers past plain stream", fi, bi)
			}
			// Exact prefix/total sums.
			var cost float64
			var steps uint64
			for j := range d.uops {
				if d.prefix[j] != cost || uint64(d.psteps[j]) != steps {
					t.Fatalf("func %d block %d uop %d: prefix (%v,%d) != running (%v,%d)",
						fi, bi, j, d.prefix[j], d.psteps[j], cost, steps)
				}
				cost += copCost(&d.uops[j])
				steps += copSteps(d.uops[j].op)
			}
			if d.cost != cost || d.steps != steps {
				t.Fatalf("func %d block %d: totals (%v,%d) != sums (%v,%d)",
					fi, bi, d.cost, d.steps, cost, steps)
			}
			if cost != math.Trunc(cost) {
				t.Fatalf("func %d block %d: pre-summed cost %v is not integral", fi, bi, cost)
			}
			for j := range d.uops {
				idx := d.start + int32(j)
				// Interior indexes (j>0) must not be jump targets: a branch
				// into the middle of a covered run would otherwise re-execute
				// under different accounting.
				if j > 0 && isTarget[idx] {
					t.Fatalf("func %d block %d: interior index %d is a jump target", fi, bi, idx)
				}
				// Fault re-entry: the plain copy under every uop must be the
				// original cinstr, so a mid-block exit at d.start+j (and the
				// driver's pc+1 resume) replays identical semantics.
				u := d.uops[j]
				p := pf.code[idx]
				if !cinstrEqualModRemap(&u, &p, nPlain, bf.code, bf.blocks) {
					t.Fatalf("func %d block %d uop %d: uop %+v != plain copy %+v", fi, bi, j, u, p)
				}
				if bf.code[idx] != p {
					t.Fatalf("func %d block %d: plain copy at %d altered: %+v != %+v",
						fi, bi, idx, bf.code[idx], p)
				}
			}
			// Terminated blocks end in a branch; open blocks continue at the
			// (possibly redirected) instruction after the covered run.
			last := d.uops[k-1].op
			cb := bf.code[nPlain+bi]
			if cb.op != cBlock || int(cb.a) != bi {
				t.Fatalf("func %d: appended instr %d is %+v, want cBlock #%d", fi, nPlain+bi, cb, bi)
			}
			if !blockTerm(last) {
				cont := resolveOverlay(cb.t0, bf.code, nPlain, bf.blocks)
				if cont != d.start+int32(k) {
					t.Fatalf("func %d block %d: continuation resolves to %d, want %d",
						fi, bi, cont, d.start+int32(k))
				}
			}
		}

		// Every overlay branch target must resolve to a plain index equal to
		// the corresponding base target: redirects may only substitute a
		// block for its own leader (satellite: no fused group or block ever
		// swallows a jump target).
		for i := 0; i < nPlain; i++ {
			if !cinstrEqualModRemap(&bf.code[i], &pf.code[i], nPlain, bf.code, bf.blocks) {
				t.Fatalf("func %d: overlay[%d]=%+v diverges from plain %+v beyond target remap",
					fi, i, bf.code[i], pf.code[i])
			}
		}
	}
	if totalBlocks == 0 {
		t.Fatal("block program created but no blocks present")
	}
	_ = ct
}

// cinstrEqualModRemap compares a possibly-remapped cinstr against its plain
// original: equal in every field, except branch targets may point to an
// appended cBlock whose leader is the original target.
func cinstrEqualModRemap(got, want *cinstr, nPlain int, out []cinstr, blocks []blockDesc) bool {
	g := *got
	switch g.op {
	case cJmp:
		if r := resolveOverlay(g.t0, out, nPlain, blocks); r < 0 {
			return false
		} else {
			g.t0 = r
		}
	case cBr, cEqBr, cNeBr, cLtBr, cLeBr, cGtBr, cGeBr,
		cConstEqBr, cConstNeBr, cConstLtBr, cConstLeBr, cConstGtBr, cConstGeBr:
		if r := resolveOverlay(g.t0, out, nPlain, blocks); r < 0 {
			return false
		} else {
			g.t0 = r
		}
		if r := resolveOverlay(g.t1, out, nPlain, blocks); r < 0 {
			return false
		} else {
			g.t1 = r
		}
	}
	return g == *want
}

// TestBlockTierMatchesSwitch is the in-package smoke differential: same
// result, bit-identical cycles, identical step counts across all three
// tiers on the probe program (the full engine x workload matrix lives in
// the top-level tier-differential suite).
func TestBlockTierMatchesSwitch(t *testing.T) {
	run := func(tier ExecTier) (int64, Stats) {
		m := New(blockProbeProg, layout.NewFixed(), &Env{}, &Options{
			TRNG: rng.SeededTRNG(7), Exec: tier,
		})
		v, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v, m.Stats()
	}
	vSw, sSw := run(TierSwitch)
	vTh, sTh := run(TierCompiled)
	vBl, sBl := run(TierBlock)
	if vSw != vBl || vSw != vTh {
		t.Fatalf("results diverge: switch %d threaded %d block %d", vSw, vTh, vBl)
	}
	if sSw != sBl || sSw != sTh {
		t.Fatalf("stats diverge:\nswitch   %+v\nthreaded %+v\nblock    %+v", sSw, sTh, sBl)
	}
}

// TestBlockTierStepLimitSweep drives the careful-bail path: for every step
// limit in a range that lands inside, at, and around block boundaries, the
// block tier must report the StepLimit fault (or clean result) with stats
// bit-identical to the switch oracle.
func TestBlockTierStepLimitSweep(t *testing.T) {
	prog := compile.MustCompile("sweep.c", stepSweepSrc)
	run := func(tier ExecTier, lim uint64) (int64, string, Stats) {
		m := New(prog, layout.NewFixed(), &Env{}, &Options{
			TRNG: rng.SeededTRNG(3), Exec: tier, StepLimit: lim,
		})
		v, err := m.Run()
		es := ""
		if err != nil {
			es = err.Error()
		}
		return v, es, m.Stats()
	}
	for lim := uint64(1); lim <= 600; lim++ {
		vS, eS, sS := run(TierSwitch, lim)
		vB, eB, sB := run(TierBlock, lim)
		if vS != vB || eS != eB || sS != sB {
			t.Fatalf("limit %d: switch (%d,%q,%+v) != block (%d,%q,%+v)",
				lim, vS, eS, sS, vB, eB, sB)
		}
	}
}

// stepSweepSrc is a hot fused loop whose first few hundred steps cross
// fused groups and blocks at every offset.
const stepSweepSrc = `
long main() {
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < 100000) {
		acc = acc + i * 3 + (acc & 7);
		i = i + 1;
	}
	return acc & 262143;
}`

// TestProfileStepLimitSweep runs the step-limit sweep profiled on both
// compiled tiers: wherever the limit lands — a group boundary, inside a
// fused group, or where a block falls back to its plain copy — op rows
// must count exactly Stats.Instructions and row cycles must match
// Stats.Cycles.
func TestProfileStepLimitSweep(t *testing.T) {
	prog := compile.MustCompile("sweep.c", stepSweepSrc)
	for _, tc := range []struct {
		name string
		tier ExecTier
	}{{"compiled", TierCompiled}, {"block", TierBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			for lim := uint64(1); lim <= 600; lim++ {
				p := NewProfile()
				m := New(prog, layout.NewFixed(), &Env{}, &Options{
					TRNG: rng.SeededTRNG(3), Exec: tc.tier, StepLimit: lim, Prof: p,
				})
				m.Run()
				st := m.Stats()
				var ops uint64
				var cyc float64
				for _, r := range p.Rows() {
					if r.Kind == "op" {
						ops += r.Count
					}
					cyc += r.Cycles
				}
				if ops != st.Instructions || math.Abs(cyc-st.Cycles) > 1e-9 {
					t.Fatalf("limit %d: op rows %d, cycles %v; stats %d instructions, %v cycles",
						lim, ops, cyc, st.Instructions, st.Cycles)
				}
			}
		})
	}
}

// TestBlockTierFallsBackAboveMaxStepLimit pins the exactness guard: above
// blockMaxStepLimit the in-core cycle accumulator could leave float64's
// exact-integer range, so New silently selects the threaded tier.
func TestBlockTierFallsBackAboveMaxStepLimit(t *testing.T) {
	cc := NewCodeCache()
	m := New(testProg("fallback"), layout.NewFixed(), &Env{}, &Options{
		TRNG: rng.SeededTRNG(1), Exec: TierBlock, StepLimit: blockMaxStepLimit + 1, CodeCache: cc,
	})
	if m.ccode == nil {
		t.Fatal("fallback must still use the compiled tier")
	}
	if _, misses := cc.BlockStats(); misses != 0 {
		t.Fatal("fallback must not build a block program")
	}
	if v, err := m.Run(); err != nil || v != 42 {
		t.Fatalf("Run = %d, %v; want 42, nil", v, err)
	}
}

// TestBlockTierNonIntegralCostsUnchanged pins the integrality gate: a cost
// model with a fractional entry must reuse the threaded stream pointer
// (correct execution, no pre-summing).
func TestBlockTierNonIntegralCostsUnchanged(t *testing.T) {
	costs := DefaultCosts()
	costs.Mul = 3.5
	cc := NewCodeCache()
	m := New(blockProbeProg, layout.NewFixed(), &Env{}, &Options{
		TRNG: rng.SeededTRNG(1), Exec: TierBlock, CodeCache: cc, Costs: &costs,
	})
	base := cc.compiled(blockProbeProg, costs, 0, false, m.globalAddr, m.dataAddr)
	if m.ccode != base {
		t.Fatal("non-integral cost table must disable block formation")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockCacheSharing pins the block-tier cache contract: one build per
// key, pointer sharing across machines, and a distinct entry per cost
// model.
func TestBlockCacheSharing(t *testing.T) {
	cc := NewCodeCache()
	mk := func() *Machine {
		return New(blockProbeProg, layout.NewFixed(), &Env{}, &Options{
			TRNG: rng.SeededTRNG(1), Exec: TierBlock, CodeCache: cc,
		})
	}
	m1 := mk()
	if h, mi := cc.BlockStats(); h != 0 || mi != 1 {
		t.Fatalf("first Machine: want 0/1, got %d/%d", h, mi)
	}
	m2 := mk()
	if h, mi := cc.BlockStats(); h != 1 || mi != 1 {
		t.Fatalf("second Machine: want 1/1, got %d/%d", h, mi)
	}
	if m1.ccode != m2.ccode {
		t.Fatal("identical keys must share one block program")
	}
	if cc.BlockLen() != 1 {
		t.Fatalf("BlockLen = %d, want 1", cc.BlockLen())
	}
}

// TestCancelledRunProfileFlush is the satellite-2 regression test: a run
// cancelled by the RunContext watchdog with a Profile attached must still
// reconcile exactly — every executed instruction attributed (op counts sum
// to Stats.Instructions) and the row cycles matching Stats.Cycles — on all
// three tiers. Cancellation polls fire only at fused-group/block
// boundaries, so the flush never sees a half-attributed group.
func TestCancelledRunProfileFlush(t *testing.T) {
	const src = `
long work(long n) {
	long acc;
	long i;
	acc = 0;
	i = 0;
	while (i < n) {
		acc = acc + i * 7 + (acc & 3);
		i = i + 1;
	}
	return acc;
}

long main() {
	long r;
	r = 0;
	while (r >= 0) {
		r = r + (work(5000) & 1);
	}
	return r;
}`
	prog := compile.MustCompile("cancelprof.c", src)
	for _, tc := range []struct {
		name string
		tier ExecTier
	}{{"switch", TierSwitch}, {"threaded", TierCompiled}, {"block", TierBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProfile()
			m := New(prog, layout.NewFixed(), &Env{}, &Options{
				TRNG: rng.SeededTRNG(5), Exec: tc.tier, StepLimit: 1 << 32, Prof: p,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			_, err := m.RunContext(ctx)
			var c *Canceled
			if !errors.As(err, &c) {
				t.Fatalf("want *Canceled, got %v", err)
			}
			st := m.Stats()
			if st.Instructions == 0 {
				t.Fatal("no instructions before cancellation")
			}
			var steps uint64
			var cyc float64
			for _, r := range p.Rows() {
				if r.Kind == "op" {
					steps += r.Count
				}
				cyc += r.Cycles
			}
			if steps != st.Instructions {
				t.Fatalf("cancelled-run profile lost instructions: rows %d, stats %d",
					steps, st.Instructions)
			}
			if rel := math.Abs(cyc-st.Cycles) / st.Cycles; rel >= 1e-9 {
				t.Fatalf("cancelled-run cycle drift: rows %v, stats %v (rel %g)", cyc, st.Cycles, rel)
			}
		})
	}
}

// TestFaultedRunProfileFlush extends the satellite audit to typed faults: a
// divide-by-zero raised deep in a call chain unwinds every live frame past
// the interpreter's attribution tail, and the profile must still account
// for every consumed step (this is the path that loses the in-flight
// OpCall/OpCallHost dispatches without pre-attribution).
func TestFaultedRunProfileFlush(t *testing.T) {
	const src = `
long inner(long d) {
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < 200) {
		acc = acc + i * 3;
		i = i + 1;
	}
	return acc / d;
}

long mid(long n) {
	return inner(n - 1) + 1;
}

long main() {
	long i;
	long acc;
	acc = 0;
	i = 5;
	while (i >= 0) {
		acc = acc + mid(i);
		i = i - 1;
	}
	return acc;
}`
	prog := compile.MustCompile("faultprof.c", src)
	for _, tc := range []struct {
		name string
		tier ExecTier
	}{{"switch", TierSwitch}, {"threaded", TierCompiled}, {"block", TierBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProfile()
			m := New(prog, layout.NewFixed(), &Env{}, &Options{
				TRNG: rng.SeededTRNG(5), Exec: tc.tier, Prof: p,
			})
			_, err := m.Run()
			var dz *DivideByZero
			if !errors.As(err, &dz) {
				t.Fatalf("want *DivideByZero, got %v", err)
			}
			st := m.Stats()
			var steps uint64
			var cyc float64
			for _, r := range p.Rows() {
				if r.Kind == "op" {
					steps += r.Count
				}
				cyc += r.Cycles
			}
			if steps != st.Instructions {
				t.Fatalf("faulted-run profile lost instructions: rows %d, stats %d",
					steps, st.Instructions)
			}
			if rel := math.Abs(cyc-st.Cycles) / st.Cycles; rel >= 1e-9 {
				t.Fatalf("faulted-run cycle drift: rows %v, stats %v (rel %g)", cyc, st.Cycles, rel)
			}
		})
	}
}

// TestFaultedFusedGroupProfile faults the memory access of a fused group
// (constant-scaled index, add, load): the group's leading constituents ran
// and were charged before the fault, so the profile must charge them too
// and row cycles must still match Stats.Cycles.
func TestFaultedFusedGroupProfile(t *testing.T) {
	const src = `
long main() {
	long a[4];
	long i;
	long acc;
	acc = 0;
	i = 0;
	while (i < 50) {
		acc = acc + i;
		i = i + 1;
	}
	return a[acc * 100000000];
}`
	prog := compile.MustCompile("fusedfault.c", src)
	for _, tc := range []struct {
		name string
		tier ExecTier
	}{{"switch", TierSwitch}, {"compiled", TierCompiled}, {"block", TierBlock}} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProfile()
			m := New(prog, layout.NewFixed(), &Env{}, &Options{TRNG: rng.SeededTRNG(5), Exec: tc.tier, Prof: p})
			var mf *MemFault
			if _, err := m.Run(); !errors.As(err, &mf) {
				t.Fatalf("want *MemFault, got %v", err)
			}
			st := m.Stats()
			var ops uint64
			var cyc float64
			for _, r := range p.Rows() {
				if r.Kind == "op" {
					ops += r.Count
				}
				cyc += r.Cycles
			}
			if ops != st.Instructions || cyc != st.Cycles {
				t.Fatalf("op rows %d, cycles %v; stats %d instructions, %v cycles",
					ops, cyc, st.Instructions, st.Cycles)
			}
		})
	}
}

// TestPrewarmBlockTier pins that PrewarmBlockTier fills the default cache:
// a Machine built afterwards for the same program must hit, not build.
func TestPrewarmBlockTier(t *testing.T) {
	prog := compile.MustCompile("prewarm.c", blockProbeSrc)
	PrewarmBlockTier(prog)
	_, missBefore := defaultCodeCache.BlockStats()
	New(prog, layout.NewFixed(), &Env{}, &Options{TRNG: rng.SeededTRNG(2), Exec: TierBlock})
	if _, missAfter := defaultCodeCache.BlockStats(); missAfter != missBefore {
		t.Fatalf("prewarmed program rebuilt its block stream: misses %d -> %d", missBefore, missAfter)
	}
}
