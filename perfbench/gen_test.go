package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestStreamsDeterministic pins the op-stream contract: one seed gives
// byte-identical request bodies, another seed gives different ones.
func TestStreamsDeterministic(t *testing.T) {
	streams := map[string]func(uint64) []op{
		"named":  namedStream,
		"inline": func(s uint64) []op { ops, _ := inlineStream(s); return ops },
		"cells":  func(s uint64) []op { ops, _, _ := cellsStream(s); return ops },
	}
	for name, gen := range streams {
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) != len(b) {
			t.Fatalf("%s: stream lengths differ for one seed: %d vs %d", name, len(a), len(b))
		}
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].body(), b[i].body()) {
				t.Fatalf("%s: op %d differs between two runs of one seed", name, i)
			}
			if i < len(c) && !bytes.Equal(a[i].body(), c[i].body()) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 produced identical streams", name)
		}
	}
}

// TestNamedStreamBlocks checks the named mix: every block of namedBlock
// sessions holds each (workload, engine) pair once, so every pair recurs
// at the same rate under every seed.
func TestNamedStreamBlocks(t *testing.T) {
	if n := len(workload.All()) * len(namedEngines); n != namedBlock {
		t.Fatalf("namedBlock = %d, want %d workloads x engines", namedBlock, n)
	}
	ops := namedStream(5)
	if len(ops)%namedBlock != 0 {
		t.Fatalf("named stream of %d ops is not whole blocks of %d", len(ops), namedBlock)
	}
	for b := 0; b < len(ops); b += namedBlock {
		seen := map[string]bool{}
		for _, o := range ops[b : b+namedBlock] {
			pair := o.req.Workload + "/" + strings.Join(o.req.Engines, ",")
			if seen[pair] {
				t.Fatalf("block at op %d holds %s twice", b, pair)
			}
			seen[pair] = true
		}
	}
}

// TestInlineStreamShape checks the documented mix: exactly one new
// program per block of four sessions, resubmissions from the recent set.
func TestInlineStreamShape(t *testing.T) {
	ops, progs := inlineStream(3)
	fresh := 0
	for i, o := range ops {
		if o.newProg {
			fresh++
		}
		if !o.newProg && o.prog < fresh-inlineRecent {
			t.Fatalf("op %d resubmits program %d, older than the last %d", i, o.prog, inlineRecent)
		}
		if (i+1)%4 == 0 && fresh != (i+1)/4 {
			t.Fatalf("after %d ops: %d new programs, want %d", i+1, fresh, (i+1)/4)
		}
	}
	if fresh != len(progs) {
		t.Fatalf("%d new-program ops for %d distinct programs", fresh, len(progs))
	}
}

// TestGeneratedProgramsRun compiles generated programs of both shapes and
// runs them on the reference interpreter within the session step limit.
func TestGeneratedProgramsRun(t *testing.T) {
	check := func(src string, lo, hi uint64) {
		t.Helper()
		prog, err := compile.Compile("gen.c", src)
		if err != nil {
			t.Fatalf("generated program does not compile: %v\n%s", err, src)
		}
		m := vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{
			Exec: vm.TierSwitch, StepLimit: sessionStepLimit, TRNG: rng.SeededTRNG(1),
		})
		if _, err := m.Run(); err != nil {
			t.Fatalf("generated program fails: %v\n%s", err, src)
		}
		if n := m.Stats().Instructions; n < lo || n > hi {
			t.Errorf("generated program ran %d instructions, want %d-%d", n, lo, hi)
		}
	}
	for seed := uint64(0); seed < 12; seed++ {
		r := &splitmix{s: seed}
		sh := inlineShape(r, int(seed%inlineClasses), int(seed*5%inlineClasses))
		if sh.funcs < 10 || sh.funcs > 40 {
			t.Fatalf("inline shape has %d functions, want 10-40", sh.funcs)
		}
		check(genProgram(r.next(), sh), 200_000, 1_500_000)
		check(genProgram(seed, cellsShape), 15_000, 40_000)
	}
}
