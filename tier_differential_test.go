// Differential oracle for the compiled execution tier: every workload
// program plus a batch of generated MiniC snippets runs under the
// threaded-code compiled tier and the legacy switch interpreter, across
// all registered layout engine families, and the executions must agree on
// everything an experiment can observe — return value, every Stats counter
// (Cycles as exact float64 bits), faults (by message, which bakes in
// function and IR pc), and a digest of final memory. The switch
// interpreter is the reference semantics; any divergence is a compiler or
// executor bug, never noise. The generated snippets exist to reach idioms
// the curated workloads underuse: 4- and 1-byte array traffic,
// divide/modulo feeding the fused const forms, deep compare/branch chains,
// and mid-fusion step-limit landings (swept explicitly at the end).

package repro

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/vm"
	"repro/internal/workload"
)

// differentialEngines is one engine per instrumentation family; the
// smokestack member uses the mid-strength AES tier so prologue pricing,
// guard traffic and VLA pads are all live. The defense-zoo engines cover
// the remaining frame machinery: cleanstack (dual-region frames and the
// unsafe-stack rebase), shadowstack (return-linkage slots), stackato
// (per-frame canary + random padding).
var differentialEngines = []string{
	"fixed", "staticrand", "padding", "baserand", "smokestack+aes-10",
	"cleanstack", "shadowstack", "stackato",
}

// candidateTiers are the executors checked against the switch oracle. The
// block row runs vm.TierBlock, the alias of TierCompiled that the
// perfbench module still names; it goes with the alias.
var candidateTiers = []struct {
	name string
	tier vm.ExecTier
}{
	{"compiled", vm.TierCompiled},
	{"block", vm.TierBlock},
}

// tierResult is everything a run exposes to the experiment layer.
type tierResult struct {
	ret    int64
	errStr string
	stats  vm.Stats
	digest [sha256.Size]byte
}

// runTier executes prog once under the given tier. Identical seeds feed
// the layout engine and the machine TRNG so the two tiers see the same
// randomized layouts and the same entropy stream.
func runTier(t *testing.T, prog *ir.Program, scheme string, seed uint64, tier vm.ExecTier, stepLimit uint64) tierResult {
	t.Helper()
	eng, err := layout.NewByName(scheme, prog, seed, rng.SeededTRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	env := &vm.Env{}
	m := vm.New(prog, eng, env, &vm.Options{
		TRNG:      rng.SeededTRNG(seed ^ 0xabc),
		StepLimit: stepLimit,
		Exec:      tier,
	})
	v, rerr := m.Run()
	res := tierResult{ret: v, stats: m.Stats()}
	if rerr != nil {
		res.errStr = rerr.Error()
	}
	h := sha256.New()
	for _, s := range m.Mem.Segments() {
		if s.Name == "heap" {
			// The heap is lazily backed; hash only the allocated prefix so
			// an untouched 64 MiB segment costs nothing.
			if used := res.stats.HeapUsed; used > 0 {
				fmt.Fprintf(h, "heap:%d\n", used)
				h.Write(s.Bytes()[:used])
			}
			continue
		}
		fmt.Fprintf(h, "%s:%d\n", s.Name, s.Size())
		h.Write(s.Bytes())
	}
	h.Write(env.Output)
	copy(res.digest[:], h.Sum(nil))
	return res
}

// diffTiers fails the test on the first observable divergence.
func diffTiers(t *testing.T, compiled, reference tierResult) {
	t.Helper()
	if compiled.errStr != reference.errStr {
		t.Fatalf("fault divergence:\ncompiled: %q\nswitch:   %q", compiled.errStr, reference.errStr)
	}
	if compiled.ret != reference.ret {
		t.Fatalf("return divergence: compiled %d, switch %d", compiled.ret, reference.ret)
	}
	cb, rb := math.Float64bits(compiled.stats.Cycles), math.Float64bits(reference.stats.Cycles)
	if cb != rb {
		t.Fatalf("cycle divergence: compiled %v (bits %#x), switch %v (bits %#x)",
			compiled.stats.Cycles, cb, reference.stats.Cycles, rb)
	}
	if compiled.stats != reference.stats {
		t.Fatalf("stats divergence:\ncompiled: %+v\nswitch:   %+v", compiled.stats, reference.stats)
	}
	if compiled.digest != reference.digest {
		t.Fatalf("memory digest divergence: compiled %x, switch %x", compiled.digest, reference.digest)
	}
}

// TestTierDifferential covers every registered workload under every engine
// family; runs in parallel and under -race this also exercises the shared
// compiled-code cache from many goroutines.
func TestTierDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs; skipped in -short")
	}
	for _, w := range workload.All() {
		for _, scheme := range differentialEngines {
			for _, ct := range candidateTiers {
				w, scheme, ct := w, scheme, ct
				t.Run(w.Name+"/"+scheme+"/"+ct.name, func(t *testing.T) {
					t.Parallel()
					seed := uint64(0xd1ff<<16) ^ uint64(len(w.Name)+17*len(scheme))
					const limit = 2_000_000_000
					diffTiers(t,
						runTier(t, w.Prog(), scheme, seed, ct.tier, limit),
						runTier(t, w.Prog(), scheme, seed, vm.TierSwitch, limit))
				})
			}
		}
	}
}

// genSnippet emits a deterministic pseudo-random MiniC program. Each
// snippet mixes 8-, 4- and 1-byte array traffic, scaled indexing (the
// fused multiply/add/load shape), masked divides and modulos, and
// branchy accumulation, with constants and operators drawn from the seed.
func genSnippet(seed uint64) string {
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	pick := func(choices ...string) string { return choices[next()%uint64(len(choices))] }
	n := 48 + next()%48 // long buffer length
	q := 16 + next()%16 // int buffer length
	k := 8 + next()%24  // char buffer length
	rounds := 3 + next()%4
	var b strings.Builder
	fmt.Fprintf(&b, "long buf[%d];\nint quads[%d];\nchar bytes[%d];\n\n", n, q, k)
	fmt.Fprintf(&b, "long mix(long a, long b) {\n")
	fmt.Fprintf(&b, "\tlong t = a %s b;\n", pick("+", "-", "*", "^", "|", "&"))
	fmt.Fprintf(&b, "\tt = t %s (a >> %d);\n", pick("+", "-", "^"), 1+next()%13)
	fmt.Fprintf(&b, "\tt = t + b / ((a & %d) + 1);\n", 7+8*(next()%3))
	fmt.Fprintf(&b, "\tt = t %% ((b & %d) + 3);\n", 15+16*(next()%3))
	fmt.Fprintf(&b, "\tif (t < 0) { t = -t; }\n\treturn t;\n}\n\n")
	fmt.Fprintf(&b, "long main() {\n\tlong i = 0;\n")
	fmt.Fprintf(&b, "\twhile (i < %d) {\n", n)
	fmt.Fprintf(&b, "\t\tbuf[i] = mix(i * %d + %d, i ^ %d);\n", 3+next()%61, next()%1000, next()%512)
	fmt.Fprintf(&b, "\t\tquads[i %% %d] = buf[i] %s i;\n", q, pick("+", "-", "*"))
	fmt.Fprintf(&b, "\t\tbytes[(i * %d) %% %d] = buf[i] & 255;\n", 1+next()%7, k)
	fmt.Fprintf(&b, "\t\ti++;\n\t}\n")
	fmt.Fprintf(&b, "\tlong acc = %d;\n\tlong r = 0;\n", next()%9999)
	fmt.Fprintf(&b, "\twhile (r < %d) {\n\t\ti = 0;\n", rounds)
	fmt.Fprintf(&b, "\t\twhile (i < %d) {\n", n)
	fmt.Fprintf(&b, "\t\t\tacc = acc + buf[i] * (bytes[(i * %d) %% %d] + 1);\n", 1+next()%5, k)
	fmt.Fprintf(&b, "\t\t\tacc = acc ^ (quads[(i + %d) %% %d] >> %d);\n", next()%16, q, 1+next()%5)
	fmt.Fprintf(&b, "\t\t\tif (acc & %d) { acc = acc + buf[(i * i) %% %d]; } else { acc = acc - %d; }\n",
		1+next()%7, n, 1+next()%29)
	fmt.Fprintf(&b, "\t\t\ti++;\n\t\t}\n\t\tr++;\n\t}\n")
	fmt.Fprintf(&b, "\treturn acc & 140737488355327;\n}\n")
	return b.String()
}

// TestTierDifferentialGenerated cross-checks generated snippets, including
// a step-limit sweep on the first snippet: limits from 1 upward land on
// every constituent position inside fused groups, so the mid-group
// accounting (partial costs, exact step counts) must match the unfused
// interpreter at each cutoff.
func TestTierDifferentialGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("many VM runs; skipped in -short")
	}
	const snippets = 8
	for i := 0; i < snippets; i++ {
		i := i
		src := genSnippet(uint64(0xc0ffee + 977*i))
		prog, err := compile.Compile(fmt.Sprintf("gen%d.c", i), src)
		if err != nil {
			t.Fatalf("snippet %d does not compile: %v\n%s", i, err, src)
		}
		for _, scheme := range differentialEngines {
			for _, ct := range candidateTiers {
				scheme, ct := scheme, ct
				t.Run(fmt.Sprintf("gen%d/%s/%s", i, scheme, ct.name), func(t *testing.T) {
					t.Parallel()
					seed := uint64(0x9e3779b9*uint32(i+1)) ^ uint64(len(scheme))
					const limit = 50_000_000
					diffTiers(t,
						runTier(t, prog, scheme, seed, ct.tier, limit),
						runTier(t, prog, scheme, seed, vm.TierSwitch, limit))
				})
			}
		}
	}

	// Fault parity: the error string carries function name and IR pc, so
	// string equality pins fault attribution (including faults raised from
	// the middle of a fused group) to the reference interpreter's.
	faults := map[string]string{
		"div-zero": "long main() { long a = 7; long b = 0; long i = 0;\n" +
			"\twhile (i < 5) { a = a + i; i++; }\n\treturn a / b;\n}\n",
		"mod-zero": "long main() { long a = 9; long b = 3; return a %% (b - 3); }\n",
		"oob-load": "long g[4];\nlong main() { long i = 0; long s = 0;\n" +
			"\twhile (i < 100000000) { s = s + g[i]; i++; }\n\treturn s;\n}\n",
		"oob-store": "long g[4];\nlong main() { long i = 0;\n" +
			"\twhile (i < 100000000) { g[i] = i * 3; i++; }\n\treturn 0;\n}\n",
	}
	for name, src := range faults {
		name, src := name, src
		t.Run("fault/"+name, func(t *testing.T) {
			t.Parallel()
			prog, err := compile.Compile(name+".c", strings.ReplaceAll(src, "%%", "%"))
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range differentialEngines {
				for _, ct := range candidateTiers {
					const limit = 2_000_000_000
					a := runTier(t, prog, scheme, 11, ct.tier, limit)
					b := runTier(t, prog, scheme, 11, vm.TierSwitch, limit)
					if a.errStr == "" {
						t.Fatalf("%s/%s/%s: expected a fault, got clean return %d", name, scheme, ct.name, a.ret)
					}
					diffTiers(t, a, b)
				}
			}
		})
	}

	sweepProg, err := compile.Compile("sweep.c", genSnippet(0xbadc0de))
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range candidateTiers {
		ct := ct
		t.Run("step-limit-sweep/"+ct.name, func(t *testing.T) {
			t.Parallel()
			for limit := uint64(1); limit <= 400; limit++ {
				diffTiers(t,
					runTier(t, sweepProg, "smokestack+aes-10", 7, ct.tier, limit),
					runTier(t, sweepProg, "smokestack+aes-10", 7, vm.TierSwitch, limit))
			}
		})
	}
}
