package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/workload"
)

// splitmix is the benchmark's only random source: every input is a pure
// function of the --seed argument, so two runs with one seed send
// byte-identical requests.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// request is the smokestackd session body the load generator sends.
type request struct {
	Tenant   string   `json:"tenant"`
	Workload string   `json:"workload,omitempty"`
	Program  string   `json:"program,omitempty"`
	Engines  []string `json:"engines"`
	Seed     uint64   `json:"seed"`
	Runs     int      `json:"runs,omitempty"`
}

// op is one session of a server workload's op stream.
type op struct {
	idx  int
	req  request
	spec harness.SessionSpec
	// want is the value every record must carry: the registered checksum
	// for named workloads, the switch-tier reference for inline programs.
	want int64
	// prog indexes the inline stream's distinct programs.
	prog int
	// newProg marks the first submission of an inline program.
	newProg bool
	// mix is the op's class in the stream's mix (a named session's
	// workload and engine, "" elsewhere): latency quantiles weigh every
	// class equally, so each run measures the same mix whatever its seed.
	mix string
	// sample marks the sessions whose streamed bytes are compared against
	// the offline harness.RunSession path.
	sample bool
}

func newOp(idx int, req request) op {
	return op{idx: idx, req: req, spec: harness.SessionSpec{
		Workload: req.Workload, Source: req.Program, Engines: req.Engines,
		Seed: req.Seed, Runs: req.Runs,
	}}
}

// body encodes the op's request. Bodies are encoded when sent, not kept:
// a stream of program sources held as bodies would dominate the retained
// heap the benchmark reports.
func (o *op) body() []byte {
	b, err := json.Marshal(o.req)
	if err != nil {
		panic(err) // a request of plain strings and integers always encodes
	}
	return b
}

// namedEngines are the second engine of a named session, next to "fixed":
// every RNG class of the paper's Fig 3 that the server runs plus the
// three non-Smokestack defenses.
var namedEngines = []string{
	"smokestack+pseudo", "smokestack+aes-10", "smokestack+rdrand",
	"cleanstack", "shadowstack", "stackato",
}

// inlineEngines is the lineup of every inline session.
var inlineEngines = []string{"fixed", "smokestack+pseudo"}

// Stream sizes. The window ends early if a stream runs out. The named and
// cells streams hold over twice the sessions the unmodified program
// completes in a 50 s window on a 2-vCPU host. The inline stream is the
// memory ceiling of its run: every new program leaves a pooled Machine
// with an 8 MiB stack that nothing releases, so 800 sessions (200 new
// programs) retain about 1.6 GB.
const (
	namedOps  = 6 * namedBlock
	inlineOps = 800
	cellsOps  = 6000
	// namedBlock is the named stream's block: every (workload, engine)
	// pair once.
	namedBlock = 20 * 6
	// sampleEvery spaces the byte-identity samples (about one in this many
	// sessions, at most maxSamples of them).
	sampleEvery = 16
	maxSamples  = 4
	// inlineRecent is how many of the latest programs a resubmission
	// chooses from; it stays below harness.ProgCacheCap so resubmissions
	// hit the server's program cache.
	inlineRecent = 32
	// cellsRuns repeats each of the 11 registered engines in a cells
	// session.
	cellsRuns = 8
)

// markSamples flags a seeded sparse subset of ops for the byte-identity
// check.
func markSamples(r *splitmix, ops []op) {
	n := 0
	for i := range ops {
		if n < maxSamples && r.intn(sampleEvery) == 0 {
			ops[i].sample = true
			n++
		}
	}
}

// namedStream draws sessions over all 20 registered workloads, each paired
// with "fixed" and one of namedEngines. The stream is a run of blocks of
// namedBlock sessions: every block holds each (workload, engine) pair once,
// in seeded order. Latency quantiles weigh every pair equally (op.mix),
// so every run measures the same mix of sessions under every seed, and
// the seed varies only their order and session seeds.
func namedStream(seed uint64) []op {
	r := &splitmix{s: seed}
	ws := workload.All()
	var ops []op
	for len(ops) < namedOps {
		for _, k := range r.perm(len(ws) * len(namedEngines)) {
			w := ws[k/len(namedEngines)]
			o := newOp(len(ops), request{
				Tenant: "bench", Workload: w.Name,
				Engines: []string{"fixed", namedEngines[k%len(namedEngines)]},
				Seed:    r.next(),
			})
			o.want, o.mix = w.Want, w.Name+"/"+o.req.Engines[1]
			ops = append(ops, o)
		}
	}
	markSamples(r, ops)
	return ops
}

// inlineStream submits generated programs: in every block of four
// sessions exactly one (at a seeded position) is a program the server has
// never seen, and the others resubmit one of the last inlineRecent
// programs under a new session seed. progs receives the distinct sources
// in first-submission order.
func inlineStream(seed uint64) (ops []op, progs []string) {
	r := &splitmix{s: seed}
	var sizes, funcs []int
	for len(ops) < inlineOps {
		fresh := r.intn(4)
		if len(progs) == 0 {
			fresh = 0 // nothing to resubmit yet
		}
		for j := 0; j < 4; j++ {
			newProg := j == fresh
			var p int
			if newProg {
				p = len(progs)
				k := p % inlineClasses
				if k == 0 {
					sizes, funcs = r.perm(inlineClasses), r.perm(inlineClasses)
				}
				progs = append(progs, genProgram(r.next(), inlineShape(r, sizes[k], funcs[k])))
			} else {
				p = len(progs) - 1 - r.intn(min(len(progs), inlineRecent))
			}
			o := newOp(len(ops), request{
				Tenant: "bench", Program: progs[p], Engines: inlineEngines, Seed: r.next(),
			})
			o.prog, o.newProg = p, newProg
			ops = append(ops, o)
		}
	}
	markSamples(r, ops)
	return ops, progs
}

// cellsProgramSeed fixes the cells program: the workload measures the
// per-cell costs around one short run, so --seed varies only the session
// seeds, never the program the cells run.
const cellsProgramSeed = 0x5eed

// cellsStream resubmits one small program under all 11 registered engines
// × cellsRuns, with a fresh session seed per op. warm is the set-up
// session that compiles the program and fills the Machine pool.
func cellsStream(seed uint64) (ops []op, warm op, src string) {
	r := &splitmix{s: seed}
	src = genProgram(cellsProgramSeed, cellsShape)
	engines := harness.EngineNames()
	cellsOp := func(idx int) op {
		return newOp(idx, request{
			Tenant: "bench", Program: src, Engines: engines, Seed: r.next(), Runs: cellsRuns,
		})
	}
	warm = cellsOp(-1)
	for len(ops) < cellsOps {
		ops = append(ops, cellsOp(len(ops)))
	}
	markSamples(r, ops)
	return ops, warm, src
}

// shape sizes a generated program. Simulated instructions grow roughly as
// rounds × funcs × (arrLen × 12 + 80 + iters × 100).
type shape struct {
	funcs  int // functions besides main, 10-40
	arrLen int // long-array local length (power of two)
	iters  int // mixing-loop trip count per call
	rounds int // calls of the top of the chain from main
}

// cellsShape sizes the cells program (~25k simulated instructions).
var cellsShape = shape{funcs: 12, arrLen: 8, iters: 8, rounds: 2}

// inlineClasses stratifies inline program sizes: every run of this many
// new programs takes each instruction-count class and each function-count
// class once, in seeded order, so every seed's stream holds the same mix
// of program sizes.
const inlineClasses = 8

// inlineShape draws a medium program from its size and function-count
// classes (0 to inlineClasses-1): 10-40 functions, about 4·10^5-10^6
// simulated instructions.
func inlineShape(r *splitmix, sizeClass, funcClass int) shape {
	s := shape{funcs: 10 + funcClass*28/inlineClasses + r.intn(4), arrLen: 8 << r.intn(3), iters: 16 + r.intn(33)}
	perCall := s.funcs * (s.arrLen*12 + 80 + s.iters*100)
	target := 400_000 + (sizeClass*600_000+r.intn(600_000))/inlineClasses
	s.rounds = max(1, target/perCall)
	return s
}

// genProgram emits a MiniC program: a chain of functions, each with
// scalar, long-array and int-array locals, a fill loop, a mixing loop and
// a call to the previous function of the chain; main calls the top of the
// chain sh.rounds times and returns a 47-bit checksum.
func genProgram(seed uint64, sh shape) string {
	r := &splitmix{s: seed}
	pick := func(choices ...string) string { return choices[r.intn(len(choices))] }
	var b strings.Builder
	for f := 0; f < sh.funcs; f++ {
		n := sh.arrLen
		q := 4 << r.intn(3) // int-array length
		fmt.Fprintf(&b, "long f%d(long x, long y) {\n", f)
		fmt.Fprintf(&b, "\tlong a[%d];\n\tint q[%d];\n", n, q)
		fmt.Fprintf(&b, "\tlong s = x ^ %d;\n\tlong t = y + %d;\n\tlong i;\n", r.intn(1<<20), r.intn(1<<12))
		fmt.Fprintf(&b, "\tfor (i = 0; i < %d; i++) { a[i] = s * %d + i %s t; }\n", n, 3+r.intn(61), pick("+", "^", "-"))
		fmt.Fprintf(&b, "\tfor (i = 0; i < %d; i++) { q[i] = i * %d; }\n", q, 1+r.intn(9))
		fmt.Fprintf(&b, "\tfor (i = 0; i < %d; i++) {\n", sh.iters)
		fmt.Fprintf(&b, "\t\ts = s %s a[(i * %d + t) & %d];\n", pick("+", "^", "-"), 1+2*r.intn(8), n-1)
		fmt.Fprintf(&b, "\t\tt = t %s (s >> %d);\n", pick("+", "^"), 1+r.intn(12))
		fmt.Fprintf(&b, "\t\tq[i & %d] = q[i & %d] + (s & %d);\n", q-1, q-1, 255)
		fmt.Fprintf(&b, "\t\tif (t & %d) { s = s + q[(t >> 2) & %d]; } else { t = t - q[(s >> 3) & %d]; }\n", 1+r.intn(7), q-1, q-1)
		fmt.Fprintf(&b, "\t}\n")
		if f > 0 {
			fmt.Fprintf(&b, "\ts = s %s f%d(t, s & %d);\n", pick("+", "^"), f-1, 1023)
		}
		fmt.Fprintf(&b, "\treturn (s ^ t) & 1099511627775;\n}\n\n")
	}
	fmt.Fprintf(&b, "long main() {\n\tlong acc = %d;\n\tlong r;\n", r.intn(1<<16))
	fmt.Fprintf(&b, "\tfor (r = 0; r < %d; r++) { acc = (acc * %d + f%d(acc, r)) & 1099511627775; }\n",
		sh.rounds, 3+2*r.intn(30), sh.funcs-1)
	fmt.Fprintf(&b, "\treturn acc & 140737488355327;\n}\n")
	return b.String()
}
