package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/compile"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/pbox"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workload"
)

// replayer re-executes a workload's ops through each layer's public calls,
// in the order and with the options the harness session cells and grid
// cells use, opening a span around every call. It owns its Machine pool
// and its plan and P-BOX caches, so the replay starts as cold as the
// server did and leaves the server's shared caches alone.
type replayer struct {
	tr     *tracer
	pool   *vm.MachinePool
	tables *pbox.Cache
	shared *layout.PlanCache // plans of registered workloads and corpus programs
	reg    *telemetry.Registry

	// drawNS is the rng probe's cost per draw by scheme.
	drawNS map[string]float64
	// streamed holds the untraced half's NDJSON by op. A replayed session
	// must encode to the same bytes: its records carry cycles, which
	// depend on the layout, the cell seeds and the VM options, so a replay
	// that drifts from the harness fails the run.
	streamed map[int][]byte
	compared int

	mu       sync.Mutex
	progs    map[string]*replayProg // inline programs by source
	seen     map[*vm.Machine]bool   // Machines handed out before: a Get returning one was a pool hit
	opSpans  map[string]int         // grid cell key -> its op span
	draws    map[int]float64        // op -> RNG draws
	drawTime map[int]float64        // op -> estimated draw time (ms)
	lowerMS  []float64
	mineMS   []float64
	irSizes  []float64
	runs     int
	wrong    []string
	// twins are probe runs queued by ops and run after them (see twin).
	twins []func()
}

func newReplayer() *replayer {
	return &replayer{
		tr: newTracer(), pool: vm.NewMachinePool(0), tables: pbox.NewCache(),
		shared: layout.NewPlanCache(), reg: telemetry.NewRegistry(),
		progs: map[string]*replayProg{}, seen: map[*vm.Machine]bool{}, opSpans: map[string]int{},
		draws: map[int]float64{}, drawTime: map[int]float64{},
	}
}

// replayProg is a program with the cache tier its runs use: the
// process-wide code cache (nil) for registered workloads, private code
// and plan caches for inline programs.
type replayProg struct {
	prog  *ir.Program
	want  int64
	code  *vm.CodeCache
	plans *layout.PlanCache
}

func (rp *replayer) wrongf(format string, args ...any) {
	rp.mu.Lock()
	rp.wrong = append(rp.wrong, fmt.Sprintf(format, args...))
	rp.mu.Unlock()
}

// timed runs fn inside a span and returns its duration in ms.
func (rp *replayer) timed(op, parent int, name string, fn func()) float64 {
	id := rp.tr.begin(op, parent, name)
	fn()
	var d float64
	rp.tr.end(id, func(s *span) { d = s.ms() })
	return d
}

// hashSeed mirrors the harness's per-cell seed derivation, so replayed
// cells draw the same layouts as the cells they mirror.
func hashSeed(base uint64, parts ...string) uint64 {
	h := base ^ 0xcbf29ce484222325
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 0x100000001b3
		}
	}
	return h
}

func irSize(p *ir.Program) uint64 {
	var n uint64
	for _, fn := range p.Funcs {
		n += uint64(len(fn.Code))
	}
	return n
}

// newProgram is the cold path of a program the process has never seen:
// the front end, then lowering, block mining and Machine construction on
// a fresh private code cache. Lowering and mining are the cold
// TierCompiled and TierBlock constructions minus a warm construction.
func (rp *replayer) newProgram(op, parent int, name, src string) (*replayProg, error) {
	id := rp.tr.begin(op, parent, "compile")
	prog, err := compile.Compile(name, src)
	rp.tr.end(id, func(s *span) {
		if prog != nil {
			s.Count = irSize(prog)
		}
	})
	if err != nil {
		return nil, err
	}
	p := &replayProg{prog: prog, code: vm.NewCodeCache(), plans: layout.NewPlanCache()}
	construct := func(tier vm.ExecTier) func() {
		return func() {
			vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{
				Exec: tier, CodeCache: p.code, StepLimit: sessionStepLimit, TRNG: rng.SeededTRNG(1),
			})
		}
	}
	lower := rp.timed(op, parent, "vm.lower", construct(vm.TierCompiled))
	warm := rp.timed(op, parent, "vm.new", construct(vm.TierCompiled))
	mine := rp.timed(op, parent, "vm.mine", construct(vm.TierBlock))
	rp.mu.Lock()
	rp.lowerMS = append(rp.lowerMS, lower-warm)
	rp.mineMS = append(rp.mineMS, mine-warm)
	rp.irSizes = append(rp.irSizes, float64(irSize(prog)))
	rp.mu.Unlock()
	return p, nil
}

// engine builds a cell's engine the way the harness registry does: the
// source seeded with the cell seed, the TRNG with seed^salt, Smokestack
// plans through the program's plan cache.
func (rp *replayer) engine(op, parent int, name string, p *replayProg, seed, salt uint64) (layout.Engine, rng.Source, error) {
	id := rp.tr.begin(op, parent, "harness.engine")
	defer rp.tr.end(id, nil)
	trng := rng.SeededTRNG(seed ^ salt)
	scheme, smoke := strings.CutPrefix(name, "smokestack+")
	if !smoke {
		eng, err := layout.NewByName(name, p.prog, seed, trng)
		return eng, nil, err
	}
	src, err := rng.NewByName(scheme, seed, trng)
	if err != nil {
		return nil, nil, err
	}
	pid := rp.tr.begin(op, id, "layout.plan")
	_, before := p.plans.Stats()
	plan := p.plans.Plan(p.prog, &layout.SmokestackOptions{
		PBox: pbox.DefaultConfig(), Guard: true, MaxVLAPad: 256, TableCache: rp.tables,
	})
	_, after := p.plans.Stats()
	rp.tr.end(pid, func(s *span) {
		if after > before {
			s.Label = "miss"
		}
	})
	return plan.NewEngine(src), src, nil
}

// machine gets a Machine from the pool: a span named vm.reset on a hit,
// vm.new on a miss.
func (rp *replayer) machine(op, parent int, p *replayProg, eng layout.Engine, opts *vm.Options) *vm.Machine {
	id := rp.tr.begin(op, parent, "vm.reset")
	m := rp.pool.Get(p.prog, eng, &vm.Env{}, opts)
	rp.mu.Lock()
	hit := rp.seen[m]
	rp.seen[m] = true
	rp.mu.Unlock()
	rp.tr.end(id, func(s *span) {
		if !hit {
			s.Name = "vm.new"
		}
	})
	return m
}

func (rp *replayer) release(op, parent int, m *vm.Machine) {
	id := rp.tr.begin(op, parent, "vm.release")
	rp.pool.Put(m)
	rp.tr.end(id, nil)
}

// run executes m under a span labeled "measured" for an op's own runs,
// or with the core a twin ran on. ctx is the session context (nil for
// grid and twin runs, which call Run).
func (rp *replayer) run(op, parent int, name string, m *vm.Machine, ctx context.Context, label string) (int64, error) {
	id := rp.tr.begin(op, parent, name)
	var v int64
	var err error
	if ctx != nil {
		v, err = m.RunContext(ctx)
	} else {
		v, err = m.Run()
	}
	n := m.Stats().Instructions
	rp.tr.end(id, func(s *span) {
		s.Count = n
		s.Label = label
	})
	return v, err
}

// flush is the per-cell observation work the harness does when
// Config.Metrics and CellDone are set: fold the cell's profile into the
// registry and export RNG health. It returns the run's RNG draws.
func (rp *replayer) flush(op, parent int, cell string, prof *vm.Profile, src rng.Source) float64 {
	id := rp.tr.begin(op, parent, "telemetry")
	rows := prof.Rows()
	counters := prof.Counters()
	c := rp.reg.Cell(cell)
	c.AddRows(rows)
	for name, n := range counters {
		c.AddCounter(name, n)
	}
	if h, ok := rng.HealthOf(src); ok {
		c.SetRNG(map[string]uint64{"draws": h.Draws, "retries": h.Retries,
			"fallbacks": h.Fallbacks, "reseeds": h.Reseeds, "failures": h.Failures})
	}
	rp.tr.end(id, nil)
	var draws float64
	for _, r := range rows {
		if r.Kind == "cat" && r.Name == "prologue.draw" {
			draws += float64(r.Count)
		}
	}
	return draws
}

// addDraws attributes a run's RNG draws, and their cost at the rng
// probe's per-draw time, to an op.
func (rp *replayer) addDraws(op int, draws float64, engine string) {
	scheme := strings.TrimPrefix(engine, "smokestack+")
	ns, ok := rp.drawNS[scheme]
	if !ok {
		ns = rp.drawNS["pseudo"] // stackato draws pads from a pseudo stream
	}
	rp.mu.Lock()
	rp.draws[op] += draws
	rp.drawTime[op] += draws * ns / 1e6
	rp.mu.Unlock()
}

// twinEvery spaces the runs that get a profiled and a dormant twin
// (every fourth run).
const twinEvery = 4

func (rp *replayer) twinDue() bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.runs++
	return rp.runs%twinEvery == 0
}

// twin queues reruns of a cell's run. A paired twin reruns it once on
// each VM core, dormant then profiled, for the vm.minstr metrics: both
// halves run alone after the ops, so the two throughputs compare the same
// runs under the same load. countDraws (grid, whose own runs are dormant)
// adds a profiled rerun's RNG draws to op; it costs no extra run when the
// twin is paired. Twins are probes: runTwins runs them after the ops,
// outside every op span.
func (rp *replayer) twin(op int, p *replayProg, eng layout.Engine, opts *vm.Options, engine, cell string, paired, countDraws bool) {
	if !paired && !countDraws {
		return
	}
	rerun := func(label string, prof *vm.Profile) {
		t := *opts
		t.Prof = prof
		m := rp.machine(-1, 0, p, eng, &t)
		_, _ = rp.run(-1, 0, "vm.run.twin", m, nil, label) // outcome checked on the measured run
		rp.release(-1, 0, m)
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.twins = append(rp.twins, func() {
		label := "draws"
		if paired {
			rerun("dormant", nil)
			label = "profiled"
		}
		prof := vm.NewProfile()
		rerun(label, prof)
		draws := rp.flush(-1, 0, cell, prof, nil)
		if countDraws {
			rp.addDraws(op, draws, engine)
		}
	})
}

func (rp *replayer) runTwins() {
	rp.mu.Lock()
	twins := rp.twins
	rp.twins = nil
	rp.mu.Unlock()
	for _, t := range twins {
		t()
	}
}

// encode appends each record's NDJSON line to buf, one span per record.
func (rp *replayer) encode(op, parent int, recs []exp.Record, buf *bytes.Buffer) {
	for _, r := range recs {
		id := rp.tr.begin(op, parent, "exp.encode")
		if err := exp.WriteJSON(buf, []exp.Record{r}); err != nil {
			rp.wrongf("encode: %v", err)
		}
		rp.tr.end(id, nil)
	}
}

// session replays one server session as harness.SessionCells runs it,
// checks its records against the streamed ones, then runs its twins.
func (rp *replayer) session(o *op) {
	defer rp.runTwins()
	var stream bytes.Buffer
	defer rp.checkStreamed(o.idx, &stream)
	root := rp.tr.begin(o.idx, 0, "op")
	defer rp.tr.end(root, nil)
	var p *replayProg
	if o.spec.Workload != "" {
		w, ok := workload.ByName(o.spec.Workload)
		if !ok {
			rp.wrongf("op %d: unknown workload %q", o.idx, o.spec.Workload)
			return
		}
		p = &replayProg{prog: w.Prog(), want: w.Want, plans: rp.shared}
	} else {
		rp.mu.Lock()
		p = rp.progs[o.spec.Source]
		rp.mu.Unlock()
		if p == nil {
			var err error
			if p, err = rp.newProgram(o.idx, root, "session.c", o.spec.Source); err != nil {
				rp.wrongf("op %d: %v", o.idx, err)
				return
			}
			p.want = o.want
			rp.mu.Lock()
			rp.progs[o.spec.Source] = p
			rp.mu.Unlock()
		}
	}
	for _, engine := range o.spec.Engines {
		for run := 0; run < max(o.spec.Runs, 1); run++ {
			rp.sessionCell(o, root, p, engine, run, &stream)
		}
	}
}

// sessionCell mirrors harness.sessionCell with the server's observation
// on (a cycle-attribution profile per cell, flushed after the run).
func (rp *replayer) sessionCell(o *op, parent int, p *replayProg, engine string, run int, stream *bytes.Buffer) {
	name := engine + "/run" + strconv.Itoa(run)
	seed := hashSeed(o.spec.Seed, "session", engine, strconv.Itoa(run))
	eng, src, err := rp.engine(o.idx, parent, engine, p, seed, harness.SaltPerf)
	if err != nil {
		rp.wrongf("op %d %s: %v", o.idx, name, err)
		return
	}
	opts := &vm.Options{
		TRNG:      rng.SeededTRNG(seed ^ 0xabcdef),
		StepLimit: sessionStepLimit,
		CodeCache: p.code,
		Prof:      vm.NewProfile(),
	}
	if src != nil {
		opts.EntropyCheck = func() error { return rng.SourceErr(src) }
	}
	m := rp.machine(o.idx, parent, p, eng, opts)
	v, runErr := rp.run(o.idx, parent, "vm.run", m, context.Background(), "measured")
	stats := m.Stats()
	rp.release(o.idx, parent, m)
	rp.addDraws(o.idx, rp.flush(o.idx, parent, "session/"+name, opts.Prof, src), engine)
	rp.twin(o.idx, p, eng, opts, engine, "session/"+name, rp.twinDue(), false)
	want := p.want
	if want == 0 {
		want = o.want
	}
	if runErr != nil || v != want {
		rp.wrongf("op %d %s: value %d, want %d (%v)", o.idx, name, v, want, runErr)
	}
	rec := exp.Record{
		Experiment: "session", Cell: name,
		Labels: map[string]string{"engine": engine, "run": strconv.Itoa(run)},
		Values: map[string]float64{"value": float64(v), "cycles": stats.Cycles,
			"instructions": float64(stats.Instructions), "calls": float64(stats.Calls)},
	}
	if o.spec.Workload != "" {
		rec.Labels["workload"] = o.spec.Workload
	}
	rp.encode(o.idx, parent, []exp.Record{rec}, stream)
}

// checkStreamed compares a replayed session's encoded records with the
// bytes the server streamed for the same op, when the untraced half ran
// that op.
func (rp *replayer) checkStreamed(op int, replayed *bytes.Buffer) {
	want, ok := rp.streamed[op]
	if !ok {
		return
	}
	rp.compared++
	if !bytes.Equal(replayed.Bytes(), want) {
		rp.wrongf("op %d: replayed records differ from the streamed ones:\nreplay %sserver %s", op, replayed.Bytes(), want)
	}
}

// gridReplay runs one grid pass through the experiment runner with the
// grid's worker count. Fig 3 and attack-campaign cells are replaced by
// replicas that call the layers themselves under spans; the other
// experiments' cells run as they are, so their whole time stays in their
// op span as unattributed.
func (rp *replayer) gridReplay(seed uint64) ([]exp.Record, error) {
	cfg := gridConfig(seed, workers())
	real, err := gridCells(cfg)
	if err != nil {
		return nil, err
	}
	cells := make([]exp.Cell, len(real))
	opOf := map[string]int{}
	for i, c := range real {
		key := c.Experiment + "/" + c.Name
		opOf[key] = i
		cells[i] = c
		if run := rp.replica(i, key, c, seed); run != nil {
			cells[i].Run = run
		}
	}
	runner := cfg.NewRunner()
	runner.Hooks.CellStart = func(c exp.Cell) {
		key := c.Experiment + "/" + c.Name
		id := rp.tr.begin(opOf[key], 0, "op")
		rp.mu.Lock()
		rp.opSpans[key] = id
		rp.mu.Unlock()
	}
	runner.Hooks.CellEnd = func(c exp.Cell, _ []exp.Record, _ time.Duration, attempts int) {
		if attempts == 0 {
			return
		}
		rp.mu.Lock()
		id := rp.opSpans[c.Experiment+"/"+c.Name]
		rp.mu.Unlock()
		rp.tr.end(id, func(s *span) { s.Label = c.Experiment })
	}
	recs := runner.Run(cells)
	rp.runTwins()
	return recs, nil
}

func (rp *replayer) opSpan(key string) int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.opSpans[key]
}

// replica returns the body replacing grid cell c, or nil to run c as is.
func (rp *replayer) replica(op int, key string, c exp.Cell, seed uint64) func() ([]exp.Record, error) {
	switch c.Experiment {
	case "fig3":
		w, ok := workload.ByName(c.Name)
		if !ok {
			return nil
		}
		return func() ([]exp.Record, error) { return rp.fig3Cell(op, key, seed, w) }
	case "pentest", "cve", "bypass":
		cut := strings.LastIndex(c.Name, "/")
		if cut < 0 {
			return nil
		}
		scen, engName := c.Name[:cut], c.Name[cut+1:]
		matrix := attack.PentestMatrix
		switch c.Experiment {
		case "cve":
			matrix = attack.CVEScenarios
		case "bypass":
			matrix = func() []*attack.Scenario { return []*attack.Scenario{attack.LibrelpScenario()} }
		}
		for i, s := range matrix() {
			if s.Name != scen {
				continue
			}
			cellSeed := hashSeed(seed, scen, engName)
			if c.Experiment == "bypass" {
				cellSeed = hashSeed(seed, "bypass", engName)
			}
			return func() ([]exp.Record, error) {
				return rp.campaignCell(op, key, c.Experiment, matrix, i, engName, cellSeed)
			}
		}
	}
	return nil
}

// fig3Cell mirrors the harness's Fig 3 cell: the fixed baseline and the
// four Smokestack schemes on one workload, dormant, on pooled Machines.
// Each run gets a profiled twin outside the op for the run's RNG draws.
func (rp *replayer) fig3Cell(op int, key string, seed uint64, w *workload.Workload) ([]exp.Record, error) {
	parent := rp.opSpan(key)
	p := &replayProg{prog: w.Prog(), want: w.Want, plans: rp.shared}
	runOnce := func(engName string, engSeed, runSeed uint64, amp float64) (float64, error) {
		eng, _, err := rp.engine(op, parent, engName, p, engSeed, harness.SaltPerf)
		if err != nil {
			return 0, err
		}
		opts := &vm.Options{TRNG: rng.SeededTRNG(runSeed), JitterAmp: amp, JitterSeed: runSeed ^ 0xabcdef, StepLimit: 2_000_000_000}
		m := rp.machine(op, parent, p, eng, opts)
		v, err := rp.run(op, parent, "vm.run", m, nil, "measured")
		cycles := m.Stats().Cycles
		rp.release(op, parent, m)
		if err == nil && v != w.Want {
			err = fmt.Errorf("%s under %s: checksum %d, want %d", w.Name, engName, v, w.Want)
		}
		rp.twin(op, p, eng, opts, engName, "fig3/"+w.Name, rp.twinDue(), true)
		return cycles, err
	}
	base, err := runOnce("fixed", hashSeed(seed, w.Name, "base"), hashSeed(seed, w.Name, "base"), 0)
	if err != nil {
		rp.wrongf("fig3 %v", err)
		return nil, err
	}
	kind := "cpu"
	if w.Kind == workload.IO {
		kind = "io"
	}
	rec := exp.Record{Experiment: "fig3", Cell: w.Name, Labels: map[string]string{"workload": w.Name, "kind": kind},
		Values: map[string]float64{"baseline_cycles": base}}
	for _, scheme := range harness.Schemes {
		c, err := runOnce("smokestack+"+scheme, hashSeed(seed, w.Name, scheme), hashSeed(seed, w.Name, scheme, "run"), 0.026)
		if err != nil {
			rp.wrongf("fig3 %v", err)
			return nil, err
		}
		rec.Values["overhead_pct/"+scheme] = (c - base) / base * 100
	}
	return []exp.Record{rec}, nil
}

// campaignCell mirrors the harness's attack campaign cell: Scenario.Run's
// loop of up to harness.AttackBudget attempts on a pooled deployment,
// stopping at the first success, with a span around each attempt.
func (rp *replayer) campaignCell(op int, key, experiment string, matrix func() []*attack.Scenario, i int, engName string, seed uint64) ([]exp.Record, error) {
	parent := rp.opSpan(key)
	s := matrix()[i]
	eng, _, err := rp.engine(op, parent, engName, &replayProg{prog: s.Program.Prog, plans: rp.shared}, seed, harness.SaltSecurity)
	if err != nil {
		return nil, err
	}
	d := &attack.Deployment{Program: s.Program, Engine: eng, TRNG: rng.SeededTRNG(seed + 1), Pool: rp.pool}
	res := attack.Result{Scenario: s.Name, Engine: eng.Name()}
attempts:
	for a := 1; a <= harness.AttackBudget; a++ {
		res.Attempts = a
		id := rp.tr.begin(op, parent, "attack.attempt")
		out, err := s.Attempt(d)
		rp.tr.end(id, nil)
		if err != nil {
			res.Err = err
			break
		}
		switch out {
		case attack.Success:
			res.Successes++
			res.FirstSuccess = a
			break attempts
		case attack.Detected:
			res.Detected++
		case attack.Crashed:
			res.Crashed++
		default:
			res.Failed++
		}
	}
	rec := exp.Record{
		Experiment: experiment, Cell: res.Scenario + "/" + res.Engine,
		Labels: map[string]string{"scenario": res.Scenario, "engine": res.Engine},
		Values: map[string]float64{"attempts": float64(res.Attempts), "successes": float64(res.Successes),
			"detected": float64(res.Detected), "crashed": float64(res.Crashed), "failed": float64(res.Failed),
			"first_success": float64(res.FirstSuccess)},
	}
	if res.Err != nil {
		rec.Err = res.Err.Error()
	}
	return []exp.Record{rec}, nil
}

// rngProbe times Next on each Smokestack scheme's source: the median
// over batches of the cost per draw, in ns.
func rngProbe() map[string]float64 {
	out := map[string]float64{}
	const batch, batches = 1 << 16, 7
	for _, scheme := range harness.Schemes {
		src, err := rng.NewByName(scheme, 1, rng.SeededTRNG(1))
		if err != nil {
			continue
		}
		var per []float64
		var sink uint64
		for b := 0; b < batches; b++ {
			start := time.Now()
			for i := 0; i < batch; i++ {
				sink += src.Next()
			}
			per = append(per, float64(time.Since(start).Nanoseconds())/batch)
		}
		_ = sink
		out[scheme] = median(per)
	}
	return out
}

// programProbe puts every registered workload's source through the cold
// program path, outside any op: the front end, lowering, mining and
// construction costs a workload's set-up pays once.
func (rp *replayer) programProbe() {
	for _, w := range workload.All() {
		if _, err := rp.newProgram(-1, 0, w.Name+".c", w.Source); err != nil {
			rp.wrongf("%s: %v", w.Name, err)
		}
	}
}

// attackProbe times Scenario.Attempt on pooled deployments over the
// pentest and CVE scenarios, outside any op.
func (rp *replayer) attackProbe() {
	for _, s := range append(attack.PentestMatrix(), attack.CVEScenarios()...) {
		for _, engName := range []string{"fixed", "smokestack+aes-10"} {
			seed := hashSeed(7, s.Name, engName)
			eng, _, err := rp.engine(-1, 0, engName, &replayProg{prog: s.Program.Prog, plans: rp.shared}, seed, harness.SaltSecurity)
			if err != nil {
				rp.wrongf("attack probe %s/%s: %v", s.Name, engName, err)
				continue
			}
			d := &attack.Deployment{Program: s.Program, Engine: eng, TRNG: rng.SeededTRNG(seed + 1), Pool: rp.pool}
			for a := 0; a < 2; a++ {
				id := rp.tr.begin(-1, 0, "attack.attempt")
				_, err := s.Attempt(d)
				rp.tr.end(id, nil)
				if err != nil {
					rp.wrongf("attack probe %s/%s: %v", s.Name, engName, err)
					break
				}
			}
		}
	}
}

// gridCellProbe times the first cell of every grid experiment through a
// one-worker runner: the experiment layer's cell cost for workloads that
// run no grid.
func gridCellProbe(seed uint64) (map[string][]float64, error) {
	cfg := gridConfig(seed, 1)
	out := map[string][]float64{}
	for _, name := range gridExperiments {
		e, _ := harness.ExperimentByName(name)
		cells := e.Cells(cfg)
		if len(cells) == 0 {
			continue
		}
		r := cfg.NewRunner()
		r.Hooks.CellEnd = func(c exp.Cell, recs []exp.Record, wall time.Duration, _ int) {
			out[name] = append(out[name], ms(wall))
		}
		recs := r.Run(cells[:1])
		if n, first := gridFailures(recs); n > 0 {
			return nil, fmt.Errorf("grid cell probe: %s", first)
		}
	}
	return out, nil
}
