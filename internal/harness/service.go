// Service sessions: the shared execution layer behind smokestackd
// (internal/server) and the equivalent offline path. A SessionSpec names a
// program (a registered workload or inline MiniC source), a defense-engine
// lineup and a deterministic seed; SessionCells decomposes it into the
// same kind of deterministically seeded exp.Cells the figure experiments
// use, so a session executed by the live server is byte-identical to the
// same spec run through the offline exp.Runner (the chaos suite pins
// this).
//
// Cache tiering: named workloads route through the process-shared caches
// (vm.DefaultCodeCache, the plan cache, the P-BOX table cache, the Machine
// pool) — the fixed workload set cannot grow them. Inline tenant programs
// are compiled into a bounded FIFO program cache where each entry owns a
// *private* code cache and plan cache; evicting the entry releases every
// compiled artifact with it and retires its code cache in the Machine
// pool, which drops the program's pooled Machines (and any still running,
// when they come back). Hostile tenants submitting endless unique
// programs therefore bound the server's memory at ProgCacheCap compiled
// programs and the pooled Machines of those programs alone.
package harness

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/compile"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workload"
)

// SessionSpec is one service session: a program, an engine lineup, and the
// seed that makes the whole session deterministic. Exactly one of Workload
// (registered name) and Source (inline MiniC) must be set.
type SessionSpec struct {
	// Workload names a registered workload (workload.ByName).
	Workload string
	// Source is an inline MiniC program (compiled via the bounded session
	// program cache).
	Source string
	// Engines is the defense lineup; every name must be registered
	// (ValidEngine). Each engine runs Runs times.
	Engines []string
	// Seed drives every random stream of the session.
	Seed uint64
	// Runs is the per-engine repeat count (<= 0 means 1).
	Runs int
	// StepLimit bounds each run's executed instructions (0 selects the
	// experiment default, 2e9).
	StepLimit uint64
	// Fault, when non-nil, injects the given seeded fault schedule into
	// every run (entropy brownouts, host-call delay/corrupt/fail). Each
	// cell derives its own injector by folding the cell seed into
	// Fault.Seed, so the schedule is deterministic per cell and identical
	// online and offline.
	Fault *faultinject.Plan
}

// UnknownWorkloadError reports a SessionSpec naming no registered
// workload.
type UnknownWorkloadError struct{ Name string }

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("harness: unknown workload %q", e.Name)
}

// sessionStepLimit is the default per-run step budget, matching runOnce.
const sessionStepLimit = 2_000_000_000

// ProgCacheCap bounds the inline-program cache: at most this many distinct
// tenant-submitted sources stay compiled (FIFO eviction). Each entry owns
// its private code/plan caches, so eviction releases the compiled tier
// and the pooled Machines too.
const ProgCacheCap = 64

// sessionProg is one resolved session program: the compiled IR plus the
// cache tier its runs should use (nil caches select the process-shared
// tier — the named-workload path).
type sessionProg struct {
	prog  *ir.Program
	want  int64
	code  *vm.CodeCache
	plans *layout.PlanCache
}

// progCache is the bounded inline-source compilation cache.
var progCache = struct {
	sync.Mutex
	m                       map[string]*sessionProg
	order                   []string // FIFO eviction order
	hits, misses, evictions uint64
}{m: make(map[string]*sessionProg)}

// SessionProgCacheStats reports the inline-program cache counters
// (len, hits, misses, evictions) for the service gauges.
func SessionProgCacheStats() (length int, hits, misses, evictions uint64) {
	progCache.Lock()
	defer progCache.Unlock()
	return len(progCache.m), progCache.hits, progCache.misses, progCache.evictions
}

// sessionProgram resolves the spec's program: a registered workload on the
// shared cache tier, or an inline source compiled into the bounded
// private-tier cache.
func sessionProgram(spec SessionSpec) (*sessionProg, error) {
	hasW, hasS := spec.Workload != "", spec.Source != ""
	if hasW == hasS {
		return nil, errors.New("harness: session needs exactly one of workload and source")
	}
	if hasW {
		w, ok := workload.ByName(spec.Workload)
		if !ok {
			return nil, &UnknownWorkloadError{Name: spec.Workload}
		}
		return &sessionProg{prog: w.Prog(), want: w.Want}, nil
	}
	progCache.Lock()
	if p, ok := progCache.m[spec.Source]; ok {
		progCache.hits++
		progCache.Unlock()
		return p, nil
	}
	progCache.misses++
	progCache.Unlock()
	// Compile outside the lock: hostile sources may be arbitrarily slow to
	// reject and must not serialize every other session on the cache lock.
	prog, err := compile.Compile("session.c", spec.Source)
	if err != nil {
		return nil, fmt.Errorf("harness: session compile: %w", err)
	}
	p := &sessionProg{prog: prog, code: vm.NewCodeCache(), plans: layout.NewPlanCache()}
	progCache.Lock()
	defer progCache.Unlock()
	if q, ok := progCache.m[spec.Source]; ok { // lost a compile race: keep the first
		progCache.hits++
		return q, nil
	}
	for len(progCache.m) >= ProgCacheCap {
		victim := progCache.order[0]
		progCache.order = progCache.order[1:]
		machinePool.Retire(progCache.m[victim].code)
		delete(progCache.m, victim)
		progCache.evictions++
	}
	progCache.m[spec.Source] = p
	progCache.order = append(progCache.order, spec.Source)
	return p, nil
}

// sessionEngine builds the engine for one session run under the registry
// seed rule (performance lineage), optionally wrapping the TRNG with a
// fault injector, and routing Smokestack plans through the program's cache
// tier. Returns the entropy source when the engine has one (health
// counters, exhaustion policy).
func sessionEngine(name string, p *sessionProg, seed uint64, wrap func(rng.TRNG) rng.TRNG) (layout.Engine, rng.Source, error) {
	trng := rng.TRNG(rng.SeededTRNG(seed ^ SaltPerf))
	if wrap != nil {
		trng = wrap(trng)
	}
	scheme, smoke := strings.CutPrefix(name, "smokestack+")
	if name == "smokestack" {
		scheme, smoke = "aes-10", true
	}
	if smoke {
		src, err := rng.NewByName(scheme, seed, trng)
		if err != nil {
			return nil, nil, err
		}
		pc := p.plans
		if pc == nil {
			pc = planCache
		}
		return smokestackPlanIn(pc, p.prog, nil).NewEngine(src), src, nil
	}
	eng, err := layout.NewByName(name, p.prog, seed, trng)
	return eng, nil, err
}

// SessionCells decomposes a session into deterministically seeded cells,
// one per (engine, run). Validation errors (unknown engine/workload,
// compile failure, empty lineup) surface here, before any cell runs — the
// server maps them to typed 4xx responses ahead of streaming. The cells
// observe cfg.Ctx through the VM watchdog, so a per-session deadline or a
// client disconnect cancels in-flight runs at the next supervision
// boundary.
func SessionCells(cfg Config, spec SessionSpec) ([]exp.Cell, error) {
	if len(spec.Engines) == 0 {
		return nil, errors.New("harness: session names no engines")
	}
	for _, e := range spec.Engines {
		if !ValidEngine(e) {
			return nil, UnknownEngineError(e)
		}
	}
	runs := spec.Runs
	if runs <= 0 {
		runs = 1
	}
	p, err := sessionProgram(spec)
	if err != nil {
		return nil, err
	}
	if cfg.Trace != nil && cfg.TraceID != "" {
		// Inline programs compile into per-program private code caches, so
		// the global OnCompile mirror never sees them; a span-mode session
		// records its compile phase explicitly instead.
		f := map[string]any{"funcs": len(p.prog.Funcs)}
		if spec.Workload != "" {
			f["workload"] = spec.Workload
		}
		cfg.Trace.SpanEvent("compile", "", telemetry.NewSpan(cfg.TraceID).Child("compile"), f)
	}
	var cells []exp.Cell
	for _, engine := range spec.Engines {
		for run := 0; run < runs; run++ {
			engine, run := engine, run
			name := engine + "/run" + strconv.Itoa(run)
			cells = append(cells, exp.Cell{
				Experiment: "session",
				Name:       name,
				Run:        func() ([]exp.Record, error) { return sessionCell(cfg, spec, p, engine, run) },
			})
		}
	}
	return cells, nil
}

// sessionCell executes one (engine, run) point: build the engine from the
// cell seed, run the program once through the pooled Machine under the
// session context's watchdog, and emit one record with the modeled
// quantities. Failures classify: watchdog cancellations as "canceled",
// anything under an injected fault schedule as "injected"; everything else
// is a genuine, unclassified failure.
func sessionCell(cfg Config, spec SessionSpec, p *sessionProg, engine string, run int) ([]exp.Record, error) {
	name := engine + "/run" + strconv.Itoa(run)
	o := cfg.obs("session", name)
	defer o.done()
	seed := hashSeed(spec.Seed, "session", engine, strconv.Itoa(run))

	var inj *faultinject.Injector
	var wrap func(rng.TRNG) rng.TRNG
	if spec.Fault != nil {
		plan := *spec.Fault
		plan.Seed ^= seed
		inj = faultinject.New(plan)
		wrap = inj.WrapTRNG
		o.watchFaults(inj)
	}
	eng, src, err := sessionEngine(engine, p, seed, wrap)
	if err != nil {
		if spec.Fault != nil {
			// Construction died on the injected schedule (e.g. a blackout
			// starves AES seeding): classified, expected degradation.
			return nil, &faultinject.InjectedError{Err: err}
		}
		return nil, err
	}
	stepLimit := spec.StepLimit
	if stepLimit == 0 {
		stepLimit = sessionStepLimit
	}
	machineTRNG := rng.TRNG(rng.SeededTRNG(seed ^ 0xabcdef))
	if wrap != nil {
		machineTRNG = wrap(machineTRNG)
	}
	opts := &vm.Options{
		TRNG:      machineTRNG,
		StepLimit: stepLimit,
		CodeCache: p.code,
		Prof:      o.profile(),
	}
	if inj != nil {
		opts.HostHook = inj
	}
	if src != nil {
		opts.EntropyCheck = func() error { return rng.SourceErr(src) }
		o.watchRNG(src)
	}
	o.runStart(name)
	m := cfg.machine(p.prog, eng, &vm.Env{}, opts)
	v, runErr := m.RunContext(cfg.Ctx)
	o.runEnd(name, m, runErr)
	stats := m.Stats()
	cfg.release(m)
	o.rngHealth(src)

	if runErr == nil && p.want != 0 && v != p.want {
		runErr = fmt.Errorf("%s under %s: checksum %d, want %d (instrumentation corrupted results)",
			spec.Workload, engine, v, p.want)
	}
	cfg.auditDetection(name, engine, seed, runErr)
	rec := exp.Record{
		Experiment: "session",
		Cell:       name,
		Labels:     map[string]string{"engine": engine, "run": strconv.Itoa(run)},
		Values: map[string]float64{
			"value":        float64(v),
			"cycles":       stats.Cycles,
			"instructions": float64(stats.Instructions),
			"calls":        float64(stats.Calls),
		},
	}
	if spec.Workload != "" {
		rec.Labels["workload"] = spec.Workload
	}
	if runErr != nil {
		var c *vm.Canceled
		if errors.As(runErr, &c) {
			return []exp.Record{rec}, &exp.CanceledError{Err: runErr}
		}
		if spec.Fault != nil {
			// Expected casualty of the requested fault schedule: keep the
			// partial record, classify the failure as injected.
			return []exp.Record{rec}, &faultinject.InjectedError{Err: runErr}
		}
		return []exp.Record{rec}, runErr
	}
	return []exp.Record{rec}, nil
}

// NewRunner exposes the experiment runner the figures use (same retry
// policy and backoff shape) so the service executes sessions through the
// exact Runner configuration the offline path uses — the byte-identity
// guarantee between the two is a differential over this shared
// construction.
func (c Config) NewRunner() *exp.Runner { return c.runner() }

// RunSession is the offline reference path: the same cells the server
// would run for spec, executed through the same Runner construction. The
// chaos suite diffs server-streamed bytes against exp.WriteJSON of these
// records.
func RunSession(cfg Config, spec SessionSpec) ([]exp.Record, error) {
	cells, err := SessionCells(cfg, spec)
	if err != nil {
		return nil, err
	}
	return cfg.runner().Run(cells), nil
}

// DrainMachinePool releases every Machine retained by the shared pool —
// the service's idle-memory bound: a quiet server keeps compiled programs
// but not their 8 MiB stack segments.
func DrainMachinePool() { machinePool.Drain() }

// RegisterGauges points a registry at the shared cache/pool tier (the
// same gauges the experiment pipeline registers) plus the session
// program-cache counters. The service calls this once at startup so
// /metrics exposes the build-cache and pool state live.
func RegisterGauges(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	Config{Metrics: reg}.registerGauges()
	reg.SetGauge("harness.progcache.len", func() float64 {
		n, _, _, _ := SessionProgCacheStats()
		return float64(n)
	})
	reg.SetGauge("harness.progcache.hits", func() float64 {
		_, h, _, _ := SessionProgCacheStats()
		return float64(h)
	})
	reg.SetGauge("harness.progcache.misses", func() float64 {
		_, _, m, _ := SessionProgCacheStats()
		return float64(m)
	})
	reg.SetGauge("harness.progcache.evictions", func() float64 {
		_, _, _, e := SessionProgCacheStats()
		return float64(e)
	})
}
