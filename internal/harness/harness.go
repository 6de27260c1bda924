// Package harness runs the paper's experiments end-to-end: Fig 3
// (performance overhead), Fig 4 (memory overhead), Table I (randomness
// source rates), the synthetic penetration tests and real-vulnerability
// attacks of §V-C, plus the ablations called out in DESIGN.md (RNG
// disclosure resistance, P-BOX optimizations).
//
// Every experiment is decomposed into independent exp.Cells and executed
// through an exp.Runner worker pool; each cell derives all of its
// randomness from hashSeed, so parallel runs are byte-identical to
// serial runs. Results are typed exp.Records; the paper-style table
// renderers (and exp.WriteJSON) layer on top. Smokestack build work is
// deduplicated across cells and workloads by a shared plan cache and the
// cross-program P-BOX table cache (the paper's §III-E table sharing,
// applied to the whole experiment grid).
package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/pbox"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives every deterministic random stream so runs reproduce.
	Seed uint64
	// Jitter enables the instruction-scheduling perturbation model for the
	// Fig 3 run (the paper's observed register-pressure speedups/slowdowns).
	Jitter bool
	// Out receives the printed tables (defaults to io.Discard if nil; the
	// CLI passes os.Stdout).
	Out io.Writer
	// Parallel bounds the experiment cell worker pool (0 = GOMAXPROCS,
	// 1 = serial). Results are identical at every setting.
	Parallel int
	// Engines, when non-empty, replaces the default defense lineup of the
	// lineup-driven experiments (pentest, bypass, cve, defenses). Names
	// must be registered (see EngineNames); nil keeps the historical
	// lineups, so recorded goldens are unaffected.
	Engines []string
	// Metrics, when non-nil, collects counters, gauges, histograms and
	// per-cell cycle-attribution profiles (telemetry.Registry snapshot).
	// Nil keeps every hot path dormant: results are bit-identical.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives the structured JSONL event stream
	// (cell lifecycle, compiles, VM runs, fault-injection firings,
	// watchdog cancellations, rng degradation-ladder transitions).
	Trace *telemetry.Tracer
	// TraceID, when set alongside Trace, switches the trace into span
	// mode: events carry trace/span/parent IDs forming a trace root → cell
	// → run tree (telemetry.FoldTrace), and run.end events carry
	// the run's exact cycle-attribution rows. Empty keeps the flat trace
	// byte-identical to earlier versions.
	TraceID string
	// Tenant labels security audit events with the submitting tenant (the
	// service sets it per session; offline runs leave it empty).
	Tenant string
	// CellDone, when non-nil, receives each cell's accumulated
	// cycle-attribution rows and RNG health once the cell's last machine
	// has finished — per-session capture for the flight recorder,
	// independent of the shared Metrics registry. Fires once per cell
	// that runs. rows is a buffer the harness reuses: it is valid only
	// during the call, so a capture keeps what it derives from it.
	CellDone func(cell string, rows []telemetry.Row, rngHealth map[string]uint64)
	// Audit, when non-nil, receives a structured security event for every
	// defense detection (canary, shadow-stack or guard violation) raised
	// by a session cell. Nil is dormant.
	Audit *telemetry.AuditSink
	// Ctx, when non-nil, sheds cells that have not started once it is
	// cancelled (exp.Runner.Ctx); running cells are supervised separately,
	// by VM watchdogs.
	Ctx context.Context
	// NoPool disables the shared Machine pool: every run constructs a
	// fresh Machine instead of recycling one via Reset. Pooled and
	// unpooled grids are record-identical (the differential tests pin
	// this); the switch exists for that differential and for debugging.
	NoPool bool
}

// lineup resolves the engine list for a lineup-driven experiment: the
// config override when set, else the experiment's default.
func (c Config) lineup(def []string) []string {
	if len(c.Engines) > 0 {
		return c.Engines
	}
	return def
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) runner() *exp.Runner {
	return &exp.Runner{Workers: c.Parallel, Ctx: c.Ctx, Hooks: c.hooks()}
}

// Schemes lists the four Smokestack RNG variants in Fig 3 order.
var Schemes = []string{"pseudo", "aes-1", "aes-10", "rdrand"}

// hashSeed derives a per-(workload, scheme) seed.
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

// ---------------------------------------------------------------------------
// Shared build caches
//
// Plans (P-BOX + entries + pricing) are immutable and expensive; engines
// (plan + RNG stream) are mutable and cheap. Cells therefore construct a
// fresh engine per cell but share plans process-wide, and beneath the
// plans every distinct frame shape's table is built exactly once across
// all workloads (pbox.Cache, keyed by the canonical allocation multiset
// and the table-shaping config fields). Cached artifacts are pure
// functions of their keys, so caching can never change a result — only
// the wall clock.

var (
	tableCache  = pbox.NewCache()
	planCache   = layout.NewPlanCache()
	machinePool = vm.NewMachinePool(0)
)

// machine constructs or recycles the Machine for one experiment run: a
// pooled Get (Reset instead of rebuild) unless the config opts out.
func (c Config) machine(prog *ir.Program, eng layout.Engine, env *vm.Env, opts *vm.Options) *vm.Machine {
	if c.NoPool {
		return vm.New(prog, eng, env, opts)
	}
	return machinePool.Get(prog, eng, env, opts)
}

// release returns a run's Machine to the shared pool once the caller has
// read everything it needs (stats, resident set). Nil-safe, so error
// paths can release unconditionally.
func (c Config) release(m *vm.Machine) {
	if !c.NoPool {
		machinePool.Put(m)
	}
}

// attackPool returns the pool attack Deployments should recycle service
// Machines through (nil when the config opts out — Deployment treats a
// nil pool as construct-per-restart).
func (c Config) attackPool() *vm.MachinePool {
	if c.NoPool {
		return nil
	}
	return machinePool
}

// MachinePoolStats snapshots the shared Machine pool counters (tooling).
func MachinePoolStats() vm.PoolStats { return machinePool.Stats() }

// smokestackPlan returns the shared plan for prog under opts (nil =
// paper defaults), routed through both caches.
func smokestackPlan(prog *ir.Program, opts *layout.SmokestackOptions) *layout.SmokestackPlan {
	return smokestackPlanIn(planCache, prog, opts)
}

// smokestackPlanIn is smokestackPlan with an explicit plan cache: session
// cells for inline tenant programs route through their program's private
// cache so evicting the program releases its plans too. The P-BOX table
// cache stays shared — it keys on canonical frame shapes, not program
// identity.
func smokestackPlanIn(pc *layout.PlanCache, prog *ir.Program, opts *layout.SmokestackOptions) *layout.SmokestackPlan {
	o := layout.SmokestackOptions{PBox: pbox.DefaultConfig(), Guard: true, MaxVLAPad: 256}
	if opts != nil {
		o = *opts
	}
	o.TableCache = tableCache
	return pc.Plan(prog, &o)
}

// BuildCacheStats reports the shared cache hit/miss counters (tooling).
func BuildCacheStats() (planHits, planMisses, tableHits, tableMisses int) {
	planHits, planMisses = planCache.Stats()
	tableHits, tableMisses = tableCache.Stats()
	return
}

// runOnce executes one workload under one engine and returns the machine
// (for stats) after verifying the checksum. o (nil = dormant) attaches the
// cell's cycle-attribution profile and traces the run.
//
// The machine comes from the shared pool (unless cfg.NoPool); the caller
// owns releasing it via cfg.release once its stats are read. Error paths
// release here, so a failed run's Machine serves the next Get of the same
// shape through Reset instead of a rebuild.
func runOnce(cfg Config, w *workload.Workload, eng layout.Engine, seed uint64, jitterAmp float64, o *obs) (*vm.Machine, error) {
	opts := &vm.Options{
		TRNG:       rng.SeededTRNG(seed),
		JitterAmp:  jitterAmp,
		JitterSeed: seed ^ 0xabcdef,
		StepLimit:  2_000_000_000,
		Prof:       o.profile(),
	}
	label := w.Name + "/" + eng.Name()
	o.runStart(label)
	m := cfg.machine(w.Prog(), eng, &vm.Env{}, opts)
	v, err := m.Run()
	o.runEnd(label, m, err)
	if err != nil {
		cfg.release(m)
		return nil, fmt.Errorf("%s under %s: %w", w.Name, eng.Name(), err)
	}
	if w.Want != 0 && v != w.Want {
		cfg.release(m)
		return nil, fmt.Errorf("%s under %s: checksum %d, want %d (instrumentation corrupted results)",
			w.Name, eng.Name(), v, w.Want)
	}
	return m, nil
}

// smokestackEngine builds the Smokestack engine for a scheme name over prog
// (shared plan, fresh RNG stream) — the registry's performance lineage.
func smokestackEngine(scheme string, prog *ir.Program, seed uint64) (*layout.Smokestack, error) {
	eng, err := BuildEngine("smokestack+"+scheme, prog, seed, SaltPerf)
	if err != nil {
		return nil, err
	}
	return eng.(*layout.Smokestack), nil
}

// securityEngine builds a defense engine by registry name — the registry's
// security lineage.
func securityEngine(name string, prog *ir.Program, seed uint64) (layout.Engine, error) {
	return BuildEngine(name, prog, seed, SaltSecurity)
}

// ---------------------------------------------------------------------------
// Experiment registry and the pipeline entry point

// Experiment binds a named figure/table to its cell producer and its
// table renderer. Cells compute; renderers present.
type Experiment struct {
	Name string
	// Cells decomposes the experiment into independent, deterministically
	// seeded units of work.
	Cells func(cfg Config) []exp.Cell
	// Render writes the paper-style table for the experiment's records
	// (records from other experiments are ignored).
	Render func(w io.Writer, recs []exp.Record)
}

// Experiments returns the registry in the canonical presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "table1", Cells: table1Cells, Render: RenderTable1},
		{Name: "fig3", Cells: fig3Cells, Render: RenderFig3},
		{Name: "fig4", Cells: fig4Cells, Render: RenderFig4},
		{Name: "pentest", Cells: pentestCells, Render: RenderPentest},
		{Name: "bypass", Cells: bypassCells, Render: RenderBypass},
		{Name: "cve", Cells: cveCells, Render: RenderCVE},
		{Name: "ablation-rng", Cells: ablationRNGCells, Render: RenderAblationRNG},
		{Name: "ablation-pbox", Cells: ablationPBoxCells, Render: RenderPBoxAblation},
		{Name: "entropy", Cells: entropyCells, Render: RenderEntropyCurve},
		{Name: "faults", Cells: faultsCells, Render: RenderFaults},
		{Name: "defenses", Cells: defensesCells, Render: RenderDefenses},
	}
}

// ExperimentByName looks up a registry entry.
func ExperimentByName(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes the named experiments (none = all, in registry order)
// through one shared worker pool and returns their records in experiment
// then cell order. Failed cells are reported as error records carrying
// their cell identity — one bad cell never aborts a figure. The error
// return covers only unknown experiment names.
func Run(cfg Config, names ...string) ([]exp.Record, error) {
	var exps []Experiment
	if len(names) == 0 {
		exps = Experiments()
	} else {
		for _, n := range names {
			e, ok := ExperimentByName(n)
			if !ok {
				return nil, fmt.Errorf("harness: unknown experiment %q", n)
			}
			exps = append(exps, e)
		}
	}
	defer cfg.registerGauges()()
	// Compile every workload up front with the same parallelism budget so
	// cells measure execution, not compilation.
	workload.Prewarm(cfg.Parallel)
	var cells []exp.Cell
	for _, e := range exps {
		cells = append(cells, e.Cells(cfg)...)
	}
	return cfg.runner().Run(cells), nil
}

// printOne runs a single experiment, renders its table, and surfaces any
// per-cell failures as an aggregate error (after printing, so healthy
// cells still show).
func printOne(cfg Config, name string) error {
	e, _ := ExperimentByName(name)
	recs, err := Run(cfg, name)
	if err != nil {
		return err
	}
	e.Render(cfg.out(), recs)
	return exp.Errors(recs)
}
