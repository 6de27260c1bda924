// The cross-defense matrix: every registered defense engine evaluated on
// three axes at once — modeled cycle overhead over the uninstrumented
// baseline, measured per-run/per-invocation layout entropy, and survival
// of the full attack corpus (synthetic pentest matrix + the real-CVE
// reproductions). This is the "defense zoo" experiment: the paper's
// Smokestack-vs-prior-schemes comparison generalized to any engine the
// registry knows, including the CleanStack / shadow-stack / Stackato
// rivals.

package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/attack"
	"repro/internal/attack/corpus"
	"repro/internal/exp"
	"repro/internal/layout"
	"repro/internal/workload"
)

// defenseLineup is the default cross-defense matrix lineup: the five
// historical engines plus the defense zoo. Override with Config.Engines.
var defenseLineup = []string{
	"fixed", "staticrand", "padding", "baserand", "smokestack+aes-10",
	"cleanstack", "shadowstack", "stackato",
}

// entropyDraws is the per-engine sample budget of the entropy cells: 64
// (run, invocation) layout draws. Measured bits saturate at log2(64) = 6 —
// enough to separate "none", "per-run only" and "per-invocation" regimes.
const entropyDraws = 64

// overheadWorkload is the workload of the overhead column: perlbench is
// the call-heaviest workload, so per-call instrumentation (prologue draw,
// canary/shadow traffic, unsafe-stack rebase) is maximally visible.
const overheadWorkload = "perlbench"

// fullAttackCorpus is the survival column's scenario set: the synthetic
// pentest matrix plus the real-vulnerability reproductions.
func fullAttackCorpus() []*attack.Scenario {
	return append(attack.PentestMatrix(), attack.CVEScenarios()...)
}

// defensesCells builds the matrix cells: one overhead and one entropy cell
// per engine, plus the full attack campaign grid.
func defensesCells(cfg Config) []exp.Cell {
	engines := cfg.lineup(defenseLineup)
	var cells []exp.Cell
	for _, name := range engines {
		name := name
		cells = append(cells, exp.Cell{
			Experiment: "defenses",
			Name:       "overhead/" + name,
			Run:        func() ([]exp.Record, error) { return overheadCell(cfg, name) },
		}, exp.Cell{
			Experiment: "defenses",
			Name:       "entropy/" + name,
			Run:        func() ([]exp.Record, error) { return defenseEntropyCell(cfg, name) },
		})
	}
	cells = append(cells, campaignCells(cfg, "defenses", engines, fullAttackCorpus,
		func(s *attack.Scenario, engName string) []string {
			return []string{"defenses", s.Name, engName}
		})...)
	return cells
}

// overheadCell measures one engine's cycle overhead over the fixed
// baseline on the overhead workload. Jitter stays off so the column
// isolates modeled instrumentation cost.
func overheadCell(cfg Config, name string) ([]exp.Record, error) {
	w, ok := workload.ByName(overheadWorkload)
	if !ok {
		return nil, fmt.Errorf("defenses: no workload %s", overheadWorkload)
	}
	o := cfg.obs("defenses", "overhead/"+name)
	defer o.done()
	seed := hashSeed(cfg.Seed, "defenses", "overhead", name)
	base, err := runOnce(cfg, w, layout.NewFixed(), seed, 0, o)
	if err != nil {
		return nil, err
	}
	eng, err := securityEngine(name, w.Prog(), seed)
	if err != nil {
		return nil, err
	}
	m, err := runOnce(cfg, w, eng, seed, 0, o)
	if err != nil {
		return nil, err
	}
	baseline, cycles := base.Stats().Cycles, m.Stats().Cycles
	cfg.release(base)
	cfg.release(m)
	return []exp.Record{{
		Experiment: "defenses",
		Cell:       "overhead/" + name,
		Labels:     map[string]string{"kind": "overhead", "engine": name, "workload": overheadWorkload},
		Values: map[string]float64{
			"baseline_cycles": baseline,
			"cycles":          cycles,
			"overhead_pct":    (cycles - baseline) / baseline * 100,
		},
	}}, nil
}

// defenseEntropyCell measures one engine's layout entropy: entropyDraws (NewRun,
// Layout) samples of the corpus dispatcher's frame, counting distinct
// observable layout vectors — stack bias, unsafe-stack bias, every alloca
// offset, every integrity slot, and the frame sizes. Bits are log2 of the
// distinct count: 0 for compile-time-fixed layouts, per-run bits for
// rebasing schemes, per-invocation bits for Smokestack/Stackato.
func defenseEntropyCell(cfg Config, name string) ([]exp.Record, error) {
	p := corpus.Listing1()
	fn, ok := p.Prog.FuncByName(p.VulnFunc)
	if !ok {
		return nil, fmt.Errorf("defenses: corpus has no %s", p.VulnFunc)
	}
	seed := hashSeed(cfg.Seed, "defenses", "entropy", name)
	eng, err := securityEngine(name, p.Prog, seed)
	if err != nil {
		return nil, err
	}
	ds, _ := eng.(layout.DualStacker)
	seen := make(map[string]bool, entropyDraws)
	var sb strings.Builder
	// Each draw overwrites buf; seen keeps its own rendering of the layout.
	buf := make([]int64, len(fn.Allocas)+1)
	for i := 0; i < entropyDraws; i++ {
		eng.NewRun()
		fl := eng.Layout(fn, buf)
		sb.Reset()
		fmt.Fprintf(&sb, "b%d|", eng.StackBias())
		if ds != nil {
			fmt.Fprintf(&sb, "u%d|", ds.UnsafeBias())
		}
		fmt.Fprintf(&sb, "%v|%d|%d|%v", fl.Offsets, fl.Size, fl.UnsafeSize, fl.SlotsView())
		seen[sb.String()] = true
	}
	return []exp.Record{{
		Experiment: "defenses",
		Cell:       "entropy/" + name,
		Labels:     map[string]string{"kind": "entropy", "engine": name, "function": p.VulnFunc},
		Values: map[string]float64{
			"draws":    entropyDraws,
			"distinct": float64(len(seen)),
			"bits":     math.Log2(float64(len(seen))),
		},
	}}, nil
}

// defenseRow aggregates one engine's matrix row.
type defenseRow struct {
	engine   string
	overhead float64
	bits     float64
	stopped  int
	attacks  int
	bypassed []string
}

// defenseRows folds defenses records into per-engine rows, preserving
// first-appearance (lineup) order.
func defenseRows(recs []exp.Record) []*defenseRow {
	byEngine := make(map[string]*defenseRow)
	var order []string
	row := func(engine string) *defenseRow {
		r, ok := byEngine[engine]
		if !ok {
			r = &defenseRow{engine: engine, overhead: math.NaN(), bits: math.NaN()}
			byEngine[engine] = r
			order = append(order, engine)
		}
		return r
	}
	for _, r := range exp.Filter(recs, "defenses") {
		eng := r.Label("engine")
		if eng == "" || r.Err != "" {
			continue
		}
		switch r.Label("kind") {
		case "overhead":
			row(eng).overhead = r.Value("overhead_pct")
		case "entropy":
			row(eng).bits = r.Value("bits")
		default: // attack campaign record
			d := row(eng)
			d.attacks++
			if r.Value("successes") == 0 {
				d.stopped++
			} else {
				d.bypassed = append(d.bypassed, r.Label("scenario"))
			}
		}
	}
	rows := make([]*defenseRow, 0, len(order))
	for _, eng := range order {
		rows = append(rows, byEngine[eng])
	}
	return rows
}

// RenderDefenses writes the cross-defense matrix.
func RenderDefenses(w io.Writer, recs []exp.Record) {
	rows := defenseRows(recs)
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, "Cross-defense matrix (defense zoo)")
	fmt.Fprintf(w, "overhead: %s cycles vs fixed; entropy: distinct layouts over %d draws (saturates at %.0f bits);\n",
		overheadWorkload, entropyDraws, math.Log2(entropyDraws))
	fmt.Fprintf(w, "survival: attack corpus stopped/total, budget %d attempts per scenario\n", AttackBudget)
	fmt.Fprintf(w, "%-22s %10s %14s %10s  %s\n", "engine", "overhead%", "entropy(bits)", "stopped", "bypassed-by")
	for _, r := range rows {
		bypassed := "-"
		if len(r.bypassed) > 0 {
			sort.Strings(r.bypassed)
			bypassed = strings.Join(r.bypassed, ",")
		}
		fmt.Fprintf(w, "%-22s %+10.2f %14.1f %7d/%-2d  %s\n",
			r.engine, r.overhead, r.bits, r.stopped, r.attacks, bypassed)
	}
	if err := exp.Errors(exp.Filter(recs, "defenses")); err != nil {
		fmt.Fprintf(w, "errors: %v\n", err)
	}
}

// PrintDefenses runs the cross-defense matrix and renders it.
func PrintDefenses(cfg Config) error { return printOne(cfg, "defenses") }
