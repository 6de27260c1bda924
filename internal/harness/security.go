// Experiments E4-E7: the security evaluation — synthetic penetration tests
// (§V-C), the prior-scheme bypass PoC (§II-C), the real-vulnerability
// attacks (§V-C), and the RNG disclosure-resistance ablation.

package harness

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/attack"
	"repro/internal/attack/corpus"
	"repro/internal/exp"
	"repro/internal/rng"
)

// securityEngines is the defense lineup every scenario is thrown against.
var securityEngines = []string{"fixed", "padding", "baserand", "staticrand", "smokestack+aes-10"}

// bypassEngines is the §II-C presentation order.
var bypassEngines = []string{"fixed", "staticrand", "padding", "baserand", "smokestack+aes-10"}

// AttackBudget is the brute-force budget per (scenario, engine) pair: the
// finite number of attempts before the paper's threat model assumes
// detection by the operator.
const AttackBudget = 10

// resultRecord converts an attack campaign outcome into a typed record.
func resultRecord(experiment string, r attack.Result) exp.Record {
	rec := exp.Record{
		Experiment: experiment,
		Cell:       r.Scenario + "/" + r.Engine,
		Labels:     map[string]string{"scenario": r.Scenario, "engine": r.Engine},
		Values: map[string]float64{
			"attempts":      float64(r.Attempts),
			"successes":     float64(r.Successes),
			"detected":      float64(r.Detected),
			"crashed":       float64(r.Crashed),
			"failed":        float64(r.Failed),
			"first_success": float64(r.FirstSuccess),
		},
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	return rec
}

// recordResult reconstructs the attack.Result a record was derived from,
// so the renderers reuse Result.String's row format.
func recordResult(r exp.Record) attack.Result {
	res := attack.Result{
		Scenario:     r.Label("scenario"),
		Engine:       r.Label("engine"),
		Attempts:     int(r.Value("attempts")),
		Successes:    int(r.Value("successes")),
		Detected:     int(r.Value("detected")),
		Crashed:      int(r.Value("crashed")),
		Failed:       int(r.Value("failed")),
		FirstSuccess: int(r.Value("first_success")),
	}
	if res.Scenario == "" {
		res.Scenario = r.Cell
	}
	if r.Err != "" {
		res.Err = errors.New(r.Err)
	}
	return res
}

// campaignCells builds one cell per (scenario, engine) pair. Each cell
// reconstructs its scenario from a fresh matrix() call: scenarios carry
// exploit closures, and giving every cell private ones keeps concurrent
// campaigns isolated. The compiled program inside is shared, not
// private: the corpus compiles each program once per process, so every
// cell attacking it hits the same code-cache entry and pool key.
func campaignCells(cfg Config, experiment string, engines []string,
	matrix func() []*attack.Scenario, seedParts func(s *attack.Scenario, engName string) []string) []exp.Cell {
	var cells []exp.Cell
	for i, s := range matrix() {
		for _, engName := range engines {
			i, engName := i, engName
			name := s.Name + "/" + engName
			cells = append(cells, exp.Cell{
				Experiment: experiment,
				Name:       name,
				Run: func() ([]exp.Record, error) {
					s := matrix()[i]
					seed := hashSeed(cfg.Seed, seedParts(s, engName)...)
					eng, err := securityEngine(engName, s.Program.Prog, seed)
					if err != nil {
						return nil, err
					}
					d := &attack.Deployment{Program: s.Program, Engine: eng, TRNG: rng.SeededTRNG(seed + 1), Pool: cfg.attackPool()}
					return []exp.Record{resultRecord(experiment, s.Run(d, AttackBudget))}, nil
				},
			})
		}
	}
	return cells
}

// scenarioEngineSeed reproduces the historical per-pair seed derivation.
func scenarioEngineSeed(s *attack.Scenario, engName string) []string {
	return []string{s.Name, engName}
}

// pentestCells covers E4: the synthetic direct/indirect x stack/data/heap
// matrix.
func pentestCells(cfg Config) []exp.Cell {
	return campaignCells(cfg, "pentest", cfg.lineup(securityEngines), attack.PentestMatrix, scenarioEngineSeed)
}

// cveCells covers E6: the real-vulnerability reproductions.
func cveCells(cfg Config) []exp.Cell {
	return campaignCells(cfg, "cve", cfg.lineup(securityEngines), attack.CVEScenarios, scenarioEngineSeed)
}

// bypassCells covers E5: the §II-C librelp PoC against each prior scheme.
func bypassCells(cfg Config) []exp.Cell {
	librelp := func() []*attack.Scenario { return []*attack.Scenario{attack.LibrelpScenario()} }
	return campaignCells(cfg, "bypass", cfg.lineup(bypassEngines), librelp,
		func(_ *attack.Scenario, engName string) []string { return []string{"bypass", engName} })
}

// renderCampaign prints one Result-style row per record.
func renderCampaign(w io.Writer, recs []exp.Record, experiment string) {
	for _, r := range exp.Filter(recs, experiment) {
		fmt.Fprintln(w, recordResult(r))
	}
}

// RenderPentest writes the E4 table.
func RenderPentest(w io.Writer, recs []exp.Record) {
	fmt.Fprintln(w, "Penetration testing with synthetic DOP benchmarks (paper §V-C)")
	fmt.Fprintf(w, "budget: %d attempts per pair (service restarts after a crash)\n", AttackBudget)
	renderCampaign(w, recs, "pentest")
	fmt.Fprintln(w, "paper: Smokestack prevented all synthetic attacks; direct overflows were")
	fmt.Fprintln(w, "       stopped and indirect overflows failed on the first step.")
}

// RenderCVE writes the E6 table.
func RenderCVE(w io.Writer, recs []exp.Record) {
	fmt.Fprintln(w, "Real vulnerabilities (paper §V-C): librelp CVE-2018-1000140,")
	fmt.Fprintln(w, "Wireshark CVE-2014-2299, ProFTPD CVE-2006-5815 key extraction")
	renderCampaign(w, recs, "cve")
	fmt.Fprintln(w, "paper: all three exploits bypass prior defenses; Smokestack stops each")
	fmt.Fprintln(w, "       (Wireshark detected via the corrupted function identifier).")
}

// RenderBypass writes the E5 table.
func RenderBypass(w io.Writer, recs []exp.Record) {
	fmt.Fprintln(w, "Bypassing prior stack randomization (paper §II-C, librelp PoC)")
	renderCampaign(w, recs, "bypass")
}

// PrintPentest runs E4 and renders it.
func PrintPentest(cfg Config) error { return printOne(cfg, "pentest") }

// PrintCVE runs E6 and renders it.
func PrintCVE(cfg Config) error { return printOne(cfg, "cve") }

// PrintBypass runs E5 and renders it.
func PrintBypass(cfg Config) error { return printOne(cfg, "bypass") }

// ablationRNGCells covers E7: the PRNG state-disclosure attack against
// Smokestack with each randomness source.
func ablationRNGCells(cfg Config) []exp.Cell {
	var cells []exp.Cell
	for _, scheme := range Schemes {
		scheme := scheme
		cells = append(cells, exp.Cell{
			Experiment: "ablation-rng",
			Name:       scheme,
			Run: func() ([]exp.Record, error) {
				p := corpus.Listing1()
				seed := hashSeed(cfg.Seed, "ablation-rng", scheme)
				src, err := rng.NewByName(scheme, seed, rng.SeededTRNG(seed))
				if err != nil {
					return nil, err
				}
				eng := smokestackPlan(p.Prog, nil).NewEngine(src)
				d := &attack.Deployment{Program: p, Engine: eng, TRNG: rng.SeededTRNG(seed + 1), Pool: cfg.attackPool()}
				r := attack.PredictionScenario(eng).Run(d, 20)
				r.Scenario = "rng-predict/" + scheme
				return []exp.Record{resultRecord("ablation-rng", r)}, nil
			},
		})
	}
	return cells
}

// RenderAblationRNG writes the E7 table.
func RenderAblationRNG(w io.Writer, recs []exp.Record) {
	fmt.Fprintln(w, "Ablation: RNG disclosure resistance (paper §III-D1 threat)")
	fmt.Fprintln(w, "An attacker who can read memory replays a memory-state PRNG and")
	fmt.Fprintln(w, "predicts the next invocation's permutation (and guard encoding).")
	renderCampaign(w, recs, "ablation-rng")
	fmt.Fprintln(w, "expected: pseudo BYPASSED (state disclosable); aes-1/aes-10/rdrand stopped.")
}

// PrintAblationRNG runs E7 and renders it.
func PrintAblationRNG(cfg Config) error { return printOne(cfg, "ablation-rng") }
