// Experiment E9 (extension): the entropy curve. The paper's §II argues
// that a randomization defense is only as strong as the entropy it adds;
// this experiment makes the claim quantitative by sweeping the number of
// objects in the vulnerable frame and measuring the Listing 1 exploit's
// brute-force success rate against Smokestack. More objects → more
// permutations → the stale-probe payload lands less often.

package harness

import (
	"fmt"
	"io"

	"repro/internal/attack"
	"repro/internal/attack/corpus"
	"repro/internal/exp"
	"repro/internal/rng"
)

// EntropyRow is one sweep point.
type EntropyRow struct {
	// Spills is the number of extra frame objects; the frame holds
	// 5 + Spills objects plus the guard.
	Spills int
	// Objects is the total permuted object count (including the guard).
	Objects int
	// Attempts / Successes / Detected / Crashed summarize the campaign.
	Attempts  int
	Successes int
	Detected  int
	Crashed   int
	// SuccessPct is the per-attempt bypass rate.
	SuccessPct float64
}

// defaultEntropyGrid is the sweep the registry (and CLI) runs.
var (
	defaultEntropySpills   = []int{0, 1, 2, 4, 8, 16}
	defaultEntropyAttempts = 300
)

// entropyCells builds the registry cells over the default grid.
func entropyCells(cfg Config) []exp.Cell {
	return entropyCellsFor(cfg, defaultEntropySpills, defaultEntropyAttempts)
}

// entropyCellsFor produces one cell per sweep point. Unlike Scenario.Run
// a cell does not stop at the first success: the quantity of interest is
// the rate.
func entropyCellsFor(cfg Config, spills []int, attempts int) []exp.Cell {
	var cells []exp.Cell
	for _, k := range spills {
		k := k
		cells = append(cells, exp.Cell{
			Experiment: "entropy",
			Name:       fmt.Sprintf("spills=%d", k),
			Run:        func() ([]exp.Record, error) { return entropyCell(cfg, k, attempts) },
		})
	}
	return cells
}

// entropyCell measures one sweep point. Each spill count's program
// compiles once per process, so repeated sweeps reuse its code-cache
// entry and pooled Machines.
func entropyCell(cfg Config, k, attempts int) ([]exp.Record, error) {
	p := corpus.Listing1WithSpills(k)
	s := attack.DirectStackScenario(p)
	seed := hashSeed(cfg.Seed, "entropy", fmt.Sprint(k))
	src, err := rng.NewByName("aes-10", seed, rng.SeededTRNG(seed))
	if err != nil {
		return nil, err
	}
	eng := smokestackPlan(p.Prog, nil).NewEngine(src)
	d := &attack.Deployment{Program: p, Engine: eng, TRNG: rng.SeededTRNG(seed + 1), Pool: cfg.attackPool()}
	var successes, detected, crashed int
	for i := 0; i < attempts; i++ {
		out, err := s.Attempt(d)
		if err != nil {
			return nil, err
		}
		switch out {
		case attack.Success:
			successes++
		case attack.Detected:
			detected++
		case attack.Crashed:
			crashed++
		}
	}
	return []exp.Record{{
		Experiment: "entropy",
		Cell:       fmt.Sprintf("spills=%d", k),
		Labels:     map[string]string{"program": p.Name},
		Values: map[string]float64{
			"spills":      float64(k),
			"objects":     float64(5 + k + 1),
			"attempts":    float64(attempts),
			"successes":   float64(successes),
			"detected":    float64(detected),
			"crashed":     float64(crashed),
			"success_pct": float64(successes) / float64(attempts) * 100,
		},
	}}, nil
}

// entropyRows rebuilds typed rows from records.
func entropyRows(recs []exp.Record) []EntropyRow {
	var rows []EntropyRow
	for _, r := range exp.Filter(recs, "entropy") {
		if r.Err != "" {
			continue
		}
		rows = append(rows, EntropyRow{
			Spills:     int(r.Value("spills")),
			Objects:    int(r.Value("objects")),
			Attempts:   int(r.Value("attempts")),
			Successes:  int(r.Value("successes")),
			Detected:   int(r.Value("detected")),
			Crashed:    int(r.Value("crashed")),
			SuccessPct: r.Value("success_pct"),
		})
	}
	return rows
}

// EntropyCurve measures the exploit's success rate at each sweep point.
func EntropyCurve(cfg Config, spills []int, attempts int) ([]EntropyRow, error) {
	recs := cfg.runner().Run(entropyCellsFor(cfg, spills, attempts))
	return entropyRows(recs), exp.Errors(recs)
}

// RenderEntropyCurve writes the E9 table.
func RenderEntropyCurve(w io.Writer, recs []exp.Record) {
	recs = exp.Filter(recs, "entropy")
	fmt.Fprintln(w, "Entropy curve (extension E9): Listing 1 brute-force bypass rate vs.")
	fmt.Fprintln(w, "frame object count under smokestack+aes-10 (300 attempts per point)")
	fmt.Fprintf(w, "%8s %8s %10s %10s %9s %9s\n", "spills", "objects", "bypass", "detected", "crashed", "failed")
	for _, r := range entropyRows(recs) {
		fmt.Fprintf(w, "%8d %8d %9.1f%% %10d %9d %9d\n",
			r.Spills, r.Objects, r.SuccessPct, r.Detected, r.Crashed,
			r.Attempts-r.Successes-r.Detected-r.Crashed)
	}
	for _, r := range recs {
		if r.Err != "" {
			fmt.Fprintf(w, "%8s ERROR: %s\n", r.Cell, r.Err)
		}
	}
	fmt.Fprintln(w, "expected: bypass rate collapses as objects (hence permutations) grow —")
	fmt.Fprintln(w, "the quantitative form of the paper's §II entropy argument.")
}

// PrintEntropyCurve runs the sweep with the default grid and renders it.
func PrintEntropyCurve(cfg Config) error { return printOne(cfg, "entropy") }
