// Package core is the public facade of the Smokestack reproduction: compile
// a MiniC program, harden it with a stack-layout scheme, run it, and
// inspect results. The heavy lifting lives in the focused packages
// (minic/*, ir, pbox, rng, layout, vm, attack); core wires them together
// behind a small API that the CLI tools and examples use.
//
// Typical use:
//
//	prog, err := core.Build("demo.c", source)
//	res, err := prog.Run(core.RunConfig{Scheme: "smokestack+aes-10"})
//	fmt.Println(res.Output, res.Stats.Cycles)
package core

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/vm"
)

// Program is a compiled MiniC translation unit ready to be hardened and
// executed.
type Program struct {
	// IR is the compiled program; read-only after Build.
	IR *ir.Program
}

// Build compiles MiniC source (parse → type check → IR).
func Build(name, source string) (*Program, error) {
	p, err := compile.Compile(name, source)
	if err != nil {
		return nil, err
	}
	return &Program{IR: p}, nil
}

// MustBuild compiles known-good source, panicking on error.
func MustBuild(name, source string) *Program {
	p, err := Build(name, source)
	if err != nil {
		panic(err)
	}
	return p
}

// Schemes lists every supported layout scheme name, baseline first.
func Schemes() []string {
	return []string{
		"fixed", "staticrand", "padding", "baserand",
		"smokestack+pseudo", "smokestack+aes-1", "smokestack+aes-10", "smokestack+rdrand",
	}
}

// RunConfig selects the hardening scheme and run parameters.
type RunConfig struct {
	// Scheme is one of Schemes(); empty means "fixed" (the baseline).
	Scheme string
	// Seed drives all deterministic randomness (compile-time permutations,
	// RNG seeding, guard keys). 0 selects a fixed default; production use
	// would seed from the host CSPRNG via TRNG below.
	Seed uint64
	// TRNG overrides the true-random source (defaults to a seeded
	// deterministic stream for reproducibility; pass rng.HostTRNG for real
	// entropy).
	TRNG rng.TRNG
	// Env supplies program input and collects output; nil creates an empty
	// environment.
	Env *vm.Env
	// Engine overrides scheme construction entirely (advanced use: custom
	// layout.Engine implementations, pre-built Smokestack engines).
	Engine layout.Engine
	// StepLimit bounds execution (0 = VM default).
	StepLimit uint64
}

// Result is the outcome of one program run.
type Result struct {
	// Exit is main's return value (or the exit() code).
	Exit int64
	// Output is everything the program printed/sent.
	Output string
	// Stats holds the modeled performance counters.
	Stats vm.Stats
	// Resident is the modeled maximum resident set in bytes.
	Resident int64
	// Engine names the layout scheme that ran.
	Engine string
}

// NewEngine constructs a layout engine by scheme name for this program.
func (p *Program) NewEngine(scheme string, seed uint64, trng rng.TRNG) (layout.Engine, error) {
	if scheme == "" {
		scheme = "fixed"
	}
	if trng == nil {
		trng = rng.SeededTRNG(seed ^ 0x72616e64)
	}
	return layout.NewByName(scheme, p.IR, seed, trng)
}

// Run executes the program once under the configured scheme.
func (p *Program) Run(cfg RunConfig) (*Result, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 0x5a0c357a // fixed default so zero-config runs reproduce
	}
	eng := cfg.Engine
	if eng == nil {
		var err error
		eng, err = p.NewEngine(cfg.Scheme, cfg.Seed, cfg.TRNG)
		if err != nil {
			return nil, err
		}
	}
	env := cfg.Env
	if env == nil {
		env = &vm.Env{}
	}
	trng := cfg.TRNG
	if trng == nil {
		trng = rng.SeededTRNG(cfg.Seed + 1)
	}
	m := vm.New(p.IR, eng, env, &vm.Options{TRNG: trng, StepLimit: cfg.StepLimit})
	exit, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("core: run under %s: %w", eng.Name(), err)
	}
	return &Result{
		Exit:     exit,
		Output:   string(env.Output),
		Stats:    m.Stats(),
		Resident: m.ResidentBytes(),
		Engine:   eng.Name(),
	}, nil
}

// Overhead runs the program under the baseline and under scheme, returning
// the modeled cycle overhead in percent — the Fig 3 primitive for a single
// program.
func (p *Program) Overhead(scheme string, seed uint64) (float64, error) {
	base, err := p.Run(RunConfig{Scheme: "fixed", Seed: seed})
	if err != nil {
		return 0, err
	}
	hard, err := p.Run(RunConfig{Scheme: scheme, Seed: seed})
	if err != nil {
		return 0, err
	}
	return (hard.Stats.Cycles - base.Stats.Cycles) / base.Stats.Cycles * 100, nil
}

// FrameLayouts returns the layouts the named function would receive over n
// consecutive invocations under the scheme — a direct window into what the
// randomization does. For deterministic schemes all n layouts are equal.
func (p *Program) FrameLayouts(scheme string, fnName string, n int, seed uint64) ([]layout.FrameLayout, error) {
	fn, ok := p.IR.FuncByName(fnName)
	if !ok {
		return nil, fmt.Errorf("core: no function %s", fnName)
	}
	eng, err := p.NewEngine(scheme, seed, nil)
	if err != nil {
		return nil, err
	}
	eng.NewRun()
	out := make([]layout.FrameLayout, n)
	for i := range out {
		out[i] = eng.Layout(fn, nil) // a fresh buffer per layout: the caller keeps them all
	}
	return out, nil
}
