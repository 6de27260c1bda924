// Package workload provides the benchmark programs behind the paper's
// performance evaluation (Fig 3, Fig 4): fourteen SPEC-CPU2006-shaped MiniC
// programs plus the two I/O-bound applications (ProFTPD, Wireshark). Each
// program is a real computation whose *shape parameters* — call frequency,
// call depth, frame sizes, number of distinct frame layouts — are
// calibrated to the profile the paper reports for its namesake (e.g.
// perlbench's 394-deep call chains, gobmk's 85 KB frames, h264ref's many
// distinct functions). Absolute cycle counts are modeled, not measured; the
// comparison of instrumented vs. baseline cycles on the same program is
// what reproduces the figures.
package workload

import (
	"fmt"
	"sync"

	"repro/internal/compile"
	"repro/internal/ir"
)

// Kind distinguishes CPU-bound SPEC models from I/O-bound applications.
type Kind int

// Workload kinds.
const (
	CPU Kind = iota
	IO
)

// Workload is one benchmark program.
type Workload struct {
	Name string
	Kind Kind
	// Description summarizes the computation and the SPEC profile feature
	// it models.
	Description string
	// Source is the MiniC program text.
	Source string
	// Want is the expected main() return value (a checksum), fixed so
	// instrumentation bugs that corrupt results are caught.
	Want int64

	compileOnce sync.Once
	prog        *ir.Program
}

// Prog compiles the workload once (per-workload sync.Once, so concurrent
// first calls for different workloads compile in parallel instead of
// serializing on one global lock). The returned Program is immutable and
// safely backs any number of concurrent Machines.
func (w *Workload) Prog() *ir.Program {
	w.compileOnce.Do(func() {
		w.prog = compile.MustCompile(w.Name+".c", w.Source)
	})
	return w.prog
}

// Prewarm compiles every registered workload using up to workers
// concurrent compilers (<= 0 selects one per workload). Experiment
// runners call it before fanning out cells so no cell pays front-end
// compile latency mid-measurement; threaded lowering is a single linear
// pass the first Machine of each program pays.
func Prewarm(workers int) {
	ws := All()
	if workers <= 0 || workers > len(ws) {
		workers = len(ws)
	}
	work := make(chan *Workload, len(ws))
	for _, w := range ws {
		work <- w
	}
	close(work)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range work {
				w.Prog()
			}
		}()
	}
	wg.Wait()
}

// registry is populated by the source files' init functions in Fig 3's
// presentation order.
var registry []*Workload

func register(w *Workload) {
	for _, r := range registry {
		if r.Name == w.Name {
			panic(fmt.Sprintf("workload: duplicate %s", w.Name))
		}
	}
	registry = append(registry, w)
}

// All returns every workload in presentation order (SPEC CPU models first,
// then the I/O applications).
func All() []*Workload {
	out := make([]*Workload, 0, len(registry))
	var ios []*Workload
	for _, w := range registry {
		if w.Kind == IO {
			ios = append(ios, w)
			continue
		}
		out = append(out, w)
	}
	return append(out, ios...)
}

// CPUOnly returns the SPEC-model workloads (Fig 4 uses only these).
func CPUOnly() []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.Kind == CPU {
			out = append(out, w)
		}
	}
	return out
}

// ByName returns the named workload, if registered.
func ByName(name string) (*Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}
