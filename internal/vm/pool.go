package vm

import (
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/layout"
)

// MachinePool recycles Machines across runs. A Get with a compatible
// cached Machine costs one Reset (copy-on-reset memory restore plus the
// per-run arming New would do anyway) instead of a full construction —
// segment mapping, image copies, compiled stream lookups and the backing
// a run grows its stack and heap into are all amortized away, and the
// steady state allocates nothing per run (BenchmarkRunSetup pins both
// properties).
//
// Machines pool by construction shape: program identity, cost model,
// resolved execution tier, code cache, step/depth/heap bounds, and the
// engine's dual-stack class. Everything else — the specific engine
// instance, TRNG, jitter, hooks, profiler — is per-run state that Reset
// re-arms, so a fig3-style cell that runs a baseline engine and then four
// schemes over the same workload reuses one Machine for all of them.
//
// The pool is safe for concurrent Get/Put (the experiment runner's
// worker-per-cell model); each pooled Machine is still single-goroutine
// property of whoever holds it between Get and Put.
type MachinePool struct {
	mu       sync.Mutex
	free     map[poolKey][]*Machine
	retained int // Machines in free, guarded by mu
	// retainedBytes sums the pooledBytes of the Machines in free,
	// guarded by mu.
	retainedBytes uint64

	// maxPerKey bounds retained Machines per key; excess Puts are dropped
	// so pool growth stays bounded by grid concurrency, not grid size.
	// That bound needs a fixed key set: callers share one *ir.Program
	// per program (workload.Prog and the attack corpus compile once per
	// process), since a recompiled copy is a new key and a new Machine.
	maxPerKey int

	hits     atomic.Uint64
	misses   atomic.Uint64
	puts     atomic.Uint64
	drops    atomic.Uint64
	restored atomic.Uint64
}

// poolKey is the construction shape Machines pool under. Comparable by
// value: pointers compare by identity (program and cache identity is
// exactly the sharing contract the code cache itself uses).
type poolKey struct {
	prog      *ir.Program
	costs     Costs
	stepLimit uint64
	maxDepth  int
	tier      ExecTier
	cache     *CodeCache
	dualStack bool
}

// PoolStats is a snapshot of the pool's counters.
type PoolStats struct {
	Hits          uint64 // Gets served by resetting a cached Machine
	Misses        uint64 // Gets that fell back to New
	Puts          uint64 // Machines returned and retained
	Drops         uint64 // Machines returned but discarded (full, unpoolable or retired)
	RestoredBytes uint64 // cumulative copy-on-reset bytes (mem.snapshot feed)
	Retained      int    // Machines the pool holds right now
	// RetainedBytes is the memory those Machines hold: their backed
	// segment bytes plus baseline images (mem.Memory.BackedBytes).
	RetainedBytes uint64
}

// DefaultMaxPerKey bounds retained Machines per pool key. Sized for the
// experiment runner's worker pool: more simultaneous holders than this
// means the extra Machines are constructed fresh and dropped on return.
const DefaultMaxPerKey = 32

// NewMachinePool creates an empty pool. maxPerKey <= 0 selects
// DefaultMaxPerKey.
func NewMachinePool(maxPerKey int) *MachinePool {
	if maxPerKey <= 0 {
		maxPerKey = DefaultMaxPerKey
	}
	return &MachinePool{free: make(map[poolKey][]*Machine), maxPerKey: maxPerKey}
}

// keyFor computes the pool key New(prog, engine, _, opts) would construct
// under.
func keyFor(prog *ir.Program, engine layout.Engine, opts *Options) poolKey {
	o := normalizeOptions(opts)
	cache := o.CodeCache
	if cache == nil {
		cache = defaultCodeCache
	}
	_, dualStack := engine.(layout.DualStacker)
	return poolKey{
		prog:      prog,
		costs:     costsOf(&o),
		stepLimit: o.StepLimit,
		maxDepth:  o.MaxCallDepth,
		tier:      resolveTier(&o),
		cache:     cache,
		dualStack: dualStack,
	}
}

// Get returns a Machine ready to run prog under engine with the given
// env/opts — a recycled one when the pool holds a compatible Machine
// (reset to bit-identical fresh state), a newly constructed one
// otherwise. New Machines are sealed for reuse before their first run so
// they can re-enter the pool via Put.
func (p *MachinePool) Get(prog *ir.Program, engine layout.Engine, env *Env, opts *Options) *Machine {
	key := keyFor(prog, engine, opts)
	p.mu.Lock()
	var m *Machine
	if list := p.free[key]; len(list) > 0 {
		m = list[len(list)-1]
		p.free[key] = list[:len(list)-1]
		p.retained--
		p.retainedBytes -= m.pooledBytes
	}
	p.mu.Unlock()
	if m != nil {
		restored, err := m.Reset(engine, env, opts)
		if err == nil {
			p.hits.Add(1)
			p.restored.Add(restored)
			return m
		}
		// Structurally incompatible despite the key match (should not
		// happen; defensive): drop it and construct fresh.
		p.drops.Add(1)
	}
	p.misses.Add(1)
	m = New(prog, engine, env, opts)
	m.SealForReuse()
	return m
}

// Put returns a Machine obtained from Get to the pool. Machines that
// cannot be soundly reused — construction-faulted, never sealed — and
// Machines beyond the per-key retention bound or built on a retired code
// cache are dropped for the collector instead. Put(nil) is a no-op so
// error paths can return unconditionally.
func (p *MachinePool) Put(m *Machine) {
	if m == nil {
		return
	}
	if m.initErr != nil || !m.Mem.Sealed() {
		p.drops.Add(1)
		return
	}
	key := poolKey{
		prog:      m.Prog,
		costs:     m.costs,
		stepLimit: m.stepLimit,
		maxDepth:  m.maxDepth,
		tier:      m.tier,
		cache:     m.codeCache,
		dualStack: m.ustack != nil,
	}
	p.mu.Lock()
	list := p.free[key]
	// The retired check is under mu: Retire marks the cache before it
	// sweeps under mu, so a Put racing it is either swept or sees the mark.
	if len(list) >= p.maxPerKey || m.codeCache.retired.Load() {
		p.mu.Unlock()
		p.drops.Add(1)
		return
	}
	m.pooledBytes = m.Mem.BackedBytes()
	p.free[key] = append(list, m)
	p.retained++
	p.retainedBytes += m.pooledBytes
	p.mu.Unlock()
	p.puts.Add(1)
}

// Retire marks code cache c discarded and drops every Machine the pool
// holds that was built on it; later Puts of such Machines (a run still in
// flight) drop them too. The owner of a private code cache calls it when
// it discards the cache: nothing can look those Machines up again.
func (p *MachinePool) Retire(c *CodeCache) {
	c.retired.Store(true)
	p.mu.Lock()
	for k, list := range p.free {
		if k.cache == c {
			p.retained -= len(list)
			for _, m := range list {
				p.retainedBytes -= m.pooledBytes
			}
			delete(p.free, k)
		}
	}
	p.mu.Unlock()
}

// Stats snapshots the pool counters. Safe to call concurrently with
// Get/Put; reading costs nothing when nobody asks (the counters are plain
// atomics the hot path touches once per run, not per step, and the
// retained counts are read under the pool lock).
func (p *MachinePool) Stats() PoolStats {
	p.mu.Lock()
	retained, retainedBytes := p.retained, p.retainedBytes
	p.mu.Unlock()
	return PoolStats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Puts:          p.puts.Load(),
		Drops:         p.drops.Load(),
		RestoredBytes: p.restored.Load(),
		Retained:      retained,
		RetainedBytes: retainedBytes,
	}
}

// Drain empties the pool, releasing every retained Machine to the
// collector. Bounds long-lived memory between experiment phases.
func (p *MachinePool) Drain() {
	p.mu.Lock()
	for k := range p.free {
		delete(p.free, k)
	}
	p.retained = 0
	p.retainedBytes = 0
	p.mu.Unlock()
}
