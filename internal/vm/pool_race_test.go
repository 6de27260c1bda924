package vm

// Race hammer for MachinePool: concurrent Get/Run/Put across several pool
// keys, with Stats readers, Drain calls and code-cache retirements in
// flight. Run under -race this pins the pool's concurrency contract:
// counters stay monotone and consistent, per-key retention never exceeds
// the bound, no Machine of a retired code cache stays pooled, and a
// recycled Machine always produces the same result as a fresh one.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compile"
	"repro/internal/layout"
	"repro/internal/rng"
)

const poolRaceSrc = `
long gsum = 1;
long main() {
	long i = 0;
	while (i < 64) { gsum = gsum + i; i = i + 1; }
	return gsum;
}`

const poolRaceWant = 1 + 63*64/2

func TestMachinePoolRaceHammer(t *testing.T) {
	prog := compile.MustCompile("poolrace.c", poolRaceSrc)
	const (
		workers   = 8
		iters     = 150
		keys      = 4
		maxPerKey = 3
	)
	pool := NewMachinePool(maxPerKey)
	var gets, putCalls atomic.Uint64
	done := make(chan struct{})

	// Stats reader: every counter must be monotone under concurrent
	// Get/Put/Drain.
	var statsWG sync.WaitGroup
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		var prev PoolStats
		for {
			select {
			case <-done:
				return
			default:
			}
			s := pool.Stats()
			if s.Hits < prev.Hits || s.Misses < prev.Misses ||
				s.Puts < prev.Puts || s.Drops < prev.Drops ||
				s.RestoredBytes < prev.RestoredBytes {
				t.Errorf("pool stats went backwards: %+v then %+v", prev, s)
				return
			}
			prev = s
			runtime.Gosched()
		}
	}()

	// Drain hammer: periodic Drain must not upset anything — at worst it
	// costs the next Gets a construction.
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%64 == 0 {
				pool.Drain()
			}
			runtime.Gosched()
		}
	}()

	// Retire hammer: key 0's Machines are built on a private code cache
	// that is periodically swapped out and retired while some of them are
	// out on runs, the way evicting an inline program retires its cache.
	var private atomic.Pointer[CodeCache]
	private.Store(NewCodeCache())
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%32 == 0 {
				pool.Retire(private.Swap(NewCodeCache()))
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Distinct StepLimits give distinct pool keys, so the
				// per-key bound is exercised across a populated map.
				k := (w + i) % keys
				opts := &Options{
					TRNG:      rng.SeededTRNG(uint64(w*1_000_003 + i)),
					StepLimit: uint64(1_000_000 * (k + 1)),
				}
				if k == 0 {
					opts.CodeCache = private.Load()
				}
				m := pool.Get(prog, layout.NewFixed(), &Env{}, opts)
				gets.Add(1)
				v, err := m.Run()
				if err != nil {
					t.Errorf("worker %d iter %d: run failed: %v", w, i, err)
					return
				}
				if v != poolRaceWant {
					t.Errorf("worker %d iter %d: got %d, want %d (pooled Machine diverged)", w, i, v, poolRaceWant)
					return
				}
				pool.Put(m)
				putCalls.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	statsWG.Wait()

	s := pool.Stats()
	if got := s.Hits + s.Misses; got != gets.Load() {
		t.Errorf("hits %d + misses %d = %d, want %d Gets", s.Hits, s.Misses, got, gets.Load())
	}
	if s.Puts > putCalls.Load() {
		t.Errorf("puts %d exceeds %d Put calls", s.Puts, putCalls.Load())
	}
	if got := s.Puts + s.Drops; got < putCalls.Load() {
		t.Errorf("puts %d + drops %d = %d, want >= %d Put calls", s.Puts, s.Drops, got, putCalls.Load())
	}

	// The retention bound must hold for every key even after the race,
	// retired caches must have no pooled Machines, and the retained count
	// must match the lists (internal inspection — this is why the test
	// lives in package vm).
	pool.mu.Lock()
	held := 0
	for k, list := range pool.free {
		held += len(list)
		if len(list) > maxPerKey {
			t.Errorf("key %+v retains %d Machines, bound %d", k, len(list), maxPerKey)
		}
		if len(list) > 0 && k.cache.retired.Load() {
			t.Errorf("key %+v retains %d Machines of a retired code cache", k, len(list))
		}
	}
	if held != pool.retained {
		t.Errorf("retained count %d, pool holds %d Machines", pool.retained, held)
	}
	pool.mu.Unlock()
}
