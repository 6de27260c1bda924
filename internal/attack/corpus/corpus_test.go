package corpus_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/attack/corpus"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/vm"
)

// constructors lists the named programs in All's order.
var constructors = []func() *corpus.Program{
	corpus.Listing1, corpus.IndirectStack, corpus.DataIndexed, corpus.HeapIndexed,
	corpus.Librelp, corpus.Wireshark, corpus.Proftpd,
}

// TestConcurrentFirstCallsShareOneCompile races first calls from several
// goroutines (make race runs it under -race): every goroutine must get
// the same programs. It is the file's first test, so the named programs
// are first calls here, and no other test asks for these spill counts.
func TestConcurrentFirstCallsShareOneCompile(t *testing.T) {
	const goroutines = 8
	spills := []int{5, 6, 7, 8, 9, 10, 11, 12}
	got := make([][]*corpus.Program, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ps := corpus.All()
			for _, k := range spills {
				ps = append(ps, corpus.Listing1WithSpills(k))
			}
			got[g] = ps
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i, p := range got[g] {
			if p != got[0][i] {
				t.Fatalf("goroutine %d got its own copy of %s", g, p.Name)
			}
		}
	}
}

// TestConstructorsShareOneCompile pins the compile-once contract: a
// constructor returns the same *Program on every call, All returns those
// same programs, and Listing1WithSpills keeps one program per clamped
// spill count. A repeat call allocates nothing, so it compiles nothing.
func TestConstructorsShareOneCompile(t *testing.T) {
	all := corpus.All()
	for i, ctor := range constructors {
		p := ctor()
		if ctor() != p || all[i] != p {
			t.Errorf("%s: repeated calls returned different programs", p.Name)
		}
	}
	for _, c := range []struct{ k, clamped int }{{-2, 0}, {0, 0}, {3, 3}, {24, 24}, {30, 24}} {
		if corpus.Listing1WithSpills(c.k) != corpus.Listing1WithSpills(c.clamped) {
			t.Errorf("Listing1WithSpills(%d) is not the program for %d spills", c.k, c.clamped)
		}
	}
	if corpus.Listing1WithSpills(3) == corpus.Listing1WithSpills(4) {
		t.Error("different spill counts share one program")
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, ctor := range constructors {
			ctor()
		}
		corpus.Listing1WithSpills(3)
	})
	if allocs != 0 {
		t.Errorf("repeat calls allocate %v objects, want 0 (no recompile)", allocs)
	}
}

func TestAllCompileWithMetadata(t *testing.T) {
	for _, p := range corpus.All() {
		if p.Prog == nil {
			t.Fatalf("%s: nil program", p.Name)
		}
		fn, ok := p.Prog.FuncByName(p.VulnFunc)
		if !ok {
			t.Errorf("%s: vulnerable function %s missing", p.Name, p.VulnFunc)
			continue
		}
		// The overflowed buffer is either one of the function's allocas or
		// a global/heap object (the indexed-write scenarios).
		foundAlloca := false
		for _, a := range fn.Allocas {
			if a.Name == p.BufVar {
				foundAlloca = true
			}
		}
		foundGlobal := false
		for _, g := range p.Prog.Globals {
			if g.Name == p.BufVar {
				foundGlobal = true
			}
		}
		if !foundAlloca && !foundGlobal {
			// hbuf is a heap pointer held in a local of the same name.
			if !foundAlloca {
				for _, a := range fn.Allocas {
					if a.Name == p.BufVar {
						foundAlloca = true
					}
				}
			}
			if !foundAlloca && !foundGlobal && p.BufVar != "hbuf" {
				t.Errorf("%s: buffer %s not found as alloca or global", p.Name, p.BufVar)
			}
		}
		if p.Source == "" {
			t.Errorf("%s: source not retained", p.Name)
		}
	}
}

// TestBenignExitCodes pins each program's no-attack behaviour.
func TestBenignExitCodes(t *testing.T) {
	want := map[string]int64{
		"listing1":       0, // result stays 0
		"indirect_stack": 0, // gate untouched; scratch absorbs the benign writes
		"data_indexed":   0,
		"heap_indexed":   0,
		"librelp":        0, // key never leaked
		"wireshark":      0,
		"proftpd":        0, // nothing sent
	}
	for _, p := range corpus.All() {
		env := &vm.Env{}
		m := vm.New(p.Prog, layout.NewFixed(), env, &vm.Options{TRNG: rng.SeededTRNG(3)})
		v, err := m.Run()
		if err != nil {
			t.Errorf("%s: benign run failed: %v", p.Name, err)
			continue
		}
		if w, ok := want[p.Name]; ok && v != w {
			t.Errorf("%s: benign exit %d, want %d", p.Name, v, w)
		}
	}
}

// TestProftpdChainIsWellFormed walks the pointer chain the key-extraction
// exploit traverses: chain0 → 7 heap hops → privkey.
func TestProftpdChainIsWellFormed(t *testing.T) {
	p := corpus.Proftpd()
	env := &vm.Env{}
	m := vm.New(p.Prog, layout.NewFixed(), env, &vm.Options{TRNG: rng.SeededTRNG(3)})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	chainAddr, ok := m.GlobalAddrByName("chain0")
	if !ok {
		t.Fatal("no chain0")
	}
	keyAddr, _ := m.GlobalAddrByName("privkey")
	cursor, err := m.Mem.ReadU(chainAddr, 8)
	if err != nil {
		t.Fatal(err)
	}
	for hop := 0; hop < 7; hop++ {
		cursor, err = m.Mem.ReadU(cursor, 8)
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
	}
	if cursor != keyAddr {
		t.Fatalf("chain ends at 0x%x, want privkey at 0x%x", cursor, keyAddr)
	}
	b, _ := m.Mem.ReadBytes(cursor, 10)
	if !bytes.HasPrefix(b, []byte("-----BEGIN")) {
		t.Fatalf("key bytes %q", b)
	}
}

func TestListing1WithSpills(t *testing.T) {
	for _, k := range []int{0, 3, 24, 30, -2} {
		p := corpus.Listing1WithSpills(k)
		fn, ok := p.Prog.FuncByName("dispatch")
		if !ok {
			t.Fatalf("spills=%d: no dispatch", k)
		}
		wantK := k
		if wantK < 0 {
			wantK = 0
		}
		if wantK > 24 {
			wantK = 24
		}
		// buf + ctr/size/step/req + spills
		if got := len(fn.Allocas); got != 5+wantK {
			t.Errorf("spills=%d: %d allocas, want %d", k, got, 5+wantK)
		}
		m := vm.New(p.Prog, layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(3)})
		if v, err := m.Run(); err != nil || v != 0 {
			t.Errorf("spills=%d: benign run v=%d err=%v", k, v, err)
		}
	}
}

// TestLibrelpBenignMatch: the peer-check loop must terminate with a match
// when the expected SAN arrives — the program is a real service model, not
// just an attack surface.
func TestLibrelpBenignMatch(t *testing.T) {
	p := corpus.Librelp()
	env := vm.Queue([]byte("other.example.org"), []byte("rsyslog.example.com"))
	m := vm.New(p.Prog, layout.NewFixed(), env, &vm.Options{TRNG: rng.SeededTRNG(3)})
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 { // leaked stays 0
		t.Fatalf("exit %d", v)
	}
	if bytes.Contains(env.Output, []byte("RSA-PRIVATE")) {
		t.Fatal("benign match must not leak the key")
	}
}
