package vm_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/vm"
)

func runSrc(t *testing.T, src string, env *vm.Env, opts *vm.Options) (int64, *vm.Machine, error) {
	t.Helper()
	prog := compile.MustCompile("t.c", src)
	if opts == nil {
		opts = &vm.Options{TRNG: rng.SeededTRNG(1)}
	}
	m := vm.New(prog, layout.NewFixed(), env, opts)
	v, err := m.Run()
	return v, m, err
}

func TestHostStringFunctions(t *testing.T) {
	env := &vm.Env{}
	v, _, err := runSrc(t, `
long main() {
	char a[32];
	char b[32];
	strcpy(a, "abc");
	strcpy(b, "abd");
	long c1 = strcmp(a, b);     // negative
	long c2 = strcmp(b, a);     // positive
	long c3 = strcmp(a, "abc"); // zero
	memset(a, 'z', 4);
	a[4] = 0;
	prints(a);
	memcpy(b, a, 5);
	return (c1 < 0) * 100 + (c2 > 0) * 10 + (c3 == 0) + strlen(b) * 1000;
}`, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4111 {
		t.Fatalf("got %d, want 4111", v)
	}
	if string(env.Output) != "zzzz" {
		t.Fatalf("output %q", env.Output)
	}
}

// TestSncatSemantics nails the CVE-2018-1000140 contract: truncated writes
// below cap, the accumulated return always advancing, and the size_t
// underflow turning post-cap writes raw.
func TestSncatSemantics(t *testing.T) {
	v, m, err := runSrc(t, `
char dst[16];
char probe[16];
long main() {
	char src[8];
	memset(src, 'A', 8);
	long off = sncat(dst, 16, 0, src, 8);     // fits: writes 8, returns 8
	off = sncat(dst, 16, off, src, 8);        // hits cap: truncated to 8 avail
	long r2 = off;                            // still returns 16
	off = sncat(dst, 16, off, src, 8);        // avail==0: raw write at dst+16!
	return r2 * 100 + off;
}`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 16*100+24 {
		t.Fatalf("return accounting wrong: %d", v)
	}
	// The third call must have written past dst into the adjacent global.
	addr, _ := m.GlobalAddrByName("probe")
	b, _ := m.Mem.ReadBytes(addr, 8)
	if string(b) != "AAAAAAAA" {
		t.Fatalf("size_t underflow write missing: %q", b)
	}
}

func TestGuardDetectsCorruption(t *testing.T) {
	// Under smokestack, memset over the whole frame corrupts the guard.
	prog := compile.MustCompile("t.c", `
void pad() { victim(); }
void victim() {
	char buf[32];
	long x;
	x = 1;
	memset(buf, 65, 48);     // sprays the rest of the frame past buf
}
long main() { pad(); return 0; }`)
	src := rng.NewAESCtr(10, rng.SeededTRNG(2))
	eng := layout.NewSmokestack(prog, src, nil)
	detected := 0
	for i := 0; i < 10; i++ {
		m := vm.New(prog, eng, &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(uint64(i))})
		_, err := m.Run()
		var gv *vm.GuardViolation
		if errors.As(err, &gv) {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("200-byte spray never tripped the guard in 10 runs")
	}
}

func TestStackOverflowDetected(t *testing.T) {
	_, _, err := runSrc(t, `
long deep(long n) { char pad[4096]; pad[0] = n; return deep(n + 1) + pad[0]; }
long main() { return deep(0); }`, nil, nil)
	var so *vm.StackOverflow
	if !errors.As(err, &so) {
		t.Fatalf("expected StackOverflow, got %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	_, _, err := runSrc(t, `
long f(long n) { return f(n + 1); }
long main() { return f(0); }`, nil, &vm.Options{TRNG: rng.SeededTRNG(1), MaxCallDepth: 64})
	var so *vm.StackOverflow
	if !errors.As(err, &so) {
		t.Fatalf("expected depth-limited StackOverflow, got %v", err)
	}
}

func TestDivideByZero(t *testing.T) {
	for _, expr := range []string{"a / b", "a % b"} {
		_, _, err := runSrc(t, `
long main() { long a = 5; long b = 0; return `+expr+`; }`, nil, nil)
		var dz *vm.DivideByZero
		if !errors.As(err, &dz) {
			t.Fatalf("%s: expected DivideByZero, got %v", expr, err)
		}
	}
}

func TestStepLimit(t *testing.T) {
	_, _, err := runSrc(t, `
long main() { while (1) { } return 0; }`, nil,
		&vm.Options{TRNG: rng.SeededTRNG(1), StepLimit: 10000})
	var sl *vm.StepLimit
	if !errors.As(err, &sl) {
		t.Fatalf("expected StepLimit, got %v", err)
	}
}

func TestAbort(t *testing.T) {
	_, _, err := runSrc(t, `long main() { abort(); return 0; }`, nil, nil)
	var ab *vm.Aborted
	if !errors.As(err, &ab) {
		t.Fatalf("expected Aborted, got %v", err)
	}
}

func TestWildPointerFaults(t *testing.T) {
	_, _, err := runSrc(t, `
long main() { long *p = (long*)12345; return *p; }`, nil, nil)
	var mf *vm.MemFault
	if !errors.As(err, &mf) {
		t.Fatalf("expected MemFault, got %v", err)
	}
	if !strings.Contains(err.Error(), "main") {
		t.Errorf("fault should name the function: %v", err)
	}
}

func TestNullDerefFaults(t *testing.T) {
	_, _, err := runSrc(t, `
long main() { char *p = 0; p[0] = 1; return 0; }`, nil, nil)
	var mf *vm.MemFault
	if !errors.As(err, &mf) {
		t.Fatalf("expected MemFault, got %v", err)
	}
}

func TestQueueEnv(t *testing.T) {
	env := vm.Queue([]byte("one"), []byte("twotwo"))
	prog := compile.MustCompile("t.c", `
long main() {
	char buf[32];
	long a = input(buf, 32);
	long b = input(buf, 4);   // truncated to 4
	long c = input(buf, 32);  // exhausted: 0
	return a * 100 + b * 10 + c;
}`)
	m := vm.New(prog, layout.NewFixed(), env, &vm.Options{TRNG: rng.SeededTRNG(1)})
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != 340 {
		t.Fatalf("got %d, want 340", v)
	}
}

func TestReadintAndSendout(t *testing.T) {
	vals := []int64{7, 8}
	i := 0
	env := &vm.Env{Ints: func() int64 { v := vals[i%2]; i++; return v }}
	v, _, err := func() (int64, *vm.Machine, error) {
		prog := compile.MustCompile("t.c", `
char msg[8];
long main() {
	long a = readint();
	long b = readint();
	strcpy(msg, "hiya");
	sendout(msg, 4);
	return a * 10 + b;
}`)
		m := vm.New(prog, layout.NewFixed(), env, &vm.Options{TRNG: rng.SeededTRNG(1)})
		v, err := m.Run()
		return v, m, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	if v != 78 {
		t.Fatalf("got %d", v)
	}
	if string(env.Output) != "hiya" {
		t.Fatalf("output %q", env.Output)
	}
}

func TestIODelayCycles(t *testing.T) {
	_, m, err := runSrc(t, `long main() { iodelay(12345); return 0; }`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Stats().Cycles; c < 12345 {
		t.Fatalf("iodelay not charged: %v cycles", c)
	}
}

func TestMallocBehaviour(t *testing.T) {
	v, _, err := runSrc(t, `
long main() {
	char *a = malloc(100);
	char *b = malloc(100);
	if (a == 0 || b == 0) { return 1; }
	if (b <= a) { return 2; }          // bump allocator moves forward
	if ((long)a % 16 != 0) { return 3; } // 16-aligned
	a[99] = 7;
	free(a);
	char *c = malloc(8);
	if (c == 0) { return 4; }
	return 0;
}`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("malloc behaviour check failed with code %d", v)
	}
}

func TestMallocExhaustionReturnsNull(t *testing.T) {
	v, _, err := runSrc(t, `
long main() {
	char *p = malloc(40 * 1024 * 1024);   // heap is 64 MiB: second malloc fails
	char *q = malloc(40 * 1024 * 1024);
	return (p != 0) * 10 + (q == 0);
}`, nil, &vm.Options{TRNG: rng.SeededTRNG(1)})
	if err != nil {
		t.Fatal(err)
	}
	if v != 11 {
		t.Fatalf("got %d, want 11", v)
	}
}

func TestStackbufVLAUnderSmokestack(t *testing.T) {
	prog := compile.MustCompile("t.c", `
long use(long n) {
	char *v = stackbuf(n);
	v[0] = 1;
	v[n - 1] = 2;
	return v[0] + v[n - 1];
}
long main() {
	long s = 0;
	for (long i = 0; i < 20; i++) { s += use(64 + i * 8); }
	return s;
}`)
	eng := layout.NewSmokestack(prog, rng.NewAESCtr(10, rng.SeededTRNG(4)), nil)
	m := vm.New(prog, eng, &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(5)})
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != 60 {
		t.Fatalf("got %d, want 60", v)
	}
}

func TestStatsAndResident(t *testing.T) {
	_, m, err := runSrc(t, `
long leaf(long n) { return n * 2; }
long mid(long n) { return leaf(n) + 1; }
long main() {
	long s = 0;
	char *h = malloc(1000);
	h[0] = 1;
	for (long i = 0; i < 10; i++) { s += mid(i); }
	return s;
}`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Calls != 21 { // main + 10*(mid+leaf)
		t.Errorf("calls %d, want 21", st.Calls)
	}
	if st.MaxDepth != 3 {
		t.Errorf("depth %d, want 3", st.MaxDepth)
	}
	if st.Instructions == 0 || st.Cycles == 0 {
		t.Error("counters empty")
	}
	if st.HeapUsed < 1000 {
		t.Errorf("heap used %d", st.HeapUsed)
	}
	if m.ResidentBytes() <= 0 {
		t.Error("resident must be positive")
	}
}

func TestExitUnwindsFromDepth(t *testing.T) {
	v, _, err := runSrc(t, `
void deep(long n) { if (n == 0) { exit(99); } deep(n - 1); }
long main() { deep(10); return 1; }`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Fatalf("exit code %d", v)
	}
}

func TestCallByName(t *testing.T) {
	prog := compile.MustCompile("t.c", `
long add(long a, long b) { return a + b; }
long main() { return 0; }`)
	m := vm.New(prog, layout.NewFixed(), &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(1)})
	v, err := m.CallByName("add", 20, 22)
	if err != nil || v != 42 {
		t.Fatalf("got %d, %v", v, err)
	}
	if _, err := m.CallByName("ghost"); err == nil {
		t.Fatal("unknown function should error")
	}
}

func TestActiveFramesDuringRun(t *testing.T) {
	prog := compile.MustCompile("t.c", `
void inner() { char b[8]; input(b, 8); }
void outer() { inner(); }
long main() { outer(); return 0; }`)
	env := &vm.Env{}
	m := vm.New(prog, layout.NewFixed(), env, &vm.Options{TRNG: rng.SeededTRNG(1)})
	var names []string
	env.Input = func(int64) []byte {
		for _, fr := range m.ActiveFrames() {
			names = append(names, fr.Fn.Name)
		}
		return nil
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := "main/outer/inner"
	if got := strings.Join(names, "/"); got != want {
		t.Fatalf("frames %q, want %q", got, want)
	}
}

// TestSchemeEquivalence is the key instrumentation-correctness property:
// the same program computes the same answer under every layout engine.
func TestSchemeEquivalence(t *testing.T) {
	src := `
struct acc { long sum; int n; };
long step(struct acc *a, long v) {
	char tmp[24];
	tmp[0] = v;
	a->sum += v + tmp[0];
	a->n++;
	return a->sum;
}
long main() {
	struct acc a;
	a.sum = 0;
	a.n = 0;
	long last = 0;
	for (long i = 1; i <= 40; i++) { last = step(&a, i); }
	return last + a.n;
}`
	prog := compile.MustCompile("eq.c", src)
	want := int64(0)
	for i, name := range []string{"fixed", "staticrand", "padding", "baserand",
		"smokestack+pseudo", "smokestack+aes-1", "smokestack+aes-10", "smokestack+rdrand"} {
		eng, err := layout.NewByName(name, prog, 13, rng.SeededTRNG(13))
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(prog, eng, &vm.Env{}, &vm.Options{TRNG: rng.SeededTRNG(14)})
		v, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i == 0 {
			want = v
			continue
		}
		if v != want {
			t.Errorf("%s: result %d differs from baseline %d", name, v, want)
		}
	}
}

// TestStrlenUnterminatedString drives the host-call path for a string scan
// that exceeds the VM's scan budget inside mapped memory: the error must be
// the distinct unterminated-string error, not a segmentation MemFault at a
// valid address.
func TestStrlenUnterminatedString(t *testing.T) {
	// 1 MiB + 1 bytes of 'A' on the heap: past cstringMax with no NUL, but
	// comfortably inside the 64 MiB heap segment.
	_, _, err := runSrc(t, `
long main() {
	long p = malloc(2097152);
	memset(p, 65, 1048577);
	return strlen(p);
}`, nil, nil)
	if err == nil {
		t.Fatal("expected an error for the unterminated string")
	}
	var u *mem.UnterminatedString
	if !errors.As(err, &u) {
		t.Fatalf("want UnterminatedString, got %v", err)
	}
	var mf *vm.MemFault
	if errors.As(err, &mf) {
		t.Fatalf("unterminated string misreported as segmentation fault: %v", err)
	}
}
