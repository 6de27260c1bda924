// The zero-alloc probe: a pooled Machine running it under any layout
// engine must allocate nothing per run. It makes every kind of defended
// call: recursion (layout slabs at many depths), a frame above
// pbox.DefaultConfig().MaxTableAllocas (Smokestack decodes it at run
// time), a buffer CleanStack moves to the unsafe stack, and a VLA
// (Smokestack and Stackato pad it). It also mallocs, strcpys into a
// global (a host builtin staged through the Machine's buffers) and writes
// globals, so the heap and host paths stay pinned under every engine.
//
// Read by internal/vm's TestPoolZeroAllocSteadyState and by the root
// package's BenchmarkRunSetup (reset-smokestack, reset-stackato).
long gsum = 7;
char gname[32];
long fib(long n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
long wide(long a) {
	long x1 = a; long x2 = a + 1; long x3 = a + 2; long x4 = a + 3;
	long x5 = a + 4; long x6 = a + 5; long x7 = a + 6;
	char buf[32];
	buf[0] = x1;
	return x1 + x2 + x3 + x4 + x5 + x6 + x7 + buf[0];
}
long vla(long n) {
	char *v = stackbuf(n);
	v[0] = 1;
	v[n - 1] = 2;
	return v[0] + v[n - 1];
}
long main() {
	char *h = malloc(4096);
	long s = fib(8);
	h[100] = 5;
	strcpy(gname, "defended-calls");
	for (long i = 0; i < 4; i++) { s += wide(i) + vla(32 + i * 16); gsum = gsum + s; }
	return s + h[100] + gname[0] + gsum;
}
