package pbox

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// shapes used across tests.
var (
	shapeMixed = []Alloc{{64, 1}, {8, 8}, {8, 8}, {4, 4}, {1, 1}}
	shapeLongs = []Alloc{{8, 8}, {8, 8}, {8, 8}}
)

func cfgAllOff() Config {
	return Config{MaxTableAllocas: 6, PowerOfTwoRows: false, ShareTables: false,
		RoundUpAllocations: false, ShuffleSeed: 1, FrameAlign: 16}
}

// checkLayout verifies the fundamental frame invariants for one decoded
// layout: every allocation aligned, no two allocations overlap, all within
// the frame, frame size 16-aligned.
func checkLayout(allocs []Alloc, offsets []int64, size int64) error {
	type span struct{ lo, hi int64 }
	var spans []span
	for i, a := range allocs {
		off := offsets[i]
		if off < 0 {
			return fmt.Errorf("alloc %d: negative offset %d", i, off)
		}
		if off%a.Align != 0 {
			return fmt.Errorf("alloc %d: offset %d violates alignment %d", i, off, a.Align)
		}
		if off+a.Size > size {
			return fmt.Errorf("alloc %d: [%d,%d) exceeds frame %d", i, off, off+a.Size, size)
		}
		spans = append(spans, span{off, off + a.Size})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				return fmt.Errorf("allocs %d and %d overlap: [%d,%d) vs [%d,%d)",
					i, j, spans[i].lo, spans[i].hi, spans[j].lo, spans[j].hi)
			}
		}
	}
	if size%16 != 0 {
		return fmt.Errorf("frame size %d not 16-aligned", size)
	}
	return nil
}

func TestAllPermutationsValid(t *testing.T) {
	// Every row of a full table must satisfy the frame invariants.
	b := New(cfgAllOff())
	e := b.Register(shapeMixed)
	out := make([]int64, len(shapeMixed))
	for r := int64(0); r < e.Table.Rows; r++ {
		size := e.Layout(uint64(r), out)
		if err := checkLayout(shapeMixed, out, size); err != nil {
			t.Fatalf("row %d: %v", r, err)
		}
	}
	if e.Table.Perms != 120 {
		t.Fatalf("5 allocs should give 120 perms, got %d", e.Table.Perms)
	}
}

func TestAllPermutationsDistinct(t *testing.T) {
	// n distinct-size allocs: all n! rows must be distinct layouts.
	b := New(cfgAllOff())
	shape := []Alloc{{8, 8}, {16, 8}, {32, 8}, {4, 4}}
	e := b.Register(shape)
	seen := make(map[string]bool)
	out := make([]int64, len(shape))
	for r := int64(0); r < e.Table.Perms; r++ {
		e.Layout(uint64(r), out)
		k := fmt.Sprint(out)
		if seen[k] {
			t.Fatalf("duplicate layout at row %d: %v", r, out)
		}
		seen[k] = true
	}
	if len(seen) != 24 {
		t.Fatalf("expected 24 distinct layouts, got %d", len(seen))
	}
}

func TestDecodeLexicalIsLexicographic(t *testing.T) {
	// decodeLexical must enumerate permutations in lexical order.
	order := make([]int, 3)
	want := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for p := int64(0); p < 6; p++ {
		decodeLexical(p, 3, order)
		for i := range order {
			if order[i] != want[p][i] {
				t.Fatalf("perm %d: got %v, want %v", p, order, want[p])
			}
		}
	}
}

func TestQuickLayoutInvariants(t *testing.T) {
	// Property test: random shapes, random r, both table and runtime paths.
	prop := func(sizes []uint8, aligns []uint8, r uint64, maxTable uint8) bool {
		n := len(sizes)
		if n == 0 {
			return true
		}
		if n > 12 {
			n = 12
		}
		allocs := make([]Alloc, n)
		for i := 0; i < n; i++ {
			var a uint8
			if len(aligns) > 0 {
				a = aligns[i%len(aligns)]
			}
			al := int64(1) << (a % 4) // 1,2,4,8
			sz := int64(sizes[i])%200 + 1
			allocs[i] = Alloc{Size: sz, Align: al}
		}
		cfg := DefaultConfig()
		cfg.MaxTableAllocas = int(maxTable%8) + 1 // exercise both paths
		b := New(cfg)
		e := b.Register(allocs)
		out := make([]int64, n)
		size := e.Layout(r, out)
		return checkLayout(allocs, out, size) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerOfTwoRows(t *testing.T) {
	cfg := cfgAllOff()
	cfg.PowerOfTwoRows = true
	b := New(cfg)
	e := b.Register(shapeLongs) // 3! = 6 → 8 rows
	if e.Table.Rows != 8 {
		t.Fatalf("rows %d, want 8", e.Table.Rows)
	}
	// Wrapped rows must replicate earlier permutations: every row valid and
	// row i ≥ perms equals row i-perms... (wraparound copies row i%perms,
	// possibly shuffled; just validate all).
	out := make([]int64, 3)
	layouts := map[string]bool{}
	for r := uint64(0); r < 8; r++ {
		size := e.Layout(r, out)
		if err := checkLayout(shapeLongs, out, size); err != nil {
			t.Fatalf("row %d: %v", r, err)
		}
		layouts[fmt.Sprint(out)] = true
	}
	if len(layouts) != 6 {
		t.Fatalf("8 padded rows should cover exactly the 6 real perms, got %d", len(layouts))
	}
	// Mask indexing: r and r+8 give the same row.
	a := make([]int64, 3)
	bb := make([]int64, 3)
	e.Layout(5, a)
	e.Layout(5+8, bb)
	for i := range a {
		if a[i] != bb[i] {
			t.Fatal("mask indexing should wrap at 8")
		}
	}
}

func TestTableSharing(t *testing.T) {
	cfg := cfgAllOff()
	cfg.ShareTables = true
	b := New(cfg)
	e1 := b.Register([]Alloc{{8, 8}, {4, 4}}) // (long, int)
	e2 := b.Register([]Alloc{{4, 4}, {8, 8}}) // (int, long): same multiset
	e3 := b.Register([]Alloc{{8, 8}, {8, 8}}) // different multiset
	if e1.Table != e2.Table {
		t.Fatal("equal multisets must share a table")
	}
	if e1.Table == e3.Table {
		t.Fatal("different multisets must not share")
	}
	if !e2.Shared || e1.Shared {
		t.Fatal("sharing flags wrong")
	}
	if b.TableCount() != 2 || b.SharedCount() != 1 {
		t.Fatalf("tables=%d shared=%d", b.TableCount(), b.SharedCount())
	}
	// The shared entries must produce consistent (valid) layouts for each
	// function's own declaration order.
	out := make([]int64, 2)
	for r := uint64(0); r < 4; r++ {
		s1 := e1.Layout(r, out)
		if err := checkLayout([]Alloc{{8, 8}, {4, 4}}, out, s1); err != nil {
			t.Fatalf("e1 r=%d: %v", r, err)
		}
		s2 := e2.Layout(r, out)
		if err := checkLayout([]Alloc{{4, 4}, {8, 8}}, out, s2); err != nil {
			t.Fatalf("e2 r=%d: %v", r, err)
		}
	}
}

func TestRoundUpSharing(t *testing.T) {
	cfg := cfgAllOff()
	cfg.ShareTables = true
	cfg.RoundUpAllocations = true
	b := New(cfg)
	big := b.Register([]Alloc{{8, 8}, {8, 8}, {4, 4}}) // (long,long,int)
	small := b.Register([]Alloc{{8, 8}, {8, 8}})       // (long,long): one int short
	if small.Table != big.Table {
		t.Fatal("round-up sharing should reuse the bigger table")
	}
	if !small.Shared {
		t.Fatal("round-up entry must be marked shared")
	}
	// The smaller function's layout must still be valid (the padding slot
	// simply goes unused).
	out := make([]int64, 2)
	for r := uint64(0); r < 6; r++ {
		size := small.Layout(r, out)
		if err := checkLayout([]Alloc{{8, 8}, {8, 8}}, out, size); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
	}
}

func TestRuntimeMode(t *testing.T) {
	cfg := cfgAllOff()
	cfg.MaxTableAllocas = 3
	b := New(cfg)
	shape := []Alloc{{8, 8}, {8, 8}, {8, 8}, {8, 8}, {8, 8}}
	e := b.Register(shape)
	if !e.Runtime || e.Table != nil {
		t.Fatal("5 allocs over bound 3 must use runtime mode")
	}
	if b.RuntimeCount() != 1 {
		t.Fatal("runtime counter")
	}
	out := make([]int64, 5)
	distinct := map[string]bool{}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		size := e.Layout(rnd.Uint64(), out)
		if err := checkLayout(shape, out, size); err != nil {
			t.Fatalf("%v", err)
		}
		distinct[fmt.Sprint(out)] = true
	}
	if len(distinct) < 50 {
		t.Fatalf("runtime decode shows too little variety: %d distinct", len(distinct))
	}
	// Same r → same layout (pure function).
	a := make([]int64, 5)
	c := make([]int64, 5)
	e.Layout(999, a)
	e.Layout(999, c)
	if fmt.Sprint(a) != fmt.Sprint(c) {
		t.Fatal("runtime layout must be deterministic in r")
	}
}

func TestEmptyShape(t *testing.T) {
	b := New(DefaultConfig())
	e := b.Register(nil)
	out := make([]int64, 0)
	if size := e.Layout(12345, out); size != 0 {
		t.Fatalf("empty shape frame size %d", size)
	}
}

func TestMaxFrameSize(t *testing.T) {
	b := New(cfgAllOff())
	e := b.Register(shapeMixed)
	maxSize := e.MaxFrameSize()
	out := make([]int64, len(shapeMixed))
	for r := int64(0); r < e.Table.Rows; r++ {
		if size := e.Layout(uint64(r), out); size > maxSize {
			t.Fatalf("row %d size %d exceeds MaxFrameSize %d", r, size, maxSize)
		}
	}
	// Runtime mode returns a conservative bound.
	cfg := cfgAllOff()
	cfg.MaxTableAllocas = 2
	e2 := New(cfg).Register(shapeMixed)
	out2 := make([]int64, len(shapeMixed))
	for i := 0; i < 100; i++ {
		if size := e2.Layout(uint64(i)*0x9e3779b9, out2); size > e2.MaxFrameSize() {
			t.Fatalf("runtime size %d exceeds bound %d", size, e2.MaxFrameSize())
		}
	}
}

func TestRowShuffleBreaksLexicalAdjacency(t *testing.T) {
	// With shuffling, consecutive rows should (almost) never be consecutive
	// lexical permutations. Compare against an unshuffled decode.
	cfg := cfgAllOff()
	b := New(cfg)
	shape := []Alloc{{8, 8}, {16, 8}, {32, 8}, {64, 8}} // distinct sizes
	e := b.Register(shape)
	out := make([]int64, 4)
	adjacent := 0
	prevFirst := int64(-1)
	for r := int64(0); r < e.Table.Perms; r++ {
		e.Layout(uint64(r), out)
		if out[0] == prevFirst {
			adjacent++
		}
		prevFirst = out[0]
	}
	// Lexical order keeps the first element fixed for (n-1)! consecutive
	// rows; shuffled tables must not show long runs.
	if adjacent > int(e.Table.Perms)/2 {
		t.Fatalf("rows look lexically ordered: %d adjacent repeats of first slot", adjacent)
	}
}

func TestBytesAccounting(t *testing.T) {
	cfg := cfgAllOff()
	b := New(cfg)
	e := b.Register(shapeLongs) // 6 rows, stride 4 → 24 cells
	want := int64(6 * 4 * 4)
	if e.Table.Bytes() != want {
		t.Fatalf("bytes %d, want %d", e.Table.Bytes(), want)
	}
	if b.TotalBytes() != want {
		t.Fatalf("total %d, want %d", b.TotalBytes(), want)
	}
}

func TestSharedCacheDedupesBuilds(t *testing.T) {
	cache := NewCache()
	cfg := DefaultConfig()

	// Two independent boxes (two "programs") with the same canonical shape
	// must share one table object through the cache.
	b1 := NewWithCache(cfg, cache)
	b2 := NewWithCache(cfg, cache)
	e1 := b1.Register(shapeMixed)
	e2 := b2.Register(shapeMixed)
	if e1.Table != e2.Table {
		t.Fatal("cross-box registration of the same shape should share one cached table")
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}

	// Cached contents must be byte-identical to a private build.
	private := New(cfg).Register(shapeMixed)
	out := make([]int64, len(shapeMixed))
	outP := make([]int64, len(shapeMixed))
	for r := uint64(0); r < uint64(e1.Table.Rows); r++ {
		s := e1.Layout(r, out)
		sp := private.Layout(r, outP)
		if s != sp {
			t.Fatalf("row %d: cached size %d != private %d", r, s, sp)
		}
		for i := range out {
			if out[i] != outP[i] {
				t.Fatalf("row %d alloc %d: cached off %d != private %d", r, i, out[i], outP[i])
			}
		}
	}

	// A differently-shuffled config must not collide with the cached table.
	cfg2 := cfg
	cfg2.ShuffleSeed = cfg.ShuffleSeed + 1
	e3 := NewWithCache(cfg2, cache).Register(shapeMixed)
	if e3.Table == e1.Table {
		t.Fatal("different shuffle seed must build a distinct table")
	}
}

func TestSharedCacheKeepsBoxAccounting(t *testing.T) {
	cache := NewCache()
	cfg := DefaultConfig()
	withCache := NewWithCache(cfg, cache)
	private := New(cfg)
	for _, shapes := range [][]Alloc{shapeMixed, shapeLongs, shapeMixed} {
		withCache.Register(shapes)
		private.Register(shapes)
	}
	if withCache.TableCount() != private.TableCount() {
		t.Errorf("table count %d != private %d", withCache.TableCount(), private.TableCount())
	}
	if withCache.TotalBytes() != private.TotalBytes() {
		t.Errorf("total bytes %d != private %d", withCache.TotalBytes(), private.TotalBytes())
	}
	if withCache.SharedCount() != private.SharedCount() {
		t.Errorf("shared count %d != private %d", withCache.SharedCount(), private.SharedCount())
	}
}

// runtimeLayoutRef is runtimeLayout as it was with a scratch order slice:
// the reference the scratch-free version must match.
func runtimeLayoutRef(allocs []Alloc, r uint64, out []int64, frameAlign int64) int64 {
	order := make([]int, len(allocs))
	for i := range order {
		order[i] = i
	}
	shuffle(order, r)
	var ind int64
	for _, ai := range order {
		ind = alignUp(ind, allocs[ai].Align)
		out[ai] = ind
		ind += allocs[ai].Size
	}
	return alignUp(ind, frameAlign)
}

// TestRuntimeLayoutMatchesReference checks the scratch-free run-time
// decode against the reference on random shapes, one-alloca ones
// included, and on frames of 2.2-2.5 GiB: the packed offsets are 32-bit,
// so offsets past 2 GiB must come back unsigned.
func TestRuntimeLayoutMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(0x5c4a7c))
	aligns := []int64{1, 2, 4, 8, 16}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rnd.Intn(40)
		minSize, maxSize := int64(1), int64(1)<<(1+rnd.Intn(20))
		if trial%100 == 0 {
			n, minSize, maxSize = 40, 56<<20, 64<<20
		}
		allocs := make([]Alloc, n)
		for i := range allocs {
			allocs[i] = Alloc{Size: minSize + rnd.Int63n(maxSize-minSize+1), Align: aligns[rnd.Intn(len(aligns))]}
		}
		r := rnd.Uint64()
		got, want := make([]int64, n), make([]int64, n)
		gs, ws := runtimeLayout(allocs, r, got, 16), runtimeLayoutRef(allocs, r, want, 16)
		if gs != ws || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%d allocs, r=%#x): size %d offsets %v, reference %d %v", trial, n, r, gs, got, ws, want)
		}
	}
}
