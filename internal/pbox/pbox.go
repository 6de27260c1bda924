// Package pbox implements the paper's permutation box (P-BOX): a read-only
// table, built at compile time, holding every possible permutation of a
// function's stack allocations together with the frame offsets each
// permutation induces (Algorithm 1). At run time the Smokestack prologue
// indexes the table with a random number to obtain the invocation's layout.
//
// The three optimizations of §III-E are implemented and individually
// switchable for the ablation experiment (E8):
//
//   - Power-of-two rows: the table is padded (with wrapped-around copies) to
//     the next power of two so the prologue masks instead of taking a
//     modulo.
//   - Table sharing ("Rearranging Stack Allocations"): functions whose
//     allocation multisets are equal share one table; each function keeps
//     only a small mapping from its allocation order to the canonical one.
//   - Rounding up allocations: a function whose shape equals an existing
//     table's shape minus one primitive allocation reuses that table,
//     treating the extra allocation as padding.
//
// Tables are bounded: a function with more than Config.MaxTableAllocas
// allocations gets no table; its layout is decoded on the fly from the
// random value (a Fisher–Yates permutation), at a higher modeled prologue
// cost. Real deployments face the same N! explosion; the paper does not
// spell out its bound, so ours is explicit and configurable.
package pbox

import (
	"fmt"
	"sort"
	"sync"
)

// Alloc describes one stack allocation: the only inputs Algorithm 1 needs.
type Alloc struct {
	Size  int64
	Align int64
}

// Config selects table bounds and optimizations.
type Config struct {
	// MaxTableAllocas caps full-table generation; above it, layouts are
	// decoded at run time. Default 6 (6! = 720 permutations, padded to 1024
	// rows): one table costs ~28 KB, which keeps the P-BOX's share of the
	// resident set in the regime the paper's Fig 4 reports. 8! tables would
	// cost 2.3 MB each.
	MaxTableAllocas int
	// PowerOfTwoRows pads tables to 2^k rows for mask-based indexing.
	PowerOfTwoRows bool
	// ShareTables enables the canonical-multiset sharing optimization.
	ShareTables bool
	// RoundUpAllocations enables sharing with one-extra-primitive tables.
	RoundUpAllocations bool
	// ShuffleSeed seeds the compile-time row shuffle that breaks lexical
	// correlation between adjacent rows.
	ShuffleSeed uint64
	// FrameAlign is the final frame size alignment (default 16).
	FrameAlign int64
}

// DefaultConfig returns the configuration used by the paper's full system:
// all optimizations on.
func DefaultConfig() Config {
	return Config{
		MaxTableAllocas:    6,
		PowerOfTwoRows:     true,
		ShareTables:        true,
		RoundUpAllocations: true,
		ShuffleSeed:        0x5eed,
		FrameAlign:         16,
	}
}

// Table is one P-BOX entry table for a canonical allocation shape. Rows are
// stored flattened: row r occupies cells [r*stride, (r+1)*stride) where
// stride = len(Allocs)+1; the final cell is the row's frame size.
type Table struct {
	Allocs []Alloc
	Perms  int64 // n!
	Rows   int64 // Perms, or next power of two when padded
	cells  []uint32
	mask   uint64 // Rows-1 when power-of-two, else 0
}

func (t *Table) stride() int { return len(t.Allocs) + 1 }

// Bytes returns the read-only data footprint of the table, the quantity
// behind the paper's Fig 4 memory overhead.
func (t *Table) Bytes() int64 { return int64(len(t.cells)) * 4 }

// Row returns the offsets (one per canonical allocation) and frame size for
// random value r.
func (t *Table) Row(r uint64) (offsets []uint32, size uint32) {
	var idx uint64
	if t.mask != 0 {
		idx = r & t.mask
	} else {
		idx = r % uint64(t.Rows)
	}
	s := t.stride()
	base := int(idx) * s
	row := t.cells[base : base+s]
	return row[:s-1], row[s-1]
}

// Entry binds one function to its table (or to runtime decoding).
type Entry struct {
	// Table is nil in runtime mode.
	Table *Table
	// PosOf maps the function's allocation index to the canonical position
	// within Table.Allocs (identity in runtime mode).
	PosOf []int
	// Runtime marks on-the-fly decoding (too many allocations for a table).
	Runtime bool
	// Shared marks that this entry reuses a table built for another shape
	// (either identical multiset or round-up sharing).
	Shared bool

	allocs     []Alloc // the function's own allocations, original order
	frameAlign int64
}

// NumAllocs returns the function's allocation count.
func (e *Entry) NumAllocs() int { return len(e.allocs) }

// Layout fills out[i] with the frame offset of the function's i-th
// allocation for random value r, and returns the frame size. len(out) must
// equal NumAllocs — violating that is a caller bug, asserted by panic like
// a slice-bounds failure; no program input or entropy state can reach it
// (environmental failures surface as typed errors upstream, in rng).
func (e *Entry) Layout(r uint64, out []int64) int64 {
	if len(out) != len(e.allocs) {
		panic(fmt.Sprintf("pbox: Layout buffer has %d slots, function has %d allocas", len(out), len(e.allocs)))
	}
	if e.Runtime {
		return runtimeLayout(e.allocs, r, out, e.frameAlign)
	}
	offsets, size := e.Table.Row(r)
	for i, pos := range e.PosOf {
		out[i] = int64(offsets[pos])
	}
	return int64(size)
}

// Cache is a concurrency-safe build cache for P-BOX tables, shared
// across Boxes. A Table is an immutable, deterministic function of the
// allocation sequence it is built over plus the config fields that shape
// it (row padding, shuffle seed, frame alignment) — so once any program
// has paid for a table, every other program (or concurrently-running
// experiment cell) with the same frame shape reuses it for free. This is
// the paper's §III-E table-sharing optimization lifted from
// within-one-binary to across-the-whole-experiment-grid.
//
// Boxes using a shared Cache report the same TableCount/TotalBytes as
// unshared ones: the cache dedupes the *build work and host memory*, not
// the modeled per-binary footprint.
type Cache struct {
	mu     sync.Mutex
	tables map[string]*Table
	hits   int
	misses int
}

// NewCache creates an empty shared table cache.
func NewCache() *Cache {
	return &Cache{tables: make(map[string]*Table)}
}

// table returns the cached table for key, building and caching it on
// miss. The build runs under the lock: table generation is deterministic,
// and serializing duplicate builds is exactly what the cache is for.
func (c *Cache) table(key string, build func() *Table) *Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.tables[key]; ok {
		c.hits++
		return t
	}
	c.misses++
	t := build()
	c.tables[key] = t
	return t
}

// Stats reports cache hits and misses (for tooling and tests).
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports the number of cached tables (telemetry gauge).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tables)
}

// Box accumulates the P-BOX tables for a whole program.
type Box struct {
	cfg     Config
	cache   *Cache // optional cross-program table cache (nil = private builds)
	tables  map[string]*Table
	order   []string // deterministic iteration
	entries int
	sharedN int
	runtime int
}

// New creates an empty Box with the given configuration.
func New(cfg Config) *Box { return NewWithCache(cfg, nil) }

// NewWithCache creates an empty Box whose table builds go through the
// given shared cache (nil behaves like New).
func NewWithCache(cfg Config, cache *Cache) *Box {
	if cfg.MaxTableAllocas <= 0 {
		cfg.MaxTableAllocas = 6
	}
	if cfg.MaxTableAllocas > 10 {
		cfg.MaxTableAllocas = 10 // 10! rows is already 3.6M; hard ceiling
	}
	if cfg.FrameAlign <= 0 {
		cfg.FrameAlign = 16
	}
	return &Box{cfg: cfg, cache: cache, tables: make(map[string]*Table)}
}

// Config returns the box configuration.
func (b *Box) Config() Config { return b.cfg }

// TableCount returns the number of distinct tables built.
func (b *Box) TableCount() int { return len(b.tables) }

// EntryCount returns the number of registered functions.
func (b *Box) EntryCount() int { return b.entries }

// SharedCount returns how many entries reuse a previously built table.
func (b *Box) SharedCount() int { return b.sharedN }

// RuntimeCount returns how many entries exceeded the table bound.
func (b *Box) RuntimeCount() int { return b.runtime }

// TotalBytes returns the read-only data footprint of all tables.
func (b *Box) TotalBytes() int64 {
	var n int64
	for _, t := range b.tables {
		n += t.Bytes()
	}
	return n
}

// key canonicalizes an allocation multiset: sizes/aligns sorted descending.
func key(allocs []Alloc) string {
	s := ""
	for _, a := range allocs {
		s += fmt.Sprintf("%d/%d;", a.Size, a.Align)
	}
	return s
}

// canonical returns the multiset sorted (size desc, align desc) plus the
// mapping origIndex -> canonicalIndex.
func canonical(allocs []Alloc) ([]Alloc, []int) {
	type tagged struct {
		a    Alloc
		orig int
	}
	tags := make([]tagged, len(allocs))
	for i, a := range allocs {
		tags[i] = tagged{a, i}
	}
	sort.SliceStable(tags, func(i, j int) bool {
		if tags[i].a.Size != tags[j].a.Size {
			return tags[i].a.Size > tags[j].a.Size
		}
		if tags[i].a.Align != tags[j].a.Align {
			return tags[i].a.Align > tags[j].a.Align
		}
		return tags[i].orig < tags[j].orig
	})
	canon := make([]Alloc, len(tags))
	posOf := make([]int, len(tags))
	for ci, t := range tags {
		canon[ci] = t.a
		posOf[t.orig] = ci
	}
	return canon, posOf
}

// primitivePads are the allocation shapes RoundUpAllocations may add when
// probing for a reusable larger table.
var primitivePads = []Alloc{{Size: 8, Align: 8}, {Size: 4, Align: 4}, {Size: 1, Align: 1}}

// Register adds a function's allocation list to the box and returns its
// entry. Registration order matters for sharing (a later function can only
// reuse tables already built), mirroring a compiler's module pass.
func (b *Box) Register(allocs []Alloc) *Entry {
	b.entries++
	own := append([]Alloc(nil), allocs...)
	e := &Entry{allocs: own, frameAlign: b.cfg.FrameAlign}
	if len(allocs) == 0 {
		e.PosOf = []int{}
		e.Table = b.emptyTable()
		return e
	}
	if len(allocs) > b.cfg.MaxTableAllocas {
		e.Runtime = true
		e.PosOf = identity(len(allocs))
		b.runtime++
		return e
	}
	canon, posOf := canonical(allocs)
	if !b.cfg.ShareTables {
		// Every function gets a private table over its own declaration
		// order (no canonicalization benefit).
		t := b.newTable(own)
		b.addTable(fmt.Sprintf("!private%d!%s", b.entries, key(own)), t)
		e.Table = t
		e.PosOf = identity(len(allocs))
		return e
	}
	k := key(canon)
	if t, ok := b.tables[k]; ok {
		e.Table = t
		e.PosOf = posOf
		e.Shared = true
		b.sharedN++
		return e
	}
	if b.cfg.RoundUpAllocations && len(canon) < b.cfg.MaxTableAllocas {
		// Probe for an existing table whose shape is ours plus one primitive.
		for _, pad := range primitivePads {
			bigger, bigPos := canonical(append(append([]Alloc(nil), canon...), pad))
			if t, ok := b.tables[key(bigger)]; ok {
				// bigPos[i] is where canon[i] landed in the bigger shape; the
				// pad (original index len(canon)) is skipped.
				e.Table = t
				e.PosOf = make([]int, len(allocs))
				for orig, ci := range posOf {
					e.PosOf[orig] = bigPos[ci]
				}
				e.Shared = true
				b.sharedN++
				return e
			}
		}
	}
	t := b.newTable(canon)
	b.addTable(k, t)
	e.Table = t
	e.PosOf = posOf
	return e
}

// newTable builds (or fetches from the shared cache) the table for the
// exact allocation sequence. The cache key carries every config field a
// table's contents depend on; sequences registered under ShareTables
// arrive canonicalized, so equal multisets collide into one cached table
// across programs.
func (b *Box) newTable(allocs []Alloc) *Table {
	if b.cache == nil {
		return b.buildTable(allocs)
	}
	k := fmt.Sprintf("pow2=%t;shuf=%d;align=%d|%s",
		b.cfg.PowerOfTwoRows, b.cfg.ShuffleSeed, b.cfg.FrameAlign, key(allocs))
	return b.cache.table(k, func() *Table { return b.buildTable(allocs) })
}

func (b *Box) addTable(k string, t *Table) {
	b.tables[k] = t
	b.order = append(b.order, k)
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// emptyTable is the degenerate single-row table for functions without
// allocations (they still get a guard-only frame when guards are enabled).
func (b *Box) emptyTable() *Table {
	t := &Table{Perms: 1, Rows: 1, cells: []uint32{0}}
	// stride = 1 (size only); frame size 0.
	return t
}

// factorial returns n! (n ≤ 12 fits easily in int64 for our bound of 10).
func factorial(n int) int64 {
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}

func nextPow2(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// buildTable generates all n! permutations of allocs (Algorithm 1), applies
// the compile-time row shuffle, and pads to a power of two when configured.
func (b *Box) buildTable(allocs []Alloc) *Table {
	n := len(allocs)
	perms := factorial(n)
	rows := perms
	var mask uint64
	if b.cfg.PowerOfTwoRows {
		rows = nextPow2(perms)
		mask = uint64(rows) - 1
	}
	t := &Table{
		Allocs: append([]Alloc(nil), allocs...),
		Perms:  perms,
		Rows:   rows,
		mask:   mask,
	}
	stride := t.stride()
	t.cells = make([]uint32, int(rows)*stride)

	// Row shuffle: write permutation p into a shuffled destination row to
	// break lexical correlation between adjacent rows (§III-D).
	dest := identity(int(perms))
	shuffle(dest, b.cfg.ShuffleSeed^uint64(perms)*0x9e3779b97f4a7c15)

	order := make([]int, n)
	for p := int64(0); p < perms; p++ {
		decodeLexical(p, n, order)
		row := t.cells[dest[p]*stride : (dest[p]+1)*stride]
		size := offsetsFor(allocs, order, row[:n])
		row[n] = uint32(alignUp(size, b.cfg.FrameAlign))
	}
	// Wrap-around padding rows.
	for r := perms; r < rows; r++ {
		src := t.cells[int(r%perms)*stride : (int(r%perms)+1)*stride]
		copy(t.cells[int(r)*stride:(int(r)+1)*stride], src)
	}
	return t
}

// decodeLexical writes the p-th lexical-order permutation of {0..n-1} into
// order. This is the factoradic decode at the heart of Algorithm 1
// (PERMUTE's inner loop).
func decodeLexical(p int64, n int, order []int) {
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i
	}
	temp := p
	for i := 0; i < n; i++ {
		f := factorial(n - i - 1)
		e := temp / f
		temp %= f
		order[i] = avail[e]
		avail = append(avail[:e], avail[e+1:]...)
	}
}

// offsetsFor assigns frame offsets following the chosen order, inserting
// alignment padding per the ALIGN procedure, and returns the total extent.
// out[allocIndex] receives the allocation's offset.
func offsetsFor(allocs []Alloc, order []int, out []uint32) int64 {
	var ind int64
	for _, ai := range order {
		ind = alignUp(ind, allocs[ai].Align)
		out[ai] = uint32(ind)
		ind += allocs[ai].Size
	}
	return ind
}

func alignUp(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	if rem := n % a; rem != 0 {
		return n + a - rem
	}
	return n
}

// shuffle is a deterministic Fisher–Yates over ints seeded by a splitmix64
// stream.
func shuffle[T int | int64](p []T, seed uint64) {
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
}

// runtimeLayout decodes a layout directly from the random value for
// functions too large for a table: a Fisher–Yates permutation seeded by r.
// This path trades prologue cycles for table memory; the layout engine
// prices it accordingly. It needs no scratch, as a prologue computing the
// permutation in registers would not: the order lives in the low 32 bits
// of out, and each allocation's offset is added above its order entry.
// Offsets are 32-bit like table cells, far above any frame the stack fits.
func runtimeLayout(allocs []Alloc, r uint64, out []int64, frameAlign int64) int64 {
	for i := range out {
		out[i] = int64(i)
	}
	shuffle(out, r)
	var ind int64
	for _, v := range out {
		a := allocs[uint32(v)]
		ind = alignUp(ind, a.Align)
		out[uint32(v)] |= ind << 32
		ind += a.Size
	}
	for i, v := range out {
		out[i] = int64(uint64(v) >> 32)
	}
	return alignUp(ind, frameAlign)
}

// MaxFrameSize returns the largest frame size across all rows of the entry's
// table (or a conservative bound in runtime mode): the stack reservation a
// compiler would need.
func (e *Entry) MaxFrameSize() int64 {
	if e.Runtime || e.Table == nil {
		var total, worstPad int64
		for _, a := range e.allocs {
			total += a.Size
			worstPad += a.Align - 1
		}
		return alignUp(total+worstPad, e.frameAlign)
	}
	stride := e.Table.stride()
	var maxSize uint32
	for r := int64(0); r < e.Table.Rows; r++ {
		if s := e.Table.cells[int(r)*stride+stride-1]; s > maxSize {
			maxSize = s
		}
	}
	return int64(maxSize)
}
