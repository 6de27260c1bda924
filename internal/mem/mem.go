// Package mem implements the simulated byte-addressed memory the VM runs
// against. Memory is divided into segments (read-only data, globals, heap,
// stack). Addresses are flat 64-bit values; accesses that leave every
// segment fault (the simulated SIGSEGV), while accesses *within* a segment
// succeed unconditionally — an out-of-bounds array write that stays inside
// the stack segment silently corrupts neighbouring data, exactly the C
// behaviour DOP attacks rely on.
//
// Segments are backed on demand: mapping one reserves its whole address
// range, but host bytes are allocated only around the addresses accessed,
// so a 64 MiB heap or an 8 MiB stack costs what a run touches of it.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Default segment geometry. The bases are far apart so stray pointer
// arithmetic faults instead of silently landing in another segment.
const (
	RodataBase = 0x0001_0000
	GlobalBase = 0x0010_0000
	HeapBase   = 0x2000_0000
	StackTop   = 0x7fff_0000 // stack occupies [StackTop-StackSize, StackTop)
	StackSize  = 8 << 20     // 8 MiB

	// The "unsafe" stack used by dual-stack engines (CleanStack). It sits
	// below the main stack with a gap, so a linear overflow of an unsafe
	// buffer faults before it can reach main-stack scalars or integrity
	// slots. Mapped only when the layout engine implements
	// layout.DualStacker.
	UnsafeStackTop  = 0x7f00_0000 // [UnsafeStackTop-UnsafeStackSize, UnsafeStackTop)
	UnsafeStackSize = 4 << 20     // 4 MiB
)

// AccessKind distinguishes read and write faults.
type AccessKind int

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Fault is a memory access violation: the simulated segmentation fault.
type Fault struct {
	Addr uint64
	Size int
	Kind AccessKind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("segmentation fault: %s of %d bytes at 0x%x", f.Kind, f.Size, f.Addr)
}

// UnterminatedString reports a bounded C-string scan that exhausted its
// byte budget without finding a NUL terminator while still inside a mapped
// segment. It is distinct from Fault: the addresses involved are valid, the
// string is just longer than the caller was willing to scan.
type UnterminatedString struct {
	Addr  uint64 // scan start
	Limit int    // bytes examined
}

func (e *UnterminatedString) Error() string {
	return fmt.Sprintf("unterminated string: no NUL within %d bytes of 0x%x", e.Limit, e.Addr)
}

// Segment is one contiguous address range, backed on demand. Map reserves
// the logical range [Base, End()) at once — every address in it resolves,
// reads and (if Writable) writes exactly as in an eagerly allocated
// segment — but allocates host bytes only for the backed window
// [dataBase, dataEnd). The window starts empty; the first access that
// misses it backs the backChunk-aligned chunk holding the access, and each
// later miss at least doubles the window toward it (clamped to the logical
// range, copying what was backed). Bytes outside the window have never
// been written and read as the zeros they are. Growth happens only in
// FindSegment's segment walk, where every direct accessor's and
// interpreter core's miss already lands, so no hot path checks for it.
type Segment struct {
	Name     string
	Base     uint64
	Writable bool
	data     []byte // backing of [dataBase, dataEnd)
	end      uint64 // Base + size: the segment's logical extent
	// dataBase/dataEnd bound the backed window. Equal (both Base) until
	// the first access, so the hot-path contains check fails and callers
	// fall through to the backing FindSegment walk.
	dataBase, dataEnd uint64
	// touchLo/touchHi bound the touched window [touchLo, touchHi): every
	// byte that may differ from the segment's pristine contents lies inside
	// it, and it always lies inside the backed window. For read-only
	// segments the window is pinned to the backed window. For writable
	// segments it starts empty (touchLo == touchHi) and widens
	// monotonically: every write path widens it before storing,
	// and FindSegment widens it on any resolution so interpreter fast paths
	// that subsequently go through View stay fast. The window is what makes
	// copy-on-reset cheap — Restore only rewrites the touched span — and it
	// doubles as the bound on the View fast path, which is how open-coded
	// interpreter stores are captured without any per-store bookkeeping: a
	// store outside the window fails the view bounds probe, takes the slow
	// path once, and the slow path widens the window.
	touchLo, touchHi uint64
	// viewData is data[touchLo-dataBase:], kept in sync by widen/back so
	// View stays a three-field return (it must inline into interpreter
	// cores). nil while the window is empty.
	viewData []byte
	// pristine is the sealed baseline image (Seal). nil means the baseline
	// is all-zero bytes, which holds for every segment that was untouched
	// when sealed (stack, heap); segments carrying an initialization image
	// (globals) are fully backed and get a full copy.
	pristine []byte
}

// backChunk is the backing a segment gets at its first miss: a few stack
// frames or heap blocks, so a short run backs kilobytes, not the segment.
const backChunk = 4 << 10

// grow extends the backed window to cover [addr, addr+n), a range inside
// the logical extent: a first backing is the backChunk-aligned chunk
// holding the access, a later one at least doubles the window toward it.
func (s *Segment) grow(addr uint64, n int) {
	// Offsets from Base, so the doubling arithmetic cannot wrap.
	lo, hi := addr-s.Base, addr-s.Base+uint64(n)
	blo, bhi := s.dataBase-s.Base, s.dataEnd-s.Base
	if size := bhi - blo; size == 0 {
		lo -= lo % backChunk
		hi = max(hi, lo+backChunk)
	} else {
		if lo < blo {
			lo = min(lo, bhi-min(2*size, bhi))
		} else {
			lo = blo
		}
		if hi > bhi {
			hi = max(hi, blo+2*size)
		} else {
			hi = bhi
		}
	}
	s.back(s.Base+lo, s.Base+min(hi, s.Size()))
}

// back re-backs the segment over [lo, hi), a range covering the backed
// window, copying the backed bytes and re-aiming the window views.
func (s *Segment) back(lo, hi uint64) {
	data := make([]byte, hi-lo)
	if len(s.data) > 0 {
		copy(data[s.dataBase-lo:], s.data)
	}
	s.data, s.dataBase, s.dataEnd = data, lo, hi
	if !s.Writable {
		s.pinWindow()
	} else if s.touchHi > s.touchLo {
		s.viewData = data[s.touchLo-lo:]
	}
}

// backAll backs the whole logical extent.
func (s *Segment) backAll() {
	if s.dataBase != s.Base || s.dataEnd != s.end {
		s.back(s.Base, s.end)
	}
}

// touch widens the touched window to cover [addr, addr+n). Callers
// guarantee the range lies inside the backed extent. The fast path — range
// already inside the window — is two compares, cheap enough for every
// write-path accessor.
func (s *Segment) touch(addr uint64, n int) {
	end := addr + uint64(n)
	if addr >= s.touchLo && end <= s.touchHi {
		return
	}
	s.widen(addr, end)
}

// widen grows the touched window to include [addr, end) and re-aims the
// view slice. Split from touch so touch's fast path stays inlinable.
func (s *Segment) widen(addr, end uint64) {
	if s.touchHi == s.touchLo {
		s.touchLo, s.touchHi = addr, end
	} else {
		if addr < s.touchLo {
			s.touchLo = addr
		}
		if end > s.touchHi {
			s.touchHi = end
		}
	}
	s.viewData = s.data[s.touchLo-s.dataBase:]
}

// resetWindow empties a writable segment's touched window.
func (s *Segment) resetWindow() {
	s.touchLo, s.touchHi = s.Base, s.Base
	s.viewData = nil
}

// pinWindow pins the window to the backed window (read-only segments, and
// writable segments whose raw backing has been handed out via Bytes).
func (s *Segment) pinWindow() {
	s.touchLo, s.touchHi = s.dataBase, s.dataEnd
	s.viewData = s.data
}

// Size returns the segment length in bytes.
func (s *Segment) Size() uint64 { return s.end - s.Base }

// End returns one past the last valid address.
func (s *Segment) End() uint64 { return s.end }

// contains reports whether [addr, addr+n) lies inside the segment's backed
// window. Deliberately bounded by the backed window, not the logical
// range: an access outside it routes every direct accessor to the slow
// path, where FindSegment backs it.
func (s *Segment) contains(addr uint64, n int) bool {
	return addr >= s.dataBase && addr+uint64(n) <= s.dataEnd && addr+uint64(n) >= addr
}

// spans reports whether [addr, addr+n) lies inside the segment's logical
// address range, backed or not.
func (s *Segment) spans(addr uint64, n int) bool {
	return addr >= s.Base && addr+uint64(n) <= s.end && addr+uint64(n) >= addr
}

// Bytes exposes the raw backing store of the whole segment (for writing
// program images and for test digests), backing the full extent first.
// Because the returned slice is a writable alias outside all tracked
// accessors, a writable segment's touched window is conservatively pinned
// to the whole segment: anything may have changed by the time it matters.
func (s *Segment) Bytes() []byte {
	s.backAll()
	if s.Writable {
		s.pinWindow()
	}
	return s.data
}

// Contains reports whether [addr, addr+n) lies inside the segment's
// backed window (the exported form of the hot-path range check, for
// callers holding a segment view).
func (s *Segment) Contains(addr uint64, n int) bool { return s.contains(addr, n) }

// View returns the backing store and its address bounds in one tiny
// (always-inlinable) call, for interpreter loops that open-code the
// ReadU64At/WriteU64At fast path: those loops are far past the inliner's
// big-function threshold, where only very small callees still inline, so
// the method forms cost a real call per access. The returned slice
// aliases the segment and is valid until the next widen or growth.
//
// The view spans the segment's touched window, not its full extent: for
// read-only segments the two coincide, while a writable segment exposes
// only [touchLo, touchHi). An access outside the window (including any
// access to an unbacked or untouched segment — the window is empty, so
// every probe fails) sends the caller to its slow path, which widens
// the window through the Memory accessors and re-aims the view; from then
// on the access pattern is served inline again. That round-trip is paid
// once per window extreme, and in exchange every byte an interpreter core
// can possibly have dirtied is provably inside the window — the invariant
// copy-on-reset (Seal/Restore) depends on. Callers writing through the
// view must check Writable themselves.
func (s *Segment) View() (data []byte, base, dataEnd uint64) {
	return s.viewData, s.touchLo, s.touchHi
}

// ReadU64At reads the 8-byte little-endian value at addr directly from the
// segment, skipping segment resolution entirely. ok is false when the range
// leaves the segment. This is the fast path for callers that know which
// segment they are touching (the VM's stack-segment guard slots).
func (s *Segment) ReadU64At(addr uint64) (uint64, bool) {
	if !s.contains(addr, 8) {
		return 0, false
	}
	off := addr - s.dataBase
	return binary.LittleEndian.Uint64(s.data[off : off+8]), true
}

// WriteU64At stores an 8-byte little-endian value at addr directly in the
// segment; false when the range leaves the segment or it is read-only.
func (s *Segment) WriteU64At(addr uint64, val uint64) bool {
	if !s.Writable || !s.contains(addr, 8) {
		return false
	}
	s.touch(addr, 8)
	off := addr - s.dataBase
	binary.LittleEndian.PutUint64(s.data[off:off+8], val)
	return true
}

// ReadU32At reads the 4-byte little-endian value at addr directly from the
// segment. Width-specialized so it inlines into interpreter hot loops.
func (s *Segment) ReadU32At(addr uint64) (uint32, bool) {
	if !s.contains(addr, 4) {
		return 0, false
	}
	off := addr - s.dataBase
	return binary.LittleEndian.Uint32(s.data[off : off+4]), true
}

// ReadU8At reads the byte at addr directly from the segment.
func (s *Segment) ReadU8At(addr uint64) (byte, bool) {
	if !s.contains(addr, 1) {
		return 0, false
	}
	return s.data[addr-s.dataBase], true
}

// WriteU32At stores a 4-byte little-endian value at addr directly in the
// segment; false when the range leaves the segment or it is read-only.
func (s *Segment) WriteU32At(addr uint64, val uint32) bool {
	if !s.Writable || !s.contains(addr, 4) {
		return false
	}
	s.touch(addr, 4)
	off := addr - s.dataBase
	binary.LittleEndian.PutUint32(s.data[off:off+4], val)
	return true
}

// WriteU8At stores one byte at addr directly in the segment.
func (s *Segment) WriteU8At(addr uint64, val byte) bool {
	if !s.Writable || !s.contains(addr, 1) {
		return false
	}
	s.touch(addr, 1)
	s.data[addr-s.dataBase] = val
	return true
}

// WriteUAt stores the low n bytes of val (n ∈ {1,4,8}) at addr directly in
// the segment; false when the range leaves the segment, the segment is
// read-only, or the width is unsupported. The width-parameterized sibling
// of WriteU64At, for callers that know the target segment but not the
// operand size (the VM's argument spill).
func (s *Segment) WriteUAt(addr uint64, n int, val uint64) bool {
	if !s.Writable || !s.contains(addr, n) {
		return false
	}
	s.touch(addr, n)
	off := addr - s.dataBase
	switch n {
	case 8:
		binary.LittleEndian.PutUint64(s.data[off:off+8], val)
	case 4:
		binary.LittleEndian.PutUint32(s.data[off:off+4], uint32(val))
	case 1:
		s.data[off] = byte(val)
	default:
		return false
	}
	return true
}

// Memory is a set of segments.
//
// Memory is NOT safe for concurrent use: the accessors keep a one-entry
// segment cache that both reads and writes mutate. Each simulated machine
// owns its Memory and runs on one goroutine (the experiment pipeline's
// per-cell model), which is the intended usage.
type Memory struct {
	segs []*Segment
	// last/prev form a two-entry segment cache: simulated access streams are
	// overwhelmingly runs within one segment, or an alternation between two
	// (stack locals interleaved with a heap buffer in a tight loop), so the
	// common lookup is one or two range checks instead of a linear segment
	// walk.
	last *Segment
	prev *Segment
	// cacheHits/cacheWalks count cached-accessor lookups that were served
	// by the last/prev entries vs. ones that took the linear segment walk
	// (whether or not the walk found a segment). Plain fields — Memory is
	// single-goroutine by contract; the VM profiler snapshots them as
	// deltas at run boundaries (Machine.flushProfile).
	cacheHits  uint64
	cacheWalks uint64
	// sealed records that Seal captured a pristine baseline; Restore
	// refuses to run without one (it would misread initialized segments
	// as zero-pristine).
	sealed bool
}

// CacheStats reports the segment cache's cumulative hit and walk counts.
func (m *Memory) CacheStats() (hits, walks uint64) { return m.cacheHits, m.cacheWalks }

// New creates an empty memory.
func New() *Memory { return &Memory{} }

// MapError reports an invalid segment mapping (currently: an address-range
// overlap with an existing segment).
type MapError struct {
	Name       string // segment being mapped
	Base, Size uint64
	Existing   string // segment it collides with
	ExistBase  uint64
	ExistEnd   uint64
}

func (e *MapError) Error() string {
	return fmt.Sprintf("mem: segment %s [0x%x,0x%x) overlaps %s [0x%x,0x%x)",
		e.Name, e.Base, e.Base+e.Size, e.Existing, e.ExistBase, e.ExistEnd)
}

// checkOverlap validates a prospective mapping against existing segments.
func (m *Memory) checkOverlap(name string, base, size uint64) error {
	for _, s := range m.segs {
		if base < s.End() && base+size > s.Base {
			return &MapError{Name: name, Base: base, Size: size,
				Existing: s.Name, ExistBase: s.Base, ExistEnd: s.End()}
		}
	}
	return nil
}

// Map reserves a segment and returns it, or a *MapError when the address
// range collides with an existing segment. The segment is backed on demand
// (see Segment). This is the library-path API: callers with attacker- or
// fuzzer-influenced sizes must use it and route the error; AddSegment is
// the Must-style wrapper for layouts that are fixed by construction.
func (m *Memory) Map(name string, base, size uint64, writable bool) (*Segment, error) {
	if err := m.checkOverlap(name, base, size); err != nil {
		return nil, err
	}
	seg := &Segment{Name: name, Base: base, Writable: writable, end: base + size, dataBase: base, dataEnd: base}
	m.segs = append(m.segs, seg)
	return seg, nil
}

// AddSegment is Map for layouts that are correct by construction:
// overlapping segments are a programming error and panic.
func (m *Memory) AddSegment(name string, base, size uint64, writable bool) *Segment {
	seg, err := m.Map(name, base, size, writable)
	if err != nil {
		panic(err.Error())
	}
	return seg
}

// Segments returns all segments.
func (m *Memory) Segments() []*Segment { return m.segs }

// HotSegment returns the most recently touched segment (the head of the
// accessor cache), or nil before any access. Executors that keep their own
// inline segment view re-aim it from here after a miss; the returned
// segment is only a performance hint and never affects results.
func (m *Memory) HotSegment() *Segment { return m.last }

// FindSegment returns the segment containing [addr, addr+n), or nil. Hits
// populate the segment cache consulted by the fast-path accessors, and
// widen the serving segment's touched window over the resolved range: the
// interpreter cores route every view miss through here (directly or via
// the Memory accessors), so widening at resolution time is what lets the
// window-bounded views re-serve the access pattern inline afterwards.
func (m *Memory) FindSegment(addr uint64, n int) *Segment {
	if s := m.last; s != nil && s.contains(addr, n) {
		m.cacheHits++
		s.touch(addr, n)
		return s
	}
	if s := m.prev; s != nil && s.contains(addr, n) {
		m.cacheHits++
		m.prev = m.last
		m.last = s
		s.touch(addr, n)
		return s
	}
	m.cacheWalks++
	for _, s := range m.segs {
		if s.spans(addr, n) {
			// Back the range before the segment enters the accessor cache:
			// the fast paths index s.data straight after a contains hit.
			if !s.contains(addr, n) {
				s.grow(addr, n)
			}
			m.prev = m.last
			m.last = s
			s.touch(addr, n)
			return s
		}
	}
	return nil
}

// ReadUFast reads an n-byte little-endian unsigned value (n ∈ {1,4,8})
// through the segment cache. ok is false on any miss — unmapped range,
// straddling access, or unsupported width — in which case the caller falls
// back to ReadU for the authoritative error. The fast path performs one
// range check and no allocation.
func (m *Memory) ReadUFast(addr uint64, n int) (uint64, bool) {
	s := m.last
	if s != nil && s.contains(addr, n) {
		m.cacheHits++
	} else if s = m.prev; s != nil && s.contains(addr, n) {
		// Alternating two-segment streams hit prev without churning the
		// cache order; only genuine misses take the FindSegment walk.
		m.cacheHits++
	} else if s = m.FindSegment(addr, n); s == nil {
		return 0, false
	}
	off := addr - s.dataBase
	switch n {
	case 8:
		return binary.LittleEndian.Uint64(s.data[off : off+8]), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(s.data[off : off+4])), true
	case 1:
		return uint64(s.data[off]), true
	}
	return 0, false
}

// ReadU64Fast is ReadUFast specialized to the dominant 8-byte width.
func (m *Memory) ReadU64Fast(addr uint64) (uint64, bool) {
	s := m.last
	if s != nil && s.contains(addr, 8) {
		m.cacheHits++
	} else if s = m.prev; s != nil && s.contains(addr, 8) {
		m.cacheHits++
	} else if s = m.FindSegment(addr, 8); s == nil {
		return 0, false
	}
	off := addr - s.dataBase
	return binary.LittleEndian.Uint64(s.data[off : off+8]), true
}

// WriteUFast stores the low n bytes of val at addr (n ∈ {1,4,8}) through
// the segment cache; false sends the caller to WriteU for the error.
func (m *Memory) WriteUFast(addr uint64, n int, val uint64) bool {
	s := m.last
	if s != nil && s.contains(addr, n) {
		m.cacheHits++
	} else if s = m.prev; s != nil && s.contains(addr, n) {
		m.cacheHits++
	} else if s = m.FindSegment(addr, n); s == nil {
		return false
	}
	if !s.Writable {
		return false
	}
	s.touch(addr, n)
	off := addr - s.dataBase
	switch n {
	case 8:
		binary.LittleEndian.PutUint64(s.data[off:off+8], val)
	case 4:
		binary.LittleEndian.PutUint32(s.data[off:off+4], uint32(val))
	case 1:
		s.data[off] = byte(val)
	default:
		return false
	}
	return true
}

// view returns the backing slice for [addr, addr+n), faulting if the range
// is not fully within one segment or (for writes) the segment is read-only.
func (m *Memory) view(addr uint64, n int, kind AccessKind) ([]byte, error) {
	s := m.FindSegment(addr, n)
	if s == nil {
		return nil, &Fault{Addr: addr, Size: n, Kind: kind}
	}
	if kind == Write && !s.Writable {
		return nil, &Fault{Addr: addr, Size: n, Kind: kind}
	}
	off := addr - s.dataBase
	return s.data[off : off+uint64(n)], nil
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, error) {
	v, err := m.view(addr, n, Read)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, v)
	return out, nil
}

// ReadBytesAppend appends n bytes starting at addr to dst and returns the
// extended slice. The allocation-free form of ReadBytes for hot callers
// (host builtins) that own a reusable buffer.
func (m *Memory) ReadBytesAppend(dst []byte, addr uint64, n int) ([]byte, error) {
	v, err := m.view(addr, n, Read)
	if err != nil {
		return dst, err
	}
	return append(dst, v...), nil
}

// Fill stores n copies of b starting at addr (memset, without the staging
// buffer ReadBytes/WriteBytes would need).
func (m *Memory) Fill(addr uint64, b byte, n int) error {
	v, err := m.view(addr, n, Write)
	if err != nil {
		return err
	}
	for i := range v {
		v[i] = b
	}
	return nil
}

// WriteBytes stores b at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	v, err := m.view(addr, len(b), Write)
	if err != nil {
		return err
	}
	copy(v, b)
	return nil
}

// ReadU reads an n-byte little-endian unsigned value (n ∈ {1,4,8}).
func (m *Memory) ReadU(addr uint64, n int) (uint64, error) {
	v, err := m.view(addr, n, Read)
	if err != nil {
		return 0, err
	}
	switch n {
	case 1:
		return uint64(v[0]), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(v)), nil
	case 8:
		return binary.LittleEndian.Uint64(v), nil
	}
	return 0, fmt.Errorf("mem: unsupported access width %d", n)
}

// WriteU stores the low n bytes of val at addr, little-endian.
func (m *Memory) WriteU(addr uint64, n int, val uint64) error {
	v, err := m.view(addr, n, Write)
	if err != nil {
		return err
	}
	switch n {
	case 1:
		v[0] = byte(val)
	case 4:
		binary.LittleEndian.PutUint32(v, uint32(val))
	case 8:
		binary.LittleEndian.PutUint64(v, val)
	default:
		return fmt.Errorf("mem: unsupported access width %d", n)
	}
	return nil
}

// ReadCString reads a NUL-terminated string starting at addr, up to max
// bytes. A scan that runs off the end of the segment returns a Fault at the
// first out-of-segment address (the real C behaviour); a scan cut short by
// max while still inside the segment returns *UnterminatedString, since the
// address after the scan window is often perfectly valid memory.
func (m *Memory) ReadCString(addr uint64, max int) (string, error) {
	b, err := m.cstring(addr, max)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// CStringLen scans a NUL-terminated string like ReadCString but returns
// only its length, allocating nothing. Same fault semantics.
func (m *Memory) CStringLen(addr uint64, max int) (int, error) {
	b, err := m.cstring(addr, max)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// ReadCStringAppend appends a NUL-terminated string (terminator excluded)
// starting at addr to dst and returns the extended slice; on error dst is
// returned unchanged. The allocation-free form of ReadCString for hot
// callers that own a reusable buffer. Same fault semantics.
func (m *Memory) ReadCStringAppend(dst []byte, addr uint64, max int) ([]byte, error) {
	b, err := m.cstring(addr, max)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// cstring locates a NUL-terminated string in its segment and returns the
// aliasing subslice (terminator excluded) — valid only until the next
// mutation, so every exported wrapper copies before returning.
func (m *Memory) cstring(addr uint64, max int) ([]byte, error) {
	s := m.FindSegment(addr, 1)
	if s == nil {
		return nil, &Fault{Addr: addr, Size: 1, Kind: Read}
	}
	buf := s.data[addr-s.dataBase:]
	limit := int(s.end - addr)
	truncated := false
	if max > 0 && max < limit {
		limit = max
		truncated = true
	}
	n := min(limit, len(buf))
	for i := 0; i < n; i++ {
		if buf[i] == 0 {
			return buf[:i], nil
		}
	}
	if n < limit {
		// The scan reached the first unbacked byte: never written, so the
		// NUL an eager segment would hold there.
		return buf, nil
	}
	if truncated {
		return nil, &UnterminatedString{Addr: addr, Limit: limit}
	}
	// The scan genuinely ran off the segment end: addr+limit is the first
	// unmapped address.
	return nil, &Fault{Addr: addr + uint64(limit), Size: 1, Kind: Read}
}

// Zero clears n bytes at addr.
func (m *Memory) Zero(addr uint64, n int) error {
	v, err := m.view(addr, n, Write)
	if err != nil {
		return err
	}
	for i := range v {
		v[i] = 0
	}
	return nil
}

// Snapshot copies every segment's full logical contents, keyed by segment
// name, for deterministic replay in tests. It backs nothing: unbacked
// bytes copy out as the zeros they are. Nor does it pin touched windows
// (Bytes() would, as it hands out a writable alias), so copy-on-reset
// restores after a snapshot stay incremental.
func (m *Memory) Snapshot() map[string][]byte {
	out := make(map[string][]byte, len(m.segs))
	for _, s := range m.segs {
		img := make([]byte, s.Size())
		copy(img[s.dataBase-s.Base:], s.data)
		out[s.Name] = img
	}
	return out
}

// BackedBytes reports the host bytes the memory holds: every segment's
// backed window plus its sealed baseline image.
func (m *Memory) BackedBytes() uint64 {
	var n uint64
	for _, s := range m.segs {
		n += uint64(len(s.data) + len(s.pristine))
	}
	return n
}
