package mem_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem"
)

func twoSeg(t *testing.T) *mem.Memory {
	t.Helper()
	m := mem.New()
	m.AddSegment("data", 0x1000, 0x100, true)
	m.AddSegment("ro", 0x4000, 0x40, false)
	return m
}

func TestReadWriteWidths(t *testing.T) {
	m := twoSeg(t)
	if err := m.WriteU(0x1000, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	// Little-endian byte order.
	b, err := m.ReadBytes(0x1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}) {
		t.Fatalf("bytes %x", b)
	}
	v4, _ := m.ReadU(0x1000, 4)
	if v4 != 0x55667788 {
		t.Fatalf("u32 %x", v4)
	}
	v1, _ := m.ReadU(0x1007, 1)
	if v1 != 0x11 {
		t.Fatalf("u8 %x", v1)
	}
	if err := m.WriteU(0x1004, 4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v8, _ := m.ReadU(0x1000, 8)
	if v8 != 0xdeadbeef55667788 {
		t.Fatalf("mixed %x", v8)
	}
}

func TestFaults(t *testing.T) {
	m := twoSeg(t)
	cases := []struct {
		addr uint64
		n    int
		wr   bool
	}{
		{0x0, 8, false},           // unmapped
		{0x10fc, 8, false},        // straddles segment end
		{0x10ff, 2, true},         // straddles end by one
		{0x2000, 1, true},         // gap between segments
		{0x4000, 1, true},         // read-only segment write
		{^uint64(0) - 3, 8, true}, // address wraparound
	}
	for _, c := range cases {
		var err error
		if c.wr {
			err = m.WriteU(c.addr, c.n, 1)
		} else {
			_, err = m.ReadU(c.addr, c.n)
		}
		var f *mem.Fault
		if !errors.As(err, &f) {
			t.Errorf("addr 0x%x n=%d wr=%v: expected Fault, got %v", c.addr, c.n, c.wr, err)
		}
	}
	// Read-only segments still read fine.
	if _, err := m.ReadU(0x4000, 8); err != nil {
		t.Errorf("read of ro segment: %v", err)
	}
}

func TestInSegmentOverflowSilentlyCorrupts(t *testing.T) {
	// The DOP substrate property: a big write inside one segment succeeds
	// and clobbers neighbours without any fault.
	m := mem.New()
	m.AddSegment("stack", 0x1000, 0x100, true)
	if err := m.WriteU(0x1010, 8, 0x4242424242424242); err != nil {
		t.Fatal(err)
	}
	over := make([]byte, 0x40) // "overflow" spanning many slots
	for i := range over {
		over[i] = 0xee
	}
	if err := m.WriteBytes(0x1008, over); err != nil {
		t.Fatalf("in-segment overflow must not fault: %v", err)
	}
	v, _ := m.ReadU(0x1010, 8)
	if v != 0xeeeeeeeeeeeeeeee {
		t.Fatalf("neighbour not corrupted: %x", v)
	}
}

func TestCString(t *testing.T) {
	m := twoSeg(t)
	if err := m.WriteBytes(0x1000, append([]byte("hello"), 0)); err != nil {
		t.Fatal(err)
	}
	s, err := m.ReadCString(0x1000, 100)
	if err != nil || s != "hello" {
		t.Fatalf("got %q err %v", s, err)
	}
	// Max shorter than terminator distance faults.
	if _, err := m.ReadCString(0x1000, 3); err == nil {
		t.Fatal("expected fault for missing NUL within max")
	}
	// Unmapped base faults.
	if _, err := m.ReadCString(0x9000, 8); err == nil {
		t.Fatal("expected fault for unmapped string")
	}
}

func TestZeroAndSnapshot(t *testing.T) {
	m := twoSeg(t)
	if err := m.WriteU(0x1000, 8, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap["data"][0] != 0xff {
		t.Fatal("snapshot misses data")
	}
	if err := m.Zero(0x1000, 8); err != nil {
		t.Fatal(err)
	}
	v, _ := m.ReadU(0x1000, 8)
	if v != 0 {
		t.Fatalf("zero failed: %x", v)
	}
	// Snapshot is a copy: mutating memory must not change it.
	if snap["data"][0] != 0xff {
		t.Fatal("snapshot aliases live memory")
	}
}

func TestOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping segments must panic")
		}
	}()
	m := mem.New()
	m.AddSegment("a", 0x1000, 0x100, true)
	m.AddSegment("b", 0x10ff, 0x10, true)
}

func TestFindSegment(t *testing.T) {
	m := twoSeg(t)
	if s := m.FindSegment(0x1080, 8); s == nil || s.Name != "data" {
		t.Fatal("FindSegment data")
	}
	if s := m.FindSegment(0x10f9, 8); s != nil {
		t.Fatal("range crossing the end must not match")
	}
	if s := m.FindSegment(0x3000, 1); s != nil {
		t.Fatal("gap must not match")
	}
}

// TestSegmentDirectAccessors covers the width-specialized segment-view
// fast path the execution tiers inline: in-range round trips, the
// read-only and out-of-range refusals, and WriteUAt's width dispatch.
func TestSegmentDirectAccessors(t *testing.T) {
	m := mem.New()
	s := m.AddSegment("data", 0x1000, 0x100, true)
	ro := m.AddSegment("ro", 0x4000, 0x40, false)
	// Direct accessors serve only backed bytes; a Memory-level access
	// backs each (small) segment whole.
	if m.FindSegment(0x1000, 1) == nil || m.FindSegment(0x4000, 1) == nil {
		t.Fatal("segments must resolve")
	}

	if !s.WriteU64At(0x1008, 0x1122334455667788) {
		t.Fatal("in-range WriteU64At refused")
	}
	if v, ok := s.ReadU64At(0x1008); !ok || v != 0x1122334455667788 {
		t.Fatalf("ReadU64At = %x, %v", v, ok)
	}
	if v, ok := s.ReadU32At(0x1008); !ok || v != 0x55667788 {
		t.Fatalf("ReadU32At = %x, %v", v, ok)
	}
	if v, ok := s.ReadU8At(0x100f); !ok || v != 0x11 {
		t.Fatalf("ReadU8At = %x, %v", v, ok)
	}
	if !s.WriteU32At(0x1010, 0xdeadbeef) || !s.WriteU8At(0x1014, 0x7f) {
		t.Fatal("in-range narrow writes refused")
	}

	// WriteUAt dispatches on width and rejects unsupported ones.
	for _, n := range []int{1, 4, 8} {
		if !s.WriteUAt(0x1020, n, 0xff) {
			t.Fatalf("WriteUAt width %d refused", n)
		}
	}
	if s.WriteUAt(0x1020, 2, 0xff) {
		t.Fatal("WriteUAt must reject width 2")
	}

	// Out-of-segment and straddling ranges miss instead of faulting: the
	// caller is expected to fall back to the Memory-level accessors.
	if _, ok := s.ReadU64At(0x0ff8); ok {
		t.Fatal("read below base must miss")
	}
	if _, ok := s.ReadU64At(0x10fc); ok {
		t.Fatal("straddling read must miss")
	}
	if s.WriteU64At(0x10fc, 1) {
		t.Fatal("straddling write must miss")
	}
	if ro.WriteU64At(0x4000, 1) || ro.WriteUAt(0x4000, 8, 1) {
		t.Fatal("read-only segment write must miss")
	}
	if _, ok := ro.ReadU64At(0x4000); !ok {
		t.Fatal("read-only segment read must still hit")
	}
}

// TestLazySegment pins the on-demand contract of a mapped segment:
// identical observable behaviour to an eager segment, with the backing
// bytes deferred until first access, and direct accessors missing until
// the access is backed.
func TestLazySegment(t *testing.T) {
	m := mem.New()
	s, err := m.Map("heap", 0x1000, 0x100, true)
	if err != nil {
		t.Fatal(err)
	}

	// Unbacked: direct accessors and Contains must miss so hot-path
	// callers fall through to the backing slow path.
	if s.Contains(0x1000, 8) {
		t.Fatal("unbacked segment must not Contains")
	}
	if _, ok := s.ReadU64At(0x1000); ok {
		t.Fatal("unbacked direct read must miss")
	}

	// Memory-level access backs and reads zeros.
	if v, err := m.ReadU(0x1010, 8); err != nil || v != 0 {
		t.Fatalf("lazy segment must read as zero: %x, %v", v, err)
	}
	if !s.Contains(0x1000, 8) {
		t.Fatal("segment must be backed after first access")
	}
	if err := m.WriteU(0x1010, 8, 42); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.ReadU64At(0x1010); !ok || v != 42 {
		t.Fatalf("post-backing direct read = %d, %v", v, ok)
	}
	if got := uint64(len(s.Bytes())); got != s.Size() {
		t.Fatalf("Bytes length %d, want full size %d", got, s.Size())
	}
}

// TestFastPathCache covers the Memory-level cached accessors the VM's
// slow-path fallbacks use: hits through the two-entry cache, misses on
// unmapped or straddling ranges, the read-only refusal, and HotSegment
// tracking the most recently touched segment.
func TestFastPathCache(t *testing.T) {
	m := twoSeg(t)
	if m.HotSegment() != nil {
		t.Fatal("HotSegment must be nil before any access")
	}
	if !m.WriteUFast(0x1000, 8, 0xabcdef) {
		t.Fatal("in-range WriteUFast refused")
	}
	if hot := m.HotSegment(); hot == nil || hot.Name != "data" {
		t.Fatalf("HotSegment = %v, want data", hot)
	}
	if v, ok := m.ReadUFast(0x1000, 8); !ok || v != 0xabcdef {
		t.Fatalf("ReadUFast = %x, %v", v, ok)
	}
	if v, ok := m.ReadU64Fast(0x1000); !ok || v != 0xabcdef {
		t.Fatalf("ReadU64Fast = %x, %v", v, ok)
	}
	// Alternating between two segments stays on the fast path.
	if _, ok := m.ReadUFast(0x4000, 8); !ok {
		t.Fatal("ro segment read must hit")
	}
	if _, ok := m.ReadUFast(0x1000, 4); !ok {
		t.Fatal("alternating back to data must hit")
	}
	// Misses: unmapped, straddling, unsupported width, read-only write.
	if _, ok := m.ReadUFast(0x9000, 8); ok {
		t.Fatal("unmapped read must miss")
	}
	if _, ok := m.ReadUFast(0x10fc, 8); ok {
		t.Fatal("straddling read must miss")
	}
	if _, ok := m.ReadUFast(0x1000, 2); ok {
		t.Fatal("width-2 read must miss")
	}
	if m.WriteUFast(0x4000, 8, 1) {
		t.Fatal("read-only WriteUFast must miss")
	}
	if m.WriteUFast(0x1000, 2, 1) {
		t.Fatal("width-2 write must miss")
	}
}

// TestCStringUnterminatedVsFault distinguishes the two "no NUL found"
// outcomes: a scan cut short by max while still inside the segment is an
// UnterminatedString (the next address is often valid memory), while a
// scan that runs off the segment end is a genuine Fault at the first
// unmapped address.
func TestCStringUnterminatedVsFault(t *testing.T) {
	m := twoSeg(t)
	fill := make([]byte, 0x100)
	for i := range fill {
		fill[i] = 'A'
	}
	if err := m.WriteBytes(0x1000, fill); err != nil {
		t.Fatal(err)
	}
	// Truncated by max mid-segment: unterminated, not a fault — 0x1008 is
	// mapped, so a Fault there would point at valid memory.
	_, err := m.ReadCString(0x1000, 8)
	var u *mem.UnterminatedString
	if !errors.As(err, &u) {
		t.Fatalf("max-truncated scan: want UnterminatedString, got %v", err)
	}
	if u.Addr != 0x1000 || u.Limit != 8 {
		t.Fatalf("unterminated identity wrong: %+v", u)
	}
	var f *mem.Fault
	if errors.As(err, &f) {
		t.Fatal("max-truncated scan must not be a Fault")
	}
	// Scan that exhausts the segment: a real fault at the segment end.
	_, err = m.ReadCString(0x10f0, 100)
	if !errors.As(err, &f) {
		t.Fatalf("segment-exhausting scan: want Fault, got %v", err)
	}
	if f.Addr != 0x1100 {
		t.Fatalf("fault at 0x%x, want segment end 0x1100", f.Addr)
	}
}
