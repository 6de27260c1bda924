package mem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// Tests of on-demand backing. Each checks a mapped segment against an
// eagerly backed twin that receives the same writes: whatever the backed
// window, every read, scan and snapshot must match the twin's.

const twinSize = 1 << 20

// twins maps the same 1 MiB writable segment into two memories: lazy is
// backed on demand, eager is backed in full before any access.
func twins(t *testing.T) (lazy, eager *Memory, ls *Segment) {
	t.Helper()
	lazy, eager = New(), New()
	ls = lazy.AddSegment("seg", 0x10_0000, twinSize, true)
	eager.AddSegment("seg", 0x10_0000, twinSize, true).Bytes()
	return lazy, eager, ls
}

func writeBoth(t *testing.T, lazy, eager *Memory, addr uint64, b []byte) {
	t.Helper()
	if err := lazy.WriteBytes(addr, b); err != nil {
		t.Fatalf("lazy write at 0x%x: %v", addr, err)
	}
	if err := eager.WriteBytes(addr, b); err != nil {
		t.Fatalf("eager write at 0x%x: %v", addr, err)
	}
}

func sameContents(t *testing.T, lazy, eager *Memory) {
	t.Helper()
	if !bytes.Equal(lazy.Snapshot()["seg"], eager.Snapshot()["seg"]) {
		t.Fatal("lazy segment contents diverge from the eager twin")
	}
}

// TestGrowthKeepsBytes grows a segment both ways from a chunk in its
// middle, and a second one up from its base (a heap): every growth must
// carry the bytes already written, and the backing must stay near the
// span the writes cover.
func TestGrowthKeepsBytes(t *testing.T) {
	lazy, eager, s := twins(t)
	mid := s.Base + twinSize/2
	for i := uint64(1); i <= 64; i++ {
		writeBoth(t, lazy, eager, mid-i*256, []byte(fmt.Sprintf("down%03d", i)))
		writeBoth(t, lazy, eager, mid+i*192, []byte(fmt.Sprintf("up%03d", i)))
		sameContents(t, lazy, eager)
	}
	if s.dataBase > mid-64*256 || s.dataEnd < mid+64*192+5 {
		t.Fatalf("backed window [0x%x,0x%x) misses the writes", s.dataBase, s.dataEnd)
	}
	if got := lazy.BackedBytes(); got != s.dataEnd-s.dataBase || got > 4*64*(256+192) {
		t.Fatalf("backed %d bytes for writes spanning %d", got, 64*(256+192))
	}

	lazy, eager, s = twins(t)
	for i := uint64(0); i < 64; i++ {
		writeBoth(t, lazy, eager, s.Base+i*300, []byte{byte(i + 1), 0xee})
	}
	sameContents(t, lazy, eager)
	if s.dataBase != s.Base || s.dataEnd-s.dataBase > 4*64*300 {
		t.Fatalf("upward growth backed [0x%x,0x%x)", s.dataBase, s.dataEnd)
	}
}

// TestRestoreAfterGrowth seals a segment, grows it well past its first
// chunk, and requires Restore to rewrite only the touched window (not the
// backing) and leave the memory pristine.
func TestRestoreAfterGrowth(t *testing.T) {
	lazy, _, s := twins(t)
	lazy.Seal()
	top := s.End()
	if err := lazy.WriteU(top-8, 8, 1); err != nil {
		t.Fatal(err)
	}
	if restored, _ := lazy.Restore(); restored != 8 {
		t.Fatalf("restored %d bytes for one 8-byte store", restored)
	}
	for _, addr := range []uint64{top - 16, top - 40_000, top - 3*backChunk} {
		if err := lazy.WriteU(addr, 8, 0xfeed); err != nil {
			t.Fatal(err)
		}
	}
	backed := s.dataEnd - s.dataBase
	restored, ok := lazy.Restore()
	if !ok {
		t.Fatal("restore refused")
	}
	if want := uint64(40_000 - 16 + 8); restored != want || restored >= backed {
		t.Fatalf("restored %d bytes, want the touched window %d (backed %d)", restored, want, backed)
	}
	if err := lazy.VerifyPristine(); err != nil {
		t.Fatal(err)
	}
	if s.dataEnd-s.dataBase != backed {
		t.Fatal("restore must keep the backing")
	}

	// A segment carrying an image when sealed restores it too.
	img := New()
	g := img.AddSegment("globals", 0x1000, 64<<10, true)
	if err := img.WriteBytes(0x1000+100, []byte("image")); err != nil {
		t.Fatal(err)
	}
	img.Seal()
	if err := img.WriteBytes(0x1000+98, []byte("XXXXXXX")); err != nil {
		t.Fatal(err)
	}
	if restored, _ := img.Restore(); restored != 7 {
		t.Fatalf("restored %d bytes for a 7-byte store", restored)
	}
	if err := img.VerifyPristine(); err != nil {
		t.Fatal(err)
	}
	if b, _ := img.ReadBytes(0x1000+100, 5); string(b) != "image" || g.Size() != 64<<10 {
		t.Fatalf("image not restored: %q", b)
	}
}

// TestCStringAtBackedEdge scans strings that run into the first unbacked
// byte, which was never written and so is the NUL the eager twin holds,
// and strings that run off the segment's logical end, which fault.
func TestCStringAtBackedEdge(t *testing.T) {
	const k = 24
	run := bytes.Repeat([]byte{'A'}, k)
	check := func(lazy, eager *Memory, addrs ...uint64) {
		t.Helper()
		for _, addr := range addrs {
			for _, max := range []int{0, 1, k - 1, k, k + 1, 4096} {
				l1, le := lazy.ReadCString(addr, max)
				e1, ee := eager.ReadCString(addr, max)
				if l1 != e1 || fmt.Sprint(le) != fmt.Sprint(ee) {
					t.Fatalf("ReadCString(0x%x, %d): lazy %q %v, eager %q %v", addr, max, l1, le, e1, ee)
				}
				l2, le := lazy.CStringLen(addr, max)
				e2, ee := eager.CStringLen(addr, max)
				if l2 != e2 || fmt.Sprint(le) != fmt.Sprint(ee) {
					t.Fatalf("CStringLen(0x%x, %d): lazy %d %v, eager %d %v", addr, max, l2, le, e2, ee)
				}
				l3, le := lazy.ReadCStringAppend([]byte("p:"), addr, max)
				e3, ee := eager.ReadCStringAppend([]byte("p:"), addr, max)
				if !bytes.Equal(l3, e3) || fmt.Sprint(le) != fmt.Sprint(ee) {
					t.Fatalf("ReadCStringAppend(0x%x, %d): lazy %q %v, eager %q %v", addr, max, l3, le, e3, ee)
				}
			}
		}
	}

	lazy, eager, s := twins(t)
	if err := lazy.WriteU(s.Base, 1, 0); err != nil { // back the first chunk
		t.Fatal(err)
	}
	edge := s.dataEnd
	writeBoth(t, lazy, eager, edge-k, run)
	check(lazy, eager, edge-k, edge-1)
	if s.dataBase != s.Base || s.dataEnd != edge {
		t.Fatalf("scans to the backed edge backed [0x%x,0x%x)", s.dataBase, s.dataEnd)
	}

	lazy, eager, s = twins(t)
	writeBoth(t, lazy, eager, s.End()-k, run)
	check(lazy, eager, s.End()-k, s.End()-1)
	var f *Fault
	if _, err := lazy.ReadCString(s.End()-k, 0); !errors.As(err, &f) || f.Addr != s.End() {
		t.Fatalf("scan off the segment end: %v", err)
	}
}

// TestSnapshotLeavesBacking pins that Snapshot returns full-length images
// of a partly backed segment without backing it or moving its windows.
func TestSnapshotLeavesBacking(t *testing.T) {
	lazy, eager, s := twins(t)
	writeBoth(t, lazy, eager, s.End()-100, []byte("stack bytes"))
	base, end, lo, hi := s.dataBase, s.dataEnd, s.touchLo, s.touchHi
	backed := lazy.BackedBytes()
	snap := lazy.Snapshot()
	if len(snap["seg"]) != twinSize {
		t.Fatalf("snapshot is %d bytes, want %d", len(snap["seg"]), twinSize)
	}
	if !bytes.Equal(snap["seg"], eager.Snapshot()["seg"]) {
		t.Fatal("snapshot diverges from the eager twin")
	}
	if s.dataBase != base || s.dataEnd != end || s.touchLo != lo || s.touchHi != hi || lazy.BackedBytes() != backed {
		t.Fatal("snapshot changed the backing or the touched window")
	}
}

// TestWritePastLogicalEndFaults pins the segment's logical extent: a
// segment backed up to its end still faults one byte past it, and a
// fresh one faults there without backing anything.
func TestWritePastLogicalEndFaults(t *testing.T) {
	for _, backFirst := range []bool{false, true} {
		lazy, _, s := twins(t)
		if backFirst {
			if err := lazy.WriteU(s.End()-1, 1, 7); err != nil {
				t.Fatal(err)
			}
		}
		backed := lazy.BackedBytes()
		var f *Fault
		if err := lazy.WriteU(s.End(), 1, 7); !errors.As(err, &f) || f.Addr != s.End() || f.Kind != Write {
			t.Fatalf("write one byte past the end: %v", err)
		}
		if err := lazy.WriteU(s.End()-4, 8, 7); !errors.As(err, &f) {
			t.Fatalf("write straddling the end: %v", err)
		}
		if _, err := lazy.ReadU(s.End(), 1); !errors.As(err, &f) {
			t.Fatalf("read past the end: %v", err)
		}
		if lazy.BackedBytes() != backed {
			t.Fatal("a faulting access backed memory")
		}
	}
}
