package mem

import "fmt"

// Copy-on-reset baselines.
//
// A Machine that will be reused across runs seals its Memory once, right
// after construction: Seal captures each writable segment's pristine
// contents and arms the touched-window tracking that every write path
// already maintains (see Segment.touchLo/touchHi). Restore then rewinds
// the memory to that baseline by rewriting only the touched span of each
// segment — a few KiB of memclr after a typical run — and keeps the backed
// windows, so a pooled Machine's next run finds the stack and heap it
// used already backed and never grows them again.
//
// Soundness does not depend on callers being well behaved: interpreter
// fast paths can only store through window-bounded views, the slow paths
// widen the window before serving, and handing out a raw alias (Bytes)
// pins the window to the whole segment. Every byte that can differ from
// the baseline is therefore inside the window by construction.

// Seal captures the current contents of every writable segment as the
// pristine baseline for later Restore calls, and empties the touched
// windows so they start tracking post-seal writes. Segments untouched
// since creation are all zero bytes and get a nil baseline (restored by
// memclr); segments already carrying data — the globals image copied in
// during construction — are backed in full and get a full copy, so a
// baseline always indexes like the backing it restores. Call once,
// immediately after machine construction and before the first run.
func (m *Memory) Seal() {
	for _, s := range m.segs {
		if !s.Writable {
			continue
		}
		if s.touchHi > s.touchLo {
			s.backAll()
			s.pristine = append(s.pristine[:0], s.data...)
		}
		s.resetWindow()
	}
	m.sealed = true
}

// Sealed reports whether Seal has captured a baseline.
func (m *Memory) Sealed() bool { return m.sealed }

// Restore rewinds every writable segment to the sealed baseline by
// rewriting its touched window, empties the windows, and resets the
// accessor cache and its counters so the Memory is indistinguishable from
// a freshly constructed one. Returns the number of bytes rewritten (the
// copy-on-reset cost, exported as the mem.snapshot.restored_bytes gauge);
// ok is false — and nothing is modified — when the Memory was never
// sealed.
func (m *Memory) Restore() (restored uint64, ok bool) {
	if !m.sealed {
		return 0, false
	}
	for _, s := range m.segs {
		if !s.Writable || s.touchHi <= s.touchLo {
			continue
		}
		lo, hi := s.touchLo-s.dataBase, s.touchHi-s.dataBase
		if s.pristine != nil {
			copy(s.data[lo:hi], s.pristine[lo:hi])
		} else {
			clear(s.data[lo:hi])
		}
		restored += hi - lo
		s.resetWindow()
	}
	m.last, m.prev = nil, nil
	m.cacheHits, m.cacheWalks = 0, 0
	return restored, true
}

// VerifyPristine compares every writable segment byte-for-byte against
// the sealed baseline, independent of the touched-window bookkeeping — so
// it catches exactly the class of bug the windows could hide (a write
// path that stored without widening). Test-support API: O(total segment
// bytes), far too slow for production restore paths.
func (m *Memory) VerifyPristine() error {
	if !m.sealed {
		return fmt.Errorf("mem: memory never sealed")
	}
	for _, s := range m.segs {
		if !s.Writable {
			continue
		}
		if s.touchHi > s.touchLo {
			return fmt.Errorf("mem: segment %s touched window [0x%x,0x%x) not empty", s.Name, s.touchLo, s.touchHi)
		}
		for i, b := range s.data {
			want := byte(0)
			if s.pristine != nil {
				want = s.pristine[i]
			}
			if b != want {
				return fmt.Errorf("mem: segment %s byte 0x%x = %#x, want %#x (baseline)", s.Name, s.Base+uint64(i), b, want)
			}
		}
	}
	return nil
}
