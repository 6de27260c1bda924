package faultinject

import (
	"errors"
	"testing"

	"repro/internal/rng"
)

func TestBrownoutScheduleDeterministic(t *testing.T) {
	plan := NewBrownoutPlan(7, 16, 4)
	a, b := New(plan), New(plan)
	ta := a.WrapTRNG(rng.SeededTRNG(1))
	tb := b.WrapTRNG(rng.SeededTRNG(1))
	failed := 0
	for i := 0; i < 320; i++ {
		va, oka := ta()
		vb, okb := tb()
		if va != vb || oka != okb {
			t.Fatalf("equal plans diverged at draw %d", i)
		}
		if !oka {
			failed++
		}
	}
	// 4 of every 16 draws fail.
	if failed != 320/16*4 {
		t.Fatalf("failed %d draws, want %d", failed, 320/16*4)
	}
	if s := a.Stats(); s.Draws != 320 || s.FailedDraws != uint64(failed) {
		t.Fatalf("stats %+v", s)
	}
}

func TestSeedChangesPhase(t *testing.T) {
	// Same shape, different seeds: the set of failed indices should differ
	// for at least one of a few seeds (phases are mod period).
	base := failedIndices(New(NewBrownoutPlan(1, 64, 8)), 128)
	moved := false
	for seed := uint64(2); seed < 8; seed++ {
		if failedIndices(New(NewBrownoutPlan(seed, 64, 8)), 128) != base {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("seed never moved the brownout phase")
	}
}

func failedIndices(inj *Injector, n int) [128]bool {
	var out [128]bool
	f := inj.WrapTRNG(rng.SeededTRNG(1))
	for i := 0; i < n && i < 128; i++ {
		if _, ok := f(); !ok {
			out[i] = true
		}
	}
	return out
}

func TestSharedDrawCounterAcrossTRNGs(t *testing.T) {
	// Two wrapped TRNGs share one schedule: interleaving them must fault
	// by global draw order, not per-stream order.
	inj := New(Plan{ExtraEntropyWindows: []Window{{Start: 1, Len: 2}}})
	t1 := inj.WrapTRNG(rng.SeededTRNG(1))
	t2 := inj.WrapTRNG(rng.SeededTRNG(2))
	_, ok0 := t1() // global draw 0: fine
	_, ok1 := t2() // global draw 1: faulted
	_, ok2 := t1() // global draw 2: faulted
	_, ok3 := t2() // global draw 3: fine
	if !ok0 || ok1 || ok2 || !ok3 {
		t.Fatalf("window hit wrong draws: %v %v %v %v", ok0, ok1, ok2, ok3)
	}
}

func TestUnderlyingStreamPositionPreserved(t *testing.T) {
	// A faulted draw still consumes the underlying TRNG, so post-brownout
	// values equal the uninjected stream's.
	clean := rng.SeededTRNG(3)
	var want []uint64
	for i := 0; i < 8; i++ {
		v, _ := clean()
		want = append(want, v)
	}
	inj := New(Plan{ExtraEntropyWindows: []Window{{Start: 2, Len: 3}}})
	f := inj.WrapTRNG(rng.SeededTRNG(3))
	for i := 0; i < 8; i++ {
		v, ok := f()
		if i >= 2 && i < 5 {
			if ok {
				t.Fatalf("draw %d should have faulted", i)
			}
			continue
		}
		if !ok || v != want[i] {
			t.Fatalf("draw %d = %d,%v want %d,true", i, v, ok, want[i])
		}
	}
}

func TestHostHookSchedules(t *testing.T) {
	inj := New(Plan{
		HostDelayEvery: 3, HostDelayCycles: 1000,
		HostFaultEvery:   5,
		HostCorruptEvery: 4, HostCorruptXOR: 0xff,
	})
	var delayed, faulted, corrupted int
	for i := 1; i <= 60; i++ {
		extra, err := inj.EnterHost("print")
		if extra > 0 {
			delayed++
			if extra != 1000 {
				t.Fatalf("delay %v", extra)
			}
		}
		if err != nil {
			var hf *HostFault
			if !errors.As(err, &hf) {
				t.Fatalf("error type %T", err)
			}
			faulted++
			continue
		}
		if inj.ExitHost("print", 1) != 1 {
			corrupted++
		}
	}
	if delayed != 20 || faulted != 12 {
		t.Fatalf("delayed=%d faulted=%d, want 20/12", delayed, faulted)
	}
	// Every 4th call corrupts, except those that faulted (calls 20, 40, 60
	// are multiples of both 4 and 5): 15 - 3 = 12.
	if corrupted != 12 {
		t.Fatalf("corrupted=%d, want 12", corrupted)
	}
	s := inj.Stats()
	if s.HostCalls != 60 || s.DelayedCalls != 20 || s.FailedCalls != 12 || s.CorruptedCalls != 12 {
		t.Fatalf("stats %+v", s)
	}
}

func TestErrorClassification(t *testing.T) {
	var classed interface{ ErrorClass() string }
	hf := &HostFault{Name: "input", Index: 3}
	if !errors.As(error(hf), &classed) || classed.ErrorClass() != "injected" {
		t.Fatal("HostFault must classify as injected")
	}
	ie := &InjectedError{Err: errors.New("boom")}
	if !errors.As(error(ie), &classed) || classed.ErrorClass() != "injected" {
		t.Fatal("InjectedError must classify as injected")
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	inj := New(Plan{})
	f := inj.WrapTRNG(rng.SeededTRNG(1))
	for i := 0; i < 100; i++ {
		if _, ok := f(); !ok {
			t.Fatal("zero plan faulted a draw")
		}
	}
	for i := 0; i < 100; i++ {
		if extra, err := inj.EnterHost("print"); extra != 0 || err != nil {
			t.Fatal("zero plan perturbed a host call")
		}
		if inj.ExitHost("print", 42) != 42 {
			t.Fatal("zero plan corrupted a return")
		}
	}
}
