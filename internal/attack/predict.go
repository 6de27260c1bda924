// The RNG-prediction ablation (experiment E7): the paper's §III-D1 argues
// that any permutation source whose state lives in memory is unsafe,
// because the assumed attacker reads all of data memory and can therefore
// replay the generator (Kelsey et al.'s PRNG cryptanalysis setting). This
// file implements that attacker against Smokestack: with the pseudo
// (memory-state) source the attack lands perfectly; with the AES/RDRAND
// sources there is no state to disclose and the attacker degrades to the
// stale-probe attacker, which Smokestack stops.

package attack

import (
	"encoding/binary"

	"repro/internal/attack/corpus"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/vm"
)

// PredictionScenario attacks the Listing 1 program like Listing1Scenario,
// but the Build step first attempts to disclose and replay the permutation
// RNG. If the engine's source is Disclosable (pseudo), the attacker
// computes the exact layout — and even the guard slot's encoded value, by
// reading main's live guard through the predicted main layout — for the
// dispatch invocation before committing the payload. Otherwise the stale
// probe belief is used unchanged.
//
// The engine must be the *layout.Smokestack driving the deployment.
func PredictionScenario(eng *layout.Smokestack) *Scenario {
	p := corpus.Listing1()
	steps := []map[string]int64{
		{"ctr": 3, "size": 0, "step": 1, "req": 1337},    // MOV step, 1337
		{"ctr": 4, "size": 0, "step": 1337, "req": 0},    // ADD size, step
		{"ctr": 5, "size": 1337, "step": 1337, "req": 0}, // ADD size, step
		{"ctr": 6, "size": 2674, "step": 1337, "req": 0}, // ADD size, step
		{"ctr": 7, "size": 4011, "step": 1337, "req": 9}, // exit dispatcher
	}
	return &Scenario{
		Name:    "rng-predict",
		Program: p,
		Goal:    GoalGlobalEquals("result", 4011),
		Build: func(b *Belief, m *vm.Machine, env *vm.Env) {
			mainFn, _ := p.Prog.FuncByName("main")
			dispFn, _ := p.Prog.FuncByName("dispatch")

			var predicted *layout.FrameLayout

			if d, ok := eng.Source().(rng.Disclosable); ok {
				// State disclosure: replay the stream the engine will
				// consume during the attack run. Program knowledge tells
				// the attacker the draw order: main's prologue, then
				// dispatch's.
				pred := d.Predict()
				rMain := pred.Next()
				rDisp := pred.Next()
				mainFL := eng.LayoutForValue(mainFn, rMain, nil)
				dispFL := eng.LayoutForValue(dispFn, rDisp, nil)
				predicted = &dispFL
				if mainFL.GuardOffset() >= 0 && dispFL.GuardOffset() >= 0 {
					// main's frame base is deterministic: the stack top
					// minus its (known, predicted) frame size, 16-aligned.
					mainBase := (uint64(mem.StackTop) - uint64(mainFL.Size)) &^ 15
					// Defer the read to attack time (the frame must be
					// live); capture addresses now.
					guardAddr := mainBase + uint64(mainFL.GuardOffset())
					mainID := uint64(mainFn.ID)
					dispID := uint64(dispFn.ID)
					env.Input = buildPredictedInput(m, b, steps, predicted, func() (uint64, bool) {
						v, err := m.Mem.ReadU(guardAddr, 8)
						if err != nil {
							return 0, false
						}
						key := v ^ mainID
						return key ^ dispID, true
					})
					return
				}
			}
			// No disclosable state: stale-probe attacker (same as
			// Listing1Scenario).
			env.Input = buildPredictedInput(m, b, steps, predicted, nil)
		},
	}
}

// buildPredictedInput assembles the per-step overflow inputs. When
// predicted is non-nil its offsets replace the probe belief; when guardVal
// is non-nil the predicted guard slot is preserved with its correct encoded
// value (read live at first use).
func buildPredictedInput(_ *vm.Machine, b *Belief, steps []map[string]int64,
	predicted *layout.FrameLayout, guardVal func() (uint64, bool)) func(int64) []byte {

	dispOff := func(v string) int64 {
		if predicted != nil {
			// Alloca order: buf, ctr, size, step, req (declaration order).
			idx := map[string]int{"buf": 0, "ctr": 1, "size": 2, "step": 3, "req": 4}[v]
			return predicted.Offsets[idx]
		}
		return b.MustOff("dispatch", v)
	}
	k := 0
	return func(max int64) []byte {
		if k >= len(steps) {
			return nil
		}
		bufOff := dispOff("buf")
		pl := &Payload{}
		for v, val := range steps[k] {
			pl.Put8(dispOff(v)-bufOff, uint64(val))
		}
		if predicted != nil && predicted.GuardOffset() >= 0 && guardVal != nil {
			if gv, ok := guardVal(); ok {
				rel := predicted.GuardOffset() - bufOff
				if rel >= 0 && rel < pl.Len() {
					// The guard lies inside the overflow span: preserve its
					// encoded value so the epilogue check passes.
					var buf [8]byte
					binary.LittleEndian.PutUint64(buf[:], gv)
					pl.PutBytes(rel, buf[:])
				}
			}
		}
		k++
		if pl.Unreachable() {
			return nil
		}
		out := pl.Bytes()
		if int64(len(out)) > max {
			out = out[:max]
		}
		return out
	}
}
