package server

// FuzzServerRequest pins the request-decoding contract: arbitrary bytes in
// the submit path produce either a valid spec or a typed 4xx *Error —
// never a panic, never an untyped failure, never a 5xx. The `make race`
// gate runs the seed corpus; `go test -fuzz=FuzzServerRequest
// ./internal/server` explores from there.

import (
	"strings"
	"testing"
)

func FuzzServerRequest(f *testing.F) {
	seeds := []string{
		`{"tenant":"t1","program":"long main() { return 1; }","engines":["fixed"],"seed":7}`,
		`{"tenant":"t1","workload":"lbm","engines":["fixed","smokestack+aes-10"],"runs":3}`,
		`{"tenant":"t1","engines":["nope"]}`,
		`{"tenant":"t1","workload":"lbm","engines":["fixed"],"faults":{"entropy_period":1}}`,
		`{"tenant":"t1","workload":"lbm","engines":["fixed"],"deadline_ms":-5}`,
		`{"tenant":"../../etc","workload":"lbm","engines":["fixed"]}`,
		`{"tenant":"t1","unknown_field":true}`,
		`{}`,
		`[]`,
		`null`,
		`42`,
		`"just a string"`,
		`{"tenant":"t1","engines":null}`,
		`{"tenant":"t1","engines":["fixed"],"runs":9e99}`,
		`{"tenant":"t1","engines":["fixed"],"seed":-1}`,
		`{"tenant":"t1","engines":[{"nested":"object"}]}`,
		`{"tenant":"t1","program":"` + strings.Repeat("x", 1024) + `","engines":["fixed"]}`,
		`{"tenant":"t1","program":"long main() { return 1; }","engines":["fixed"]} trailing`,
		"\x00\x01\x02",
		`{"faults":{"host_delay_cycles":-1},"tenant":"t","engines":["fixed"],"workload":"lbm"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lim := Limits{MaxBodyBytes: 64 << 10}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, aerr := ParseRequest(strings.NewReader(string(data)), lim)
		if aerr != nil {
			checkTyped(t, aerr)
			return
		}
		spec, aerr := req.Spec(lim)
		if aerr != nil {
			checkTyped(t, aerr)
			return
		}
		// A spec that passed validation must honor the invariants the
		// session layer assumes.
		if len(spec.Engines) == 0 {
			t.Fatal("valid spec with no engines")
		}
		if (spec.Workload == "") == (spec.Source == "") {
			t.Fatal("valid spec without exactly one source")
		}
		if spec.StepLimit > lim.MaxStepLimit {
			t.Fatalf("step limit %d escaped the clamp %d", spec.StepLimit, lim.MaxStepLimit)
		}
		if d := req.Deadline(lim); d <= 0 || d > lim.MaxDeadline {
			t.Fatalf("deadline %v outside (0, %v]", d, lim.MaxDeadline)
		}
	})
}

// checkTyped requires a refusal to be a well-formed 4xx with a stable code.
func checkTyped(t *testing.T, e *Error) {
	t.Helper()
	if e.Status < 400 || e.Status >= 500 {
		t.Fatalf("request error with status %d, want 4xx: %v", e.Status, e)
	}
	if e.Code == "" || e.Msg == "" {
		t.Fatalf("untyped error: %+v", e)
	}
}
