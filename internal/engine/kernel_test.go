package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/kernel"
)

// TestEngineUnknownKernelRejected: the kernel policy is validated at the
// request boundary, before any work is queued.
func TestEngineUnknownKernelRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := laplaceBatch(20, 2, "")
	req.Solver.Kernel = "simd9000"
	if _, err := s.Solve(context.Background(), req); err == nil || !strings.Contains(err.Error(), "kernel policy") {
		t.Fatalf("want kernel-policy rejection, got %v", err)
	}
}

// TestEnginePlanReportsKernel: the job's recorded plan carries the kernel
// set and layout decision; a wide plate batch interleaves, and forcing the
// portable set round-trips into the plan (case-insensitive like the rest of
// the spec fields) without changing a bit of the solution.
func TestEnginePlanReportsKernel(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	req := Request{
		Plate:  &PlateSpec{Rows: 8, Cols: 8, Tractions: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		Solver: SolverSpec{M: 2, RelResidualTol: 1e-9, Kernel: "Portable"},
	}
	v, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result == nil || v.Result.Plan == nil {
		t.Fatal("no plan recorded on the batch result")
	}
	if !v.Result.Plan.Interleave {
		t.Fatalf("8-wide plate batch did not interleave: %+v", v.Result.Plan)
	}
	if v.Result.Plan.Kernel != "portable" {
		t.Fatalf("plan kernel %q, want portable", v.Result.Plan.Kernel)
	}

	req.Solver.Kernel = ""
	v2, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Result.Plan.Kernel != kernel.Active().Name {
		t.Fatalf("auto plan kernel %q, want %q", v2.Result.Plan.Kernel, kernel.Active().Name)
	}
	// Forcing the portable set changes nothing observable: every case's
	// iterate is bit-identical and its iteration count equal.
	for j, c := range v.Result.Cases {
		a := v2.Result.Cases[j]
		if c.Iterations != a.Iterations || len(c.U) != len(a.U) || len(c.U) == 0 {
			t.Fatalf("case %d: portable %d iterations / %d unknowns, auto %d / %d", j, c.Iterations, len(c.U), a.Iterations, len(a.U))
		}
		for i := range c.U {
			if c.U[i] != a.U[i] {
				t.Fatalf("case %d: iterates differ at %d across kernel sets", j, i)
			}
		}
	}
	// The kernel policy is an execution knob, not an identity: both solves
	// must have shared one cache entry.
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits < 1 {
		t.Fatalf("kernel policy split the cache: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}
