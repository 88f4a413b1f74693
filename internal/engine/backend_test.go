package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// backendReq is plateReq with an explicit backend selection.
func backendReq(rows, cols int, backend string) Request {
	req := plateReq(rows, cols, 2)
	req.Solver.Backend = backend
	return req
}

func TestEngineBackendSelectionEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	// A banded multicolor plate, solved once per backend policy. All three
	// share one cache entry (the backend is not part of the key); the DIA
	// conversion rides in the entry next to the CSR.
	dia, err := s.Solve(context.Background(), backendReq(10, 10, "dia"))
	if err != nil {
		t.Fatal(err)
	}
	if dia.State != JobDone || !dia.Result.Converged || dia.Result.Backend != "dia" {
		t.Fatalf("dia solve: state=%s backend=%q converged=%v", dia.State, dia.Result.Backend, dia.Result.Converged)
	}
	csr, err := s.Solve(context.Background(), backendReq(10, 10, "csr"))
	if err != nil {
		t.Fatal(err)
	}
	if csr.Result.Backend != "csr" {
		t.Fatalf("csr solve reported backend %q", csr.Result.Backend)
	}
	if !csr.CacheHit {
		t.Fatal("csr-backend solve of the same plate missed the cache (backend leaked into the key)")
	}
	auto, err := s.Solve(context.Background(), backendReq(10, 10, "auto"))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Result.Backend != "dia" {
		t.Fatalf("auto on the banded plate resolved to %q, want dia", auto.Result.Backend)
	}

	// Both backends solved the same problem: solutions agree to rounding.
	for i := range csr.Result.U {
		if diff := math.Abs(csr.Result.U[i] - dia.Result.U[i]); diff > 1e-8*(1+math.Abs(csr.Result.U[i])) {
			t.Fatalf("solutions deviate at %d: %g vs %g", i, csr.Result.U[i], dia.Result.U[i])
		}
	}

	st := s.Stats()
	if st.SolvesDIA != 2 || st.SolvesCSR != 1 {
		t.Fatalf("per-backend counts csr=%d dia=%d, want 1/2", st.SolvesCSR, st.SolvesDIA)
	}
}

// TestEngineBatchBackendsAgree: a multi-case plate batch solved on the CSR
// and on the DIA backend reports each backend and agrees case by case to
// rounding.
func TestEngineBatchBackendsAgree(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	solve := func(backend string) *JobResult {
		req := Request{
			Plate:  &PlateSpec{Rows: 8, Cols: 8, Tractions: []float64{1, 2, 3, 4}},
			Solver: SolverSpec{M: 2, Tol: 1e-10, MaxIter: 20000, Backend: backend},
		}
		v, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != JobDone || v.Result.Backend != backend || len(v.Result.Cases) != 4 {
			t.Fatalf("%s batch: state=%s backend=%q cases=%d", backend, v.State, v.Result.Backend, len(v.Result.Cases))
		}
		return v.Result
	}
	csr, dia := solve("csr"), solve("dia")
	for j := range csr.Cases {
		cu, du := csr.Cases[j].U, dia.Cases[j].U
		if len(cu) == 0 || len(cu) != len(du) {
			t.Fatalf("case %d: solution lengths %d/%d", j, len(cu), len(du))
		}
		for i := range cu {
			if diff := math.Abs(cu[i] - du[i]); diff > 1e-8*(1+math.Abs(cu[i])) {
				t.Fatalf("case %d: solutions deviate at %d: %g vs %g", j, i, cu[i], du[i])
			}
		}
	}
}

func TestEngineAutoPicksCSROnScatteredSystem(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	// Random scattered fill: the occupied-diagonal count grows with n, so
	// auto must stay on row storage.
	rng := rand.New(rand.NewSource(5))
	n := 200
	var is, js []int
	var vs []float64
	rowAbs := make([]float64, n)
	for k := 0; k < 4*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := rng.Float64()*2 - 1
		is = append(is, i, j)
		js = append(js, j, i)
		vs = append(vs, v, v)
		rowAbs[i] += math.Abs(v)
		rowAbs[j] += math.Abs(v)
	}
	for i := 0; i < n; i++ {
		is = append(is, i)
		js = append(js, i)
		vs = append(vs, rowAbs[i]+1)
	}
	f := make([]float64, n)
	f[0] = 1
	v, err := s.Solve(context.Background(), Request{
		System: &SystemSpec{N: n, I: is, J: js, V: vs, F: f},
		Solver: SolverSpec{M: 1, Splitting: "jacobi", RelResidualTol: 1e-8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.Backend != "csr" {
		t.Fatalf("auto on scattered fill resolved to %q, want csr", v.Result.Backend)
	}
	if st := s.Stats(); st.SolvesCSR != 1 || st.SolvesDIA != 0 {
		t.Fatalf("per-backend counts csr=%d dia=%d, want 1/0", st.SolvesCSR, st.SolvesDIA)
	}
}

func TestEngineUnknownBackendRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(backendReq(6, 6, "ellpack")); err == nil {
		t.Fatal("Submit accepted an unknown backend")
	}
}

func TestCacheEntrySharesDIAConversion(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	if _, err := s.Solve(context.Background(), backendReq(8, 8, "dia")); err != nil {
		t.Fatal(err)
	}
	req := backendReq(8, 8, "dia")
	key := req.CacheKey()
	entry, existed := s.cache.get(key)
	if !existed {
		t.Fatalf("no cache entry for %q", key)
	}
	first, err := entry.getDIA()
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("DIA conversion not cached in the entry")
	}
	if _, err := s.Solve(context.Background(), backendReq(8, 8, "dia")); err != nil {
		t.Fatal(err)
	}
	again, _ := entry.getDIA()
	if again != first {
		t.Fatal("repeated DIA solve re-converted instead of reusing the cached conversion")
	}
}
