package engine

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// laplaceBatch builds a keyed general-system batch request: the 1-D
// Laplacian with s distinct right-hand sides.
func laplaceBatch(n, s int, key string) Request {
	var i, j []int
	var v []float64
	add := func(a, b int, x float64) { i = append(i, a); j = append(j, b); v = append(v, x) }
	for k := 0; k < n; k++ {
		add(k, k, 2)
		if k > 0 {
			add(k, k-1, -1)
			add(k-1, k, -1)
		}
	}
	fs := make([][]float64, s)
	for c := range fs {
		fs[c] = make([]float64, n)
		fs[c][(c+1)*n/(s+1)] = float64(c + 1)
	}
	return Request{
		System: &SystemSpec{N: n, I: i, J: j, V: v, Fs: fs, Key: key},
		Solver: SolverSpec{M: 2, Splitting: "jacobi", RelResidualTol: 1e-10},
	}
}

// TestEngineBatchMatchesScalar: a batched system request must return one
// case per RHS, each matching the equivalent single-RHS solve.
func TestEngineBatchMatchesScalar(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	const n, cases = 40, 3
	req := laplaceBatch(n, cases, "")
	v, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != JobDone || v.Result == nil {
		t.Fatalf("batch job not done: %+v", v)
	}
	if v.Result.RHS != cases || len(v.Result.Cases) != cases {
		t.Fatalf("want %d cases, got rhs=%d cases=%d", cases, v.Result.RHS, len(v.Result.Cases))
	}
	if !v.Result.Converged {
		t.Fatal("batch not converged")
	}
	// MatVecs counts matrix products. A narrow Jacobi batch cannot run on
	// panels, so its cases run one by one through the scalar recurrence:
	// the initial residual product plus one product per iteration each.
	wantMV := 0
	for _, cr := range v.Result.Cases {
		wantMV += cr.Iterations + 1
	}
	if v.Result.MatVecs != wantMV {
		t.Fatalf("MatVecs %d, want %d for the column-by-column block job", v.Result.MatVecs, wantMV)
	}
	for c := 0; c < cases; c++ {
		scalar := req
		sys := *req.System
		sys.F = req.System.Fs[c]
		sys.Fs = nil
		scalar.System = &sys
		sv, err := s.Solve(context.Background(), scalar)
		if err != nil {
			t.Fatal(err)
		}
		cr := v.Result.Cases[c]
		if !cr.Converged || cr.Error != "" {
			t.Fatalf("case %d not converged: %+v", c, cr)
		}
		if len(cr.U) != n {
			t.Fatalf("case %d solution length %d", c, len(cr.U))
		}
		for i := range cr.U {
			if math.Abs(cr.U[i]-sv.Result.U[i]) > 1e-10 {
				t.Fatalf("case %d deviates from scalar solve at %d: %g vs %g", c, i, cr.U[i], sv.Result.U[i])
			}
		}
	}
}

// TestEngineBatchPlateTractions: plate load cases scale the base RHS, and
// by linearity the displacements must scale accordingly.
func TestEngineBatchPlateTractions(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	req := Request{
		Plate:  &PlateSpec{Rows: 8, Cols: 8, Tractions: []float64{1, 2.5, -1}},
		Solver: SolverSpec{M: 2, Coeffs: "least-squares", RelResidualTol: 1e-11},
	}
	v, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.RHS != 3 || len(v.Result.Cases) != 3 {
		t.Fatalf("want 3 cases, got %+v", v.Result)
	}
	base := v.Result.Cases[0]
	if len(base.NodeU) == 0 || len(base.Nodes) != len(base.NodeU) {
		t.Fatalf("case missing node displacements: %+v", base)
	}
	for c, scale := range []float64{1, 2.5, -1} {
		cr := v.Result.Cases[c]
		if !cr.Converged {
			t.Fatalf("case %d not converged", c)
		}
		for i := range base.U {
			if math.Abs(cr.U[i]-scale*base.U[i]) > 1e-7*(1+math.Abs(base.U[i])) {
				t.Fatalf("case %d (traction scale %g) not linear at %d", c, scale, i)
			}
		}
	}

	// A second identical batch must hit the same cache entry.
	v2, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.CacheHit {
		t.Fatal("second batch missed the cache")
	}
}

// TestEngineBatchConcurrentSharedEntry: many concurrent batch jobs with
// one cache key must share a single build and all converge (run under
// -race in CI).
func TestEngineBatchConcurrentSharedEntry(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	defer s.Close()

	const jobs = 12
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	views := make([]JobView, jobs)
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := laplaceBatch(60, 4, "shared-batch")
			views[g], errs[g] = s.Solve(context.Background(), req)
		}(g)
	}
	wg.Wait()
	for g := 0; g < jobs; g++ {
		if errs[g] != nil {
			t.Fatalf("job %d: %v", g, errs[g])
		}
		if !views[g].Result.Converged || len(views[g].Result.Cases) != 4 {
			t.Fatalf("job %d bad result: %+v", g, views[g].Result)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Fatalf("want exactly one cache build, got %d misses", st.CacheMisses)
	}
}

// TestBatchValidation covers the batched-request shape checks.
func TestBatchValidation(t *testing.T) {
	base := laplaceBatch(10, 2, "")
	bad := base
	sys := *base.System
	sys.F = make([]float64, 10) // both f and fs
	bad.System = &sys
	if err := bad.Validate(); err == nil {
		t.Fatal("f+fs accepted")
	}
	sys = *base.System
	sys.Fs = [][]float64{{1, 2}} // wrong length
	bad.System = &sys
	if err := bad.Validate(); err == nil {
		t.Fatal("short rhs accepted")
	}
	sys = *base.System
	sys.Fs = make([][]float64, maxBatchRHS+1)
	for i := range sys.Fs {
		sys.Fs[i] = make([]float64, 10)
	}
	bad.System = &sys
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized batch accepted")
	}
	plate := Request{
		Plate:  &PlateSpec{Rows: 4, Cols: 4, Tractions: make([]float64, maxBatchRHS+1)},
		Solver: SolverSpec{M: 1},
	}
	if err := plate.Validate(); err == nil {
		t.Fatal("oversized plate batch accepted")
	}
}

// TestQuantileNearestRank pins the ceil-based nearest-rank definition:
// p99 of 50 samples is the maximum (rank ⌈0.99·50⌉ = 50), not index 48.
func TestQuantileNearestRank(t *testing.T) {
	r := newLatencyRing(64)
	for i := 1; i <= 50; i++ {
		r.add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.99, 50}, // ⌈49.5⌉ = 50 → last sample; truncation read 48 (the p96)
		{0.50, 25}, // ⌈25⌉ = 25
		{0.02, 1},  // ⌈1⌉ = 1 → first sample
		{0, 1},     // clamped to the first sample
		{1, 50},
	}
	for _, c := range cases {
		if got := r.quantile(c.q); got != c.want {
			t.Fatalf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	single := newLatencyRing(16)
	single.add(7)
	if got := single.quantile(0.99); got != 7 {
		t.Fatalf("single-sample p99 = %g", got)
	}
}

// TestCacheCheckoutPlumbsRebuildError: when a pooled rebuild fails, the
// job error must carry the underlying cause, not a generic message.
func TestCacheCheckoutPlumbsRebuildError(t *testing.T) {
	req := plateReq(6, 6, 2)
	e := &cacheEntry{key: req.CacheKey()}
	e.build(&req, nil)
	if e.err != nil {
		t.Fatal(e.err)
	}
	// Drain the pooled instance, then corrupt the pinned config so the
	// rebuild fails the way a real regression would.
	if p, err := e.checkout(); err != nil || p == nil {
		t.Fatalf("first checkout: %v", err)
	}
	e.cfg.Splitting = core.SplittingKind(99)
	_, err := e.checkout()
	if err == nil {
		t.Fatal("corrupted rebuild returned no error")
	}
	if !strings.Contains(err.Error(), "unknown splitting") {
		t.Fatalf("rebuild error lost its cause: %v", err)
	}
}

// TestBatchRHSBlockUsesRequestF: a keyed system request solved after
// another request built the cache entry must use its own right-hand side,
// not the entry creator's.
func TestBatchRHSBlockUsesRequestF(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	first := laplace1D(30, "rhs-own")
	if _, err := s.Solve(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	second := laplace1D(30, "rhs-own")
	sys := *second.System
	sys.F = make([]float64, 30)
	sys.F[3] = 10 // a different load than the entry creator's
	second.System = &sys
	v, err := s.Solve(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if !v.CacheHit {
		t.Fatal("expected a cache hit")
	}
	// Solve the same system uncached and compare.
	third := second
	sys3 := *second.System
	sys3.Key = ""
	third.System = &sys3
	want, err := s.Solve(context.Background(), third)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Result.U {
		if math.Abs(v.Result.U[i]-want.Result.U[i]) > 1e-10 {
			t.Fatalf("cached-entry solve ignored the request RHS at %d: %g vs %g",
				i, v.Result.U[i], want.Result.U[i])
		}
	}
}
