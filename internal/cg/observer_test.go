package cg

import (
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
)

// countObserver records iteration telemetry into preallocated fields — the
// shape of a production tap with no buffer growth in the hot path.
// outOfOrder counts samples whose iteration does not follow the column's
// previous one.
type countObserver struct {
	calls      int
	outOfOrder int
	lastIter   [8]int
	lastVal    [8]float64
}

func (o *countObserver) ObserveIteration(col, iter int, udiff, relres float64) {
	o.calls++
	if iter != o.lastIter[col]+1 {
		o.outOfOrder++
	}
	o.lastIter[col] = iter
	if relres > 0 {
		o.lastVal[col] = relres
	} else {
		o.lastVal[col] = udiff
	}
}

// TestSolveIntoObserverPerIteration: the observer fires exactly once per
// iteration with column 0 and a 1-based, strictly increasing iteration
// number, and attaching it does not change the solve.
func TestSolveIntoObserverPerIteration(t *testing.T) {
	k := model.Poisson2D(12, 12)
	f := make([]float64, k.Rows)
	for i := range f {
		f[i] = 1
	}
	j, err := splitting.NewJacobi(k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := precond.NewMStep(j, poly.Ones(3))
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, k.Rows)
	opt := Options{RelResidualTol: 1e-8, MaxIter: 2000}
	plain, err := SolveInto(u, k, f, p, opt, nil)
	if err != nil {
		t.Fatal(err)
	}

	var o countObserver
	opt.Observer = &o
	clear(u)
	st, err := SolveInto(u, k, f, p, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.calls != st.Iterations {
		t.Fatalf("observer fired %d times over %d iterations", o.calls, st.Iterations)
	}
	if o.lastIter[0] != st.Iterations {
		t.Fatalf("last observed iter = %d, want %d", o.lastIter[0], st.Iterations)
	}
	if st.Iterations != plain.Iterations {
		t.Fatalf("observer changed the solve: %d vs %d iterations", st.Iterations, plain.Iterations)
	}
}

// TestSolveIntoObserverZeroAllocations is the telemetry acceptance guard:
// wiring a per-iteration observer — including the engine's real
// ConvergenceLog — onto a warm scalar solve adds zero allocations.
func TestSolveIntoObserverZeroAllocations(t *testing.T) {
	k := model.Poisson2D(12, 12)
	f := make([]float64, k.Rows)
	for i := range f {
		f[i] = 1
	}
	j, err := splitting.NewJacobi(k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := precond.NewMStep(j, poly.Ones(3))
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, k.Rows)
	ws := NewWorkspace(k.Rows)

	for _, tc := range []struct {
		name string
		obs  Observer
	}{
		{"countObserver", &countObserver{}},
		{"ConvergenceLog", obs.NewConvergenceLog(64)},
	} {
		opt := Options{RelResidualTol: 1e-8, MaxIter: 2000, Observer: tc.obs}
		if _, err := SolveInto(u, k, f, p, opt, ws); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := SolveInto(u, k, f, p, opt, ws); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: observed solve allocated %g times per run, want 0", tc.name, allocs)
		}
	}
}

// TestSolveBlockObserver: both block bodies report block-local column
// indices with per-column iteration streams, and stay allocation-free in
// the steady state with an observer attached.
func TestSolveBlockObserver(t *testing.T) {
	for _, tc := range []struct {
		name       string
		interleave bool
		fixture    func(t *testing.T, s int) (*sparse.CSR, *vec.Multi, precond.Preconditioner)
	}{
		{"column by column", false, blockFixture},
		{"panels", true, func(t *testing.T, s int) (*sparse.CSR, *vec.Multi, precond.Preconditioner) {
			return interleavedFixture(t, s, 3)
		}},
	} {
		k, f, p := tc.fixture(t, 4)
		var o countObserver
		opt := Options{Tol: 1e-9, MaxIter: 5000, Observer: &o, Interleave: tc.interleave}
		ws := NewBlockWorkspace(k.Rows, 4)
		u := vec.NewMulti(k.Rows, 4)
		st, err := SolveBlockInto(u, k, f, p, opt, ws)
		if err != nil {
			t.Fatal(err)
		}
		if st.Interleaved != tc.interleave {
			t.Fatalf("%s: Interleaved = %v", tc.name, st.Interleaved)
		}
		var total int
		for c := 0; c < 4; c++ {
			if o.lastIter[c] != st.Cols[c].Iterations {
				t.Errorf("%s: column %d observed through iter %d, stats say %d", tc.name, c, o.lastIter[c], st.Cols[c].Iterations)
			}
			total += st.Cols[c].Iterations
		}
		if o.calls != total || o.outOfOrder != 0 {
			t.Fatalf("%s: observer fired %d times over %d column-iterations, %d out of order", tc.name, o.calls, total, o.outOfOrder)
		}

		allocs := testing.AllocsPerRun(3, func() {
			if _, err := SolveBlockInto(u, k, f, p, opt, ws); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("%s: observed block solve allocated %.1f times per run, want 0", tc.name, allocs)
		}
	}
}
