package cg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
)

func blockFixture(t *testing.T, s int) (*sparse.CSR, *vec.Multi, precond.Preconditioner) {
	t.Helper()
	k := model.Poisson2D(15, 15)
	rng := rand.New(rand.NewSource(11))
	f := vec.NewMulti(k.Rows, s)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	j, err := splitting.NewJacobi(k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := precond.NewMStep(j, poly.Ones(3))
	if err != nil {
		t.Fatal(err)
	}
	return k, f, p
}

// observerFunc adapts a function to Observer.
type observerFunc func(col, iter int, udiff, relres float64)

func (f observerFunc) ObserveIteration(col, iter int, udiff, relres float64) {
	f(col, iter, udiff, relres)
}

// scalarRef solves every column of f on its own with SolveInto — the
// reference both block bodies must reproduce bit for bit. The recurrence
// coefficients are dropped, as block solves do not record them.
func scalarRef(t *testing.T, k sparse.Operator, f *vec.Multi, p precond.Preconditioner, opt Options) (*vec.Multi, []Stats, []error) {
	t.Helper()
	n, _ := k.Dims()
	u := vec.NewMulti(n, f.S)
	sts, errs := make([]Stats, f.S), make([]error, f.S)
	sopt := Options{Tol: opt.Tol, RelResidualTol: opt.RelResidualTol, MaxIter: opt.MaxIter, Workers: opt.Workers}
	ws := NewWorkspace(n)
	for j := range sts {
		sts[j], errs[j] = SolveInto(u.Col(j), k, f.Col(j), p, sopt, ws)
		sts[j].CGAlphas, sts[j].CGBetas = nil, nil
	}
	return u, sts, errs
}

// assertMatchesScalar checks a block solve against scalarRef: iterates and
// per-column Stats bit for bit. The panel body starts from r⁰ = f without
// SolveInto's initial product K·u⁰, so it counts one MatVec fewer.
func assertMatchesScalar(t *testing.T, name string, u *vec.Multi, st BlockStats, refU *vec.Multi, ref []Stats) {
	t.Helper()
	for i := range refU.Data {
		if u.Data[i] != refU.Data[i] {
			t.Fatalf("%s: iterate flat %d differs from SolveInto: %g vs %g", name, i, u.Data[i], refU.Data[i])
		}
	}
	for j, want := range ref {
		if st.Interleaved {
			want.MatVecs--
		}
		if got := st.Cols[j]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: col %d stats differ from SolveInto:\n got %+v\nwant %+v", name, j, got, want)
		}
	}
}

// parityFixture returns the 7×6 plate with an s-column random block and
// the named m = 3 preconditioner: "multicolor" is the paper's 6-color SSOR
// at ω = 1, the one splitting that serves interleaved panels; "jacobi",
// "natural" (natural-order SSOR) and "multicolor-1.5" (ω = 1.5) cannot, so
// their block solves always run column by column. "poisson-jacobi" is
// blockFixture.
func parityFixture(t *testing.T, pc string, s int) (*sparse.CSR, *vec.Multi, precond.Preconditioner) {
	t.Helper()
	if pc == "poisson-jacobi" {
		return blockFixture(t, s)
	}
	plate, f := plateBlock(t, s)
	k, gs := plate.KColored, plate.Ordering.GroupStart[:]
	var sp splitting.Splitting
	var err error
	switch pc {
	case "multicolor":
		sp, err = splitting.NewMulticolorSSOR(k, gs, 1)
	case "multicolor-1.5":
		sp, err = splitting.NewMulticolorSSOR(k, gs, 1.5)
	case "jacobi":
		sp, err = splitting.NewJacobi(k)
	case "natural":
		sp, err = splitting.NewNaturalSSOR(k, 1)
	default:
		t.Fatalf("unknown preconditioner %q", pc)
	}
	if err != nil {
		t.Fatal(err)
	}
	p, err := precond.NewMStep(sp, poly.Ones(3))
	if err != nil {
		t.Fatal(err)
	}
	return k, f, p
}

// TestSolveBlockMatchesSolveInto is the block-vs-scalar parity table: on
// both bodies — interleaved panels, and column by column whenever the plan
// or the preconditioner rules panels out — every column's iterate and Stats
// equal an independent SolveInto bit for bit, OnColumnDone fires exactly
// once per column with the final stats, the observer sees tile-local column
// indices with consecutive iteration numbers, and a cancellation mid-tile
// reports the context's error on every column still unfinished.
func TestSolveBlockMatchesSolveInto(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pc         string
		s          int
		interleave bool
		panels     bool // the solve runs the interleaved body
	}{
		{"jacobi poisson s=6", "poisson-jacobi", 6, false, false},
		{"panels s=8", "multicolor", 8, true, true},
		{"columns s=1", "multicolor", 1, false, false},
		{"columns s=2", "multicolor", 2, false, false},
		{"columns s=3", "multicolor", 3, false, false},
		{"columns s=8", "multicolor", 8, false, false},
		{"jacobi s=8 falls back", "jacobi", 8, true, false},
		{"natural ssor s=8 falls back", "natural", 8, true, false},
		{"multicolor ω=1.5 s=8 falls back", "multicolor-1.5", 8, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, f, p := parityFixture(t, tc.pc, tc.s)
			n := k.Rows
			opt := Options{Tol: 1e-9, MaxIter: 5000, Interleave: tc.interleave}
			refU, ref, _ := scalarRef(t, k, f, p, opt)

			var o countObserver
			fired := make([]int, tc.s)
			u := vec.NewMulti(n, tc.s)
			opt.Observer = &o
			opt.OnColumnDone = func(col int, cs ColumnStats) {
				fired[col]++
				if cs.Err != nil {
					t.Errorf("col %d: %v", col, cs.Err)
				}
				if col < len(ref) && cs.Stats.Iterations != ref[col].Iterations {
					t.Errorf("col %d: hook iterations %d != SolveInto %d", col, cs.Stats.Iterations, ref[col].Iterations)
				}
			}
			st, err := SolveBlockInto(u, k, f, p, opt, NewBlockWorkspace(n, tc.s))
			if err != nil {
				t.Fatalf("block solve: %v", err)
			}
			if st.Interleaved != tc.panels {
				t.Fatalf("Interleaved = %v, want %v", st.Interleaved, tc.panels)
			}
			if !st.Converged || st.RHS != tc.s {
				t.Fatalf("block stats: converged=%v rhs=%d", st.Converged, st.RHS)
			}
			assertMatchesScalar(t, tc.name, u, st, refU, ref)
			total := 0
			for j := 0; j < tc.s; j++ {
				if fired[j] != 1 {
					t.Errorf("col %d: OnColumnDone fired %d times", j, fired[j])
				}
				if o.lastIter[j] != st.Cols[j].Iterations {
					t.Errorf("col %d: observed through iter %d, stats say %d", j, o.lastIter[j], st.Cols[j].Iterations)
				}
				total += st.Cols[j].Iterations
			}
			if o.calls != total || o.outOfOrder != 0 {
				t.Errorf("observer: %d calls over %d column-iterations, %d out of order", o.calls, total, o.outOfOrder)
			}

			// Cancel from the observer at the first sample of column c: on
			// panels every column is still active then; column by column,
			// the columns before c have finished, c is mid-solve and the
			// rest have not started.
			c := min(1, tc.s-1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opt.Ctx = ctx
			opt.Observer = observerFunc(func(col, _ int, _, _ float64) {
				if col == c {
					cancel()
				}
			})
			hookErrs := make(map[int]error)
			opt.OnColumnDone = func(col int, cs ColumnStats) {
				if _, dup := hookErrs[col]; dup {
					t.Errorf("col %d fired twice after cancel", col)
				}
				hookErrs[col] = cs.Err
			}
			u.Zero()
			st, err = SolveBlockInto(u, k, f, p, opt, NewBlockWorkspace(n, tc.s))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled solve returned %v", err)
			}
			if len(hookErrs) != tc.s {
				t.Fatalf("canceled solve fired %d hooks, want %d", len(hookErrs), tc.s)
			}
			for j := 0; j < tc.s; j++ {
				if !tc.panels && j < c {
					if hookErrs[j] != nil || !st.Cols[j].Converged {
						t.Errorf("col %d finished before the cancel: err %v", j, hookErrs[j])
					}
					continue
				}
				if !errors.Is(hookErrs[j], context.Canceled) || !errors.Is(st.ColErrs[j], context.Canceled) {
					t.Errorf("col %d after cancel: hook err %v, ColErrs %v", j, hookErrs[j], st.ColErrs[j])
				}
				if !tc.panels && j > c && (st.Cols[j].Iterations != 0 || vec.NormInf(u.Col(j)) != 0) {
					t.Errorf("col %d ran after cancel: %d iterations", j, st.Cols[j].Iterations)
				}
			}
		})
	}
}

// TestSolveBlockOneSpMMPerIteration: the acceptance criterion — on panels,
// Stats counts exactly one SpMM per outer iteration, regardless of batch
// width.
func TestSolveBlockOneSpMMPerIteration(t *testing.T) {
	k, f, p := interleavedFixture(t, 8, 3)
	st, err := solveBlockFresh(k, f, p, Options{Tol: 1e-8, MaxIter: 5000, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Interleaved {
		t.Fatal("panel body did not engage")
	}
	if st.SpMMs != st.Iterations {
		t.Fatalf("SpMMs = %d, Iterations = %d: want exactly one SpMM per iteration", st.SpMMs, st.Iterations)
	}
	if st.Iterations == 0 {
		t.Fatal("expected at least one iteration")
	}
	// The block preconditioner is applied once before the loop and once per
	// non-final iteration (converged columns skip the trailing apply).
	if st.BlockPrecondApps > st.Iterations+1 {
		t.Fatalf("BlockPrecondApps = %d > iterations+1 = %d", st.BlockPrecondApps, st.Iterations+1)
	}
}

func solveBlockFresh(k *sparse.CSR, f *vec.Multi, p precond.Preconditioner, opt Options) (BlockStats, error) {
	u := vec.NewMulti(k.Rows, f.S)
	return SolveBlockInto(u, k, f, p, opt, nil)
}

// TestSolveBlockDeflation: a zero column converges on the spot; an easy
// column (the solution one step away is not achievable here, so instead use
// wildly different tolerances via scaling) deflates earlier than a hard
// one, and per-column iteration counts reflect it.
func TestSolveBlockDeflation(t *testing.T) {
	k := model.Poisson2D(12, 12)
	n := k.Rows
	f := vec.NewMulti(n, 3)
	// Column 0: zero RHS — converged at iteration 0.
	// Column 1: a smooth RHS.
	// Column 2: a rough RHS (slower to converge for CG without precond).
	for i := 0; i < n; i++ {
		f.Col(1)[i] = 1
		f.Col(2)[i] = float64((i%7)-3) * math.Pow(-1, float64(i%2))
	}
	u := vec.NewMulti(n, 3)
	st, err := SolveBlockInto(u, k, f, nil, Options{RelResidualTol: 1e-10, MaxIter: 5000}, nil)
	if err != nil {
		t.Fatalf("block solve: %v", err)
	}
	if !st.Converged {
		t.Fatal("expected full convergence")
	}
	if st.Cols[0].Iterations != 0 || !st.Cols[0].Converged {
		t.Fatalf("zero column should converge instantly, got %d iterations", st.Cols[0].Iterations)
	}
	for i := 0; i < n; i++ {
		if u.Col(0)[i] != 0 {
			t.Fatalf("zero column solution nonzero at %d", i)
		}
	}
	if st.Cols[1].Iterations > st.Iterations || st.Cols[2].Iterations > st.Iterations {
		t.Fatal("per-column iterations exceed outer iterations")
	}
	if st.Iterations != max(st.Cols[1].Iterations, st.Cols[2].Iterations) {
		t.Fatalf("outer iterations %d != max per-column (%d, %d)",
			st.Iterations, st.Cols[1].Iterations, st.Cols[2].Iterations)
	}
	// Deflation must not corrupt the surviving columns: check residuals.
	for j := 1; j < 3; j++ {
		r := make([]float64, n)
		k.MulVecTo(r, u.Col(j))
		vec.Sub(r, f.Col(j), r)
		if rel := vec.Norm2(r) / vec.Norm2(f.Col(j)); rel > 1e-9 {
			t.Fatalf("col %d true residual %g after deflation", j, rel)
		}
	}
}

// TestSolveBlockMaxIter: columns still active at the iteration limit report
// ErrMaxIterations, per column and joined.
func TestSolveBlockMaxIter(t *testing.T) {
	k, f, p := blockFixture(t, 3)
	u := vec.NewMulti(k.Rows, 3)
	st, err := SolveBlockInto(u, k, f, p, Options{Tol: 1e-12, MaxIter: 2}, nil)
	if err == nil {
		t.Fatal("expected iteration-limit error")
	}
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("want ErrMaxIterations, got %v", err)
	}
	if st.Converged {
		t.Fatal("stats claim convergence at MaxIter=2")
	}
	for j := 0; j < 3; j++ {
		if !errors.Is(st.ColErrs[j], ErrMaxIterations) {
			t.Fatalf("col %d error = %v", j, st.ColErrs[j])
		}
	}
}

// TestSolveBlockBreakdownColumnIsolated: an indefinite system breaks down,
// but per-column errors identify it without aborting the whole batch
// machinery (all columns here share the bad matrix, so all report it).
func TestSolveBlockBreakdownIndefinite(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1) // indefinite
	k := c.ToCSR()
	f := vec.MultiFromCols([][]float64{{1, 1}, {2, -1}})
	u := vec.NewMulti(2, 2)
	st, err := SolveBlockInto(u, k, f, nil, Options{Tol: 1e-10}, nil)
	if err == nil {
		t.Fatal("expected breakdown error")
	}
	if !errors.Is(err, ErrBreakdownMatrix) {
		t.Fatalf("want ErrBreakdownMatrix, got %v", err)
	}
	found := false
	for j := range st.ColErrs {
		if errors.Is(st.ColErrs[j], ErrBreakdownMatrix) {
			found = true
		}
	}
	if !found {
		t.Fatal("no per-column breakdown recorded")
	}
}

// TestSolveBlockInputValidation covers the argument checks.
func TestSolveBlockInputValidation(t *testing.T) {
	k := model.Laplacian1D(4)
	f := vec.NewMulti(4, 2)
	u := vec.NewMulti(4, 2)
	if _, err := SolveBlockInto(u, k, vec.NewMulti(3, 2), nil, Options{Tol: 1e-8}, nil); err == nil {
		t.Fatal("rhs row mismatch accepted")
	}
	if _, err := SolveBlockInto(vec.NewMulti(4, 1), k, f, nil, Options{Tol: 1e-8}, nil); err == nil {
		t.Fatal("iterate shape mismatch accepted")
	}
	if _, err := SolveBlockInto(u, k, f, nil, Options{}, nil); err == nil {
		t.Fatal("no stopping test accepted")
	}
	if _, err := SolveBlockInto(u, k, f, nil, Options{Tol: 1e-8, X0: make([]float64, 4)}, nil); err == nil {
		t.Fatal("X0 accepted by block solve")
	}
	if _, err := SolveBlockInto(u, k, vec.NewMulti(4, 0), nil, Options{Tol: 1e-8}, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestSolveBlockWorkspaceReuseAndParallel: a warm workspace must be
// reusable across shapes, and the parallel kernels must reproduce the
// serial solution.
func TestSolveBlockWorkspaceReuseAndParallel(t *testing.T) {
	k, f, p := blockFixture(t, 4)
	opt := Options{Tol: 1e-9, MaxIter: 5000}
	ws := NewBlockWorkspace(0, 0)

	u1 := vec.NewMulti(k.Rows, 4)
	if _, err := SolveBlockInto(u1, k, f, p, opt, ws); err != nil {
		t.Fatal(err)
	}
	// Same workspace, different (smaller) shape.
	k2 := model.Laplacian1D(30)
	f2 := vec.NewMulti(30, 2)
	f2.Col(0)[15] = 1
	f2.Col(1)[3] = -2
	u2 := vec.NewMulti(30, 2)
	if _, err := SolveBlockInto(u2, k2, f2, nil, Options{Tol: 1e-10}, ws); err != nil {
		t.Fatal(err)
	}
	// Re-solve the first problem on the warm workspace: identical result.
	u3 := vec.NewMulti(k.Rows, 4)
	if _, err := SolveBlockInto(u3, k, f, p, opt, ws); err != nil {
		t.Fatal(err)
	}
	for i := range u1.Data {
		if u1.Data[i] != u3.Data[i] {
			t.Fatalf("workspace reuse changed the solution at %d", i)
		}
	}
	// Parallel kernels: same solution within roundoff (dot products are
	// chunk-ordered, so tiny reassociation differences are possible only
	// above the parallel threshold; this system is below it, so exact).
	opt.Workers = 4
	u4 := vec.NewMulti(k.Rows, 4)
	if _, err := SolveBlockInto(u4, k, f, p, opt, ws); err != nil {
		t.Fatal(err)
	}
	for i := range u1.Data {
		if math.Abs(u1.Data[i]-u4.Data[i]) > 1e-10 {
			t.Fatalf("parallel solve differs at %d: %g vs %g", i, u1.Data[i], u4.Data[i])
		}
	}
}

// TestSolveBlockSteadyStateAllocFree: with a warm workspace, serial
// kernels, and a preheated batch shape, a block solve must not allocate.
func TestSolveBlockSteadyStateAllocFree(t *testing.T) {
	k, f, p := blockFixture(t, 4)
	opt := Options{Tol: 1e-9, MaxIter: 5000}
	ws := NewBlockWorkspace(k.Rows, 4)
	u := vec.NewMulti(k.Rows, 4)
	if _, err := SolveBlockInto(u, k, f, p, opt, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := SolveBlockInto(u, k, f, p, opt, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state block solve allocated %.1f times per run", allocs)
	}
}
