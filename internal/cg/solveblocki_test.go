package cg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/kernel"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
)

// plateBlock builds the 7×6 plate system in the 6-color ordering plus an
// s-column block of random right-hand sides.
func plateBlock(t *testing.T, s int) (*fem.Plate, *vec.Multi) {
	t.Helper()
	plate, err := fem.NewPlate(7, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	f := vec.NewMulti(plate.KColored.Rows, s)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return plate, f
}

// interleavedFixture builds a plate system whose preconditioner supports the
// fused interleaved sweep (6-color SSOR at ω = 1), plus an s-column block of
// random right-hand sides.
func interleavedFixture(t *testing.T, s, m int) (*sparse.CSR, *vec.Multi, precond.Preconditioner) {
	t.Helper()
	plate, f := plateBlock(t, s)
	k := plate.KColored
	mc, err := splitting.NewSixColorSSOR(k, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	var p precond.Preconditioner = precond.Identity{}
	if m > 0 {
		p, err = precond.NewMStep(mc, poly.Ones(m))
		if err != nil {
			t.Fatal(err)
		}
	}
	return k, f, p
}

// solveInterleaved runs one interleaved block solve on a fresh workspace.
func solveInterleaved(t *testing.T, k sparse.Operator, f *vec.Multi, p precond.Preconditioner, opt Options) (*vec.Multi, BlockStats, error) {
	t.Helper()
	n, _ := k.Dims()
	u := vec.NewMulti(n, f.S)
	opt.Interleave = true
	st, err := SolveBlockInto(u, k, f, p, opt, NewBlockWorkspace(n, f.S))
	if !st.Interleaved {
		t.Fatal("interleaved path did not engage")
	}
	return u, st, err
}

// TestInterleavedMatchesColumnBitwise is the central parity test: the
// interleaved panel path must reproduce a scalar SolveInto on every column
// bit for bit — iterates, iteration counts, per-column stats.
func TestInterleavedMatchesColumnBitwise(t *testing.T) {
	for _, m := range []int{0, 3} {
		for _, s := range []int{4, 8} {
			k, f, p := interleavedFixture(t, s, m)
			opt := Options{Tol: 1e-9, MaxIter: 5000}
			refU, ref, _ := scalarRef(t, k, f, p, opt)
			u, st, err := solveInterleaved(t, k, f, p, opt)
			if err != nil {
				t.Fatalf("m=%d s=%d: %v", m, s, err)
			}
			if st.Kernel == "" {
				t.Fatalf("m=%d s=%d: interleaved stats carry no kernel name", m, s)
			}
			iters, inner := 0, 0
			for _, c := range ref {
				iters = max(iters, c.Iterations)
				inner += c.InnerProducts
			}
			if st.Iterations != iters || st.InnerProducts != inner {
				t.Fatalf("m=%d s=%d: counters %+v vs SolveInto max iterations %d, inner products %d", m, s, st, iters, inner)
			}
			assertMatchesScalar(t, fmt.Sprintf("m=%d s=%d", m, s), u, st, refU, ref)
		}
	}
}

// TestInterleavedParallelMatchesColumn: the fan-out path uses the same row
// chunking as the scalar kernels, so parity holds at workers > 1 too.
func TestInterleavedParallelMatchesColumn(t *testing.T) {
	k, f, p := interleavedFixture(t, 8, 2)
	opt := Options{Tol: 1e-9, MaxIter: 5000, Workers: 4}
	refU, _, _ := scalarRef(t, k, f, p, opt)
	u, _, err := solveInterleaved(t, k, f, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refU.Data {
		if u.Data[i] != refU.Data[i] {
			t.Fatalf("workers=4: iterate flat %d differs", i)
		}
	}
}

// TestInterleavedDeflationParity staggers per-column convergence (wildly
// different column scales plus one zero column) and checks the deflation
// machinery — swaps, scatters, hook order — preserves parity.
func TestInterleavedDeflationParity(t *testing.T) {
	k, f, p := interleavedFixture(t, 6, 3)
	scale := []float64{1, 1e-8, 1e4, 0, 1, 1e-4}
	for j := 0; j < f.S; j++ {
		col := f.Col(j)
		for i := range col {
			col[i] *= scale[j]
		}
	}
	opt := Options{Tol: 1e-9, MaxIter: 5000}
	refU, ref, _ := scalarRef(t, k, f, p, opt)
	var order []int
	n, _ := k.Dims()
	var u *vec.Multi
	opt.OnColumnDone = func(col int, cs ColumnStats) {
		order = append(order, col)
		// the column's slice of the iterate block must be final here
		if got := u.Col(col); len(got) != n {
			t.Errorf("col %d: bad iterate slice", col)
		}
	}
	u = vec.NewMulti(n, f.S)
	opt.Interleave = true
	st, err := SolveBlockInto(u, k, f, p, opt, NewBlockWorkspace(n, f.S))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Interleaved {
		t.Fatal("interleaved path did not engage")
	}
	if len(order) != f.S {
		t.Fatalf("hook count %d != %d", len(order), f.S)
	}
	// Columns deflate in convergence order: the iteration counts SolveInto
	// needs never decrease along the hook order.
	for i := 1; i < len(order); i++ {
		if ref[order[i]].Iterations < ref[order[i-1]].Iterations {
			t.Fatalf("deflation order %v does not follow convergence", order)
		}
	}
	assertMatchesScalar(t, "staggered", u, st, refU, ref)
	if !st.Cols[3].Converged || st.Cols[3].Iterations != 0 {
		t.Fatalf("zero column did not deflate instantly: %+v", st.Cols[3])
	}
}

// TestInterleavedMaxIterParity: columns that run out of iterations surface
// ErrMaxIterations exactly as SolveInto does, with the same partial iterate.
func TestInterleavedMaxIterParity(t *testing.T) {
	k, f, p := interleavedFixture(t, 4, 1)
	opt := Options{Tol: 1e-14, MaxIter: 3}
	refU, _, refErrs := scalarRef(t, k, f, p, opt)
	u, _, errInt := solveInterleaved(t, k, f, p, opt)
	if !errors.Is(refErrs[0], ErrMaxIterations) || !errors.Is(errInt, ErrMaxIterations) {
		t.Fatalf("errors: %v vs %v", refErrs[0], errInt)
	}
	for i := range refU.Data {
		if u.Data[i] != refU.Data[i] {
			t.Fatalf("partial iterate flat %d differs", i)
		}
	}
}

// TestInterleavedBreakdownParity: an indefinite system breaks down at the
// same iteration with the same error on both layouts.
func TestInterleavedBreakdownParity(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1) // indefinite
	k := c.ToCSR()
	f := vec.NewMulti(2, 4)
	for i := range f.Data {
		f.Data[i] = float64(i + 1)
	}
	opt := Options{Tol: 1e-10, MaxIter: 50, Interleave: true}
	u := vec.NewMulti(2, 4)
	st, err := SolveBlockInto(u, k, f, precond.Identity{}, opt, NewBlockWorkspace(2, 4))
	if !st.Interleaved {
		t.Fatal("interleaved path did not engage")
	}
	if !errors.Is(err, ErrBreakdownMatrix) {
		t.Fatalf("want matrix breakdown, got %v", err)
	}
}

// TestInterleavedFallback: a preconditioner without the fused interleaved
// sweep (Jacobi m-step) runs its columns one by one even when
// Options.Interleave is set — and the solve still succeeds.
func TestInterleavedFallback(t *testing.T) {
	k, f, p := blockFixture(t, 4) // Jacobi m-step: no interleaved sweep
	if precond.CanApplyInterleaved(p) {
		t.Fatal("Jacobi m-step unexpectedly serves interleaved panels")
	}
	n := k.Rows
	u := vec.NewMulti(n, f.S)
	st, err := SolveBlockInto(u, k, f, p, Options{Tol: 1e-8, MaxIter: 5000, Interleave: true}, NewBlockWorkspace(n, f.S))
	if err != nil {
		t.Fatal(err)
	}
	if st.Interleaved {
		t.Fatal("fell through to the interleaved path without preconditioner support")
	}
	if !st.Converged {
		t.Fatal("fallback solve did not converge")
	}
}

// TestInterleavedKernelPortable: forcing the portable set produces the same
// bits and reports the set by name.
func TestInterleavedKernelPortable(t *testing.T) {
	k, f, p := interleavedFixture(t, 8, 2)
	n, _ := k.Dims()
	opt := Options{Tol: 1e-9, MaxIter: 5000, Interleave: true}
	uAuto := vec.NewMulti(n, f.S)
	stAuto, err := SolveBlockInto(uAuto, k, f, p, opt, NewBlockWorkspace(n, f.S))
	if err != nil {
		t.Fatal(err)
	}
	opt.Kernel = "portable"
	uPort := vec.NewMulti(n, f.S)
	stPort, err := SolveBlockInto(uPort, k, f, p, opt, NewBlockWorkspace(n, f.S))
	if err != nil {
		t.Fatal(err)
	}
	if stPort.Kernel != "portable" {
		t.Fatalf("portable solve reports kernel %q", stPort.Kernel)
	}
	if stAuto.Kernel != kernel.Active().Name {
		t.Fatalf("auto solve reports kernel %q, active is %q", stAuto.Kernel, kernel.Active().Name)
	}
	if stAuto.Iterations != stPort.Iterations {
		t.Fatalf("iteration counts differ across kernel sets: %d vs %d", stAuto.Iterations, stPort.Iterations)
	}
	for i := range uAuto.Data {
		if uAuto.Data[i] != uPort.Data[i] {
			t.Fatalf("kernel sets disagree at flat %d", i)
		}
	}
}

// TestInterleavedSteadyStateAllocFree: after a warm-up solve on the same
// workspace, the interleaved path allocates nothing per solve (the panels
// are lazily allocated once and reused).
func TestInterleavedSteadyStateAllocFree(t *testing.T) {
	k, f, p := interleavedFixture(t, 8, 2)
	n, _ := k.Dims()
	u := vec.NewMulti(n, f.S)
	ws := NewBlockWorkspace(n, f.S)
	opt := Options{Tol: 1e-9, MaxIter: 5000, Interleave: true}
	if _, err := SolveBlockInto(u, k, f, p, opt, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SolveBlockInto(u, k, f, p, opt, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state interleaved solve allocates %.1f per run", allocs)
	}
}
