package cg

import (
	"context"
	"errors"
	"testing"

	"repro/internal/vec"
)

// TestOnColumnDoneFiresOncePerColumn: every column of a panel block solve
// fires the hook exactly once, with its original RHS index, its final stats
// (the iteration count SolveInto needs on that column), and a final
// (safe-to-read) iterate column.
func TestOnColumnDoneFiresOncePerColumn(t *testing.T) {
	const s = 6
	k, f, p := interleavedFixture(t, s, 3)
	u := vec.NewMulti(k.Rows, s)
	_, ref, _ := scalarRef(t, k, f, p, Options{Tol: 1e-9, MaxIter: 5000})

	fired := make(map[int]ColumnStats)
	order := []int{}
	opt := Options{Tol: 1e-9, MaxIter: 5000, Interleave: true}
	opt.OnColumnDone = func(col int, cs ColumnStats) {
		if _, dup := fired[col]; dup {
			t.Errorf("column %d fired twice", col)
		}
		fired[col] = cs
		order = append(order, col)
	}
	st, err := SolveBlockInto(u, k, f, p, opt, nil)
	if err != nil {
		t.Fatalf("block solve: %v", err)
	}
	if len(fired) != s {
		t.Fatalf("hook fired for %d columns, want %d", len(fired), s)
	}
	for j := 0; j < s; j++ {
		cs, ok := fired[j]
		if !ok {
			t.Fatalf("column %d never fired", j)
		}
		if !cs.Stats.Converged || cs.Err != nil {
			t.Errorf("column %d: converged=%v err=%v", j, cs.Stats.Converged, cs.Err)
		}
		// The hook's snapshot must match the end-of-solve report.
		if cs.Stats.Iterations != st.Cols[j].Iterations || cs.Stats.Iterations != ref[j].Iterations {
			t.Errorf("column %d: hook iterations %d, final %d, SolveInto %d", j, cs.Stats.Iterations, st.Cols[j].Iterations, ref[j].Iterations)
		}
	}
	// Columns deflate in convergence order, which is generally not RHS
	// order; the last entry must still be the slowest column.
	slow := order[len(order)-1]
	for j := 0; j < s; j++ {
		if st.Cols[j].Iterations > st.Cols[slow].Iterations {
			t.Errorf("column %d (%d iters) outlasted last-fired column %d (%d iters)",
				j, st.Cols[j].Iterations, slow, st.Cols[slow].Iterations)
		}
	}
}

// TestOnColumnDoneEarlySurfacing: on panels, an easy column's hook must
// fire at an iteration count strictly below the hard column's total — the
// property the service's streaming relies on.
func TestOnColumnDoneEarlySurfacing(t *testing.T) {
	const s = 4
	k, f, p := interleavedFixture(t, s, 3)
	// Column 0 keeps its random (hard) RHS; the rest become tiny multiples
	// of it, which converge almost immediately under the absolute tol.
	for j := 1; j < s; j++ {
		for i := 0; i < f.N; i++ {
			f.Col(j)[i] = 1e-9 * f.Col(0)[i]
		}
	}
	u := vec.NewMulti(k.Rows, s)
	var firstCol, firstIters = -1, 0
	hardIters := 0
	opt := Options{Tol: 1e-8, MaxIter: 5000, Interleave: true}
	opt.OnColumnDone = func(col int, cs ColumnStats) {
		if firstCol < 0 {
			firstCol, firstIters = col, cs.Stats.Iterations
		}
		if col == 0 {
			hardIters = cs.Stats.Iterations
		}
	}
	if _, err := SolveBlockInto(u, k, f, p, opt, nil); err != nil {
		t.Fatalf("block solve: %v", err)
	}
	if firstCol == 0 {
		t.Fatalf("hard column fired first (in %d iterations)", firstIters)
	}
	if firstIters >= hardIters {
		t.Fatalf("first column surfaced at iteration %d, not before the hard column's %d", firstIters, hardIters)
	}
}

// TestBlockSolveCtxCancel: a canceled context stops the block solve at the
// next iteration boundary; unfinished columns report the context error
// (and still fire the hook).
func TestBlockSolveCtxCancel(t *testing.T) {
	const s = 3
	k, f, p := blockFixture(t, s)
	u := vec.NewMulti(k.Rows, s)
	ctx, cancel := context.WithCancel(context.Background())

	fired := 0
	opt := Options{Tol: 1e-12, MaxIter: 5000, Ctx: ctx}
	opt.OnColumnDone = func(col int, cs ColumnStats) {
		fired++
		if !errors.Is(cs.Err, context.Canceled) {
			t.Errorf("column %d: err = %v, want context.Canceled", col, cs.Err)
		}
	}
	cancel() // cancel before the first iteration: nothing converges
	st, err := SolveBlockInto(u, k, f, p, opt, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Converged {
		t.Fatal("canceled solve reported converged")
	}
	if fired != s {
		t.Fatalf("hook fired %d times, want %d (every column must surface)", fired, s)
	}
	for j := 0; j < s; j++ {
		if !errors.Is(st.ColErrs[j], context.Canceled) {
			t.Errorf("ColErrs[%d] = %v, want context.Canceled", j, st.ColErrs[j])
		}
	}
}

// TestSolveIntoCtxCancel: the scalar path honors Options.Ctx the same way.
func TestSolveIntoCtxCancel(t *testing.T) {
	k, f, p := blockFixture(t, 1)
	u := make([]float64, k.Rows)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := SolveInto(u, k, f.Col(0), p, Options{Tol: 1e-12, MaxIter: 5000, Ctx: ctx}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Converged {
		t.Fatal("canceled solve reported converged")
	}
	// An uncanceled context must not perturb the solve.
	st2, err := SolveInto(u, k, f.Col(0), p, Options{Tol: 1e-9, MaxIter: 5000, Ctx: context.Background()}, nil)
	if err != nil || !st2.Converged {
		t.Fatalf("background-ctx solve: converged=%v err=%v", st2.Converged, err)
	}
}
