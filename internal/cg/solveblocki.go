package cg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// The row-interleaved block solve body. SolveBlockInto runs it when
// Options.Interleave is set and both the operator and the preconditioner can
// serve vec.IMulti panels. s scalar PCG recurrences advance in lockstep, and
// the working block lives in interleaved form for the whole solve: the
// right-hand sides are converted once at entry (the tile-boundary conversion
// of the planner-tiled executor), every fused kernel reads panel rows as
// contiguous cache lines, and each column converts back to
// column-contiguous form exactly once — the moment it leaves the active
// set. Because every kernel preserves per-column arithmetic order, column
// j's iterates are bit-identical to a scalar SolveInto on column j.

// ensureInterleaved sizes the interleaved panels for an n×s solve,
// reallocating only on growth; the panels are allocated lazily so
// workspaces that only run columns one by one never pay for them.
func (w *BlockWorkspace) ensureInterleaved(n, s int) {
	if w.ri == nil || w.ri.N < n || w.ri.Stride < s {
		nn, ss := n, s
		if w.ri != nil {
			nn = max(nn, w.ri.N)
			ss = max(ss, w.ri.Stride)
		}
		w.ri = vec.NewIMulti(nn, ss)
		w.rhati = vec.NewIMulti(nn, ss)
		w.pi = vec.NewIMulti(nn, ss)
		w.kpi = vec.NewIMulti(nn, ss)
		w.ui = vec.NewIMulti(nn, ss)
	}
	if cap(w.pinf) < s {
		w.pinf = make([]float64, s)
		w.rnorm = make([]float64, s)
	}
	w.pinf, w.rnorm = w.pinf[:s], w.rnorm[:s]
}

// blockI points the interleaved working views at an n-row, s-live-column
// panel at the front of each scratch buffer. The allocation stride may
// exceed s (after workspace growth); rows stay stride-wide with the first
// s entries live.
func (w *BlockWorkspace) blockI(n, s int) {
	st := w.ri.Stride
	view := func(m *vec.IMulti) vec.IMulti {
		return vec.IMulti{N: n, S: s, Stride: st, Data: m.Data[:n*st]}
	}
	w.riv, w.rhativ, w.piv, w.kpiv, w.uiv = view(w.ri), view(w.rhati), view(w.pi), view(w.kpi), view(w.ui)
}

// setActiveI re-points the interleaved views at the first act columns; the
// stride (and backing data) never moves, deflation only narrows the live
// prefix of each row.
func (w *BlockWorkspace) setActiveI(act int) {
	w.riv.S, w.rhativ.S, w.piv.S, w.kpiv.S, w.uiv.S = act, act, act, act, act
}

// solveBlockInterleaved is the panel-layout body of SolveBlockInto; inputs
// are already validated and ws.ensure has run. See SolveBlockInto for the
// recurrence and the deflation/callback contract.
func solveBlockInterleaved(u *vec.Multi, k sparse.InterleavedOperator, f *vec.Multi, m precond.Preconditioner, opt Options, ws *BlockWorkspace) (BlockStats, error) {
	n := f.N
	s := f.S
	impl := kernel.Select(opt.Kernel)
	ws.ensureInterleaved(n, s)
	ws.blockI(n, s)
	w := opt.Workers
	if w < 1 {
		w = 1
	}

	st := BlockStats{RHS: s, Cols: ws.cols, ColErrs: ws.errs, Interleaved: true, Kernel: impl.Name}
	for j := range ws.cols {
		ws.cols[j] = Stats{TrueRelRes: -1}
		ws.errs[j] = nil
		ws.perm[j] = j
	}

	// u⁰ = 0, r⁰ = f: the one interleave of the whole solve.
	u.Zero()
	ws.uiv.Zero()
	ws.riv.InterleaveFrom(f, impl)
	for j := 0; j < s; j++ {
		nf := vec.Norm2(f.Col(j))
		if nf == 0 {
			nf = 1 // homogeneous column: absolute residual test
		}
		ws.normF[j] = nf
	}

	act := s
	// deflate retires the column in the given active slot. The column's
	// panel slice of the iterate is final here, so it scatters back to
	// column-contiguous form exactly once — before the swap moves it and
	// before OnColumnDone lets the caller read u.Col(j).
	deflate := func(slot int) {
		j := ws.perm[slot]
		ws.uiv.ScatterCol(slot, u.Col(j))
		defer func() {
			if opt.OnColumnDone != nil {
				opt.OnColumnDone(j, ColumnStats{Stats: ws.cols[j], Err: ws.errs[j]})
			}
		}()
		last := act - 1
		if slot != last {
			ws.riv.SwapCols(slot, last)
			ws.rhativ.SwapCols(slot, last)
			ws.piv.SwapCols(slot, last)
			ws.kpiv.SwapCols(slot, last)
			ws.uiv.SwapCols(slot, last)
			ws.rho[slot], ws.rho[last] = ws.rho[last], ws.rho[slot]
			ws.pkp[slot], ws.pkp[last] = ws.pkp[last], ws.pkp[slot]
			ws.alpha[slot], ws.alpha[last] = ws.alpha[last], ws.alpha[slot]
			ws.beta[slot], ws.beta[last] = ws.beta[last], ws.beta[slot]
			ws.normF[slot], ws.normF[last] = ws.normF[last], ws.normF[slot]
			ws.perm[slot], ws.perm[last] = ws.perm[last], ws.perm[slot]
		}
		act--
		ws.setActiveI(act)
	}

	// M r̂⁰ = r⁰ ; p⁰ = r̂⁰ ; ρ⁰_j = (r̂_j, r_j).
	precond.ApplyInterleaved(m, &ws.rhativ, &ws.riv, impl)
	st.BlockPrecondApps++
	copy(ws.piv.Data, ws.rhativ.Data)
	vec.ParIMultiDot(&ws.rhativ, &ws.riv, w, ws.rho[:act], impl)
	st.InnerProducts += act
	for j := 0; j < s; j++ {
		ws.cols[j].PrecondApps++
		ws.cols[j].InnerProducts++
	}
	for slot := act - 1; slot >= 0; slot-- {
		j := ws.perm[slot]
		switch {
		case ws.rho[slot] < 0:
			ws.errs[j] = ErrBreakdownPrecond
			deflate(slot)
		case ws.rho[slot] == 0: // zero residual: the zero iterate solves column j
			ws.cols[j].Converged = true
			deflate(slot)
		}
	}

	var stopErr error
	for act > 0 && st.Iterations < opt.MaxIter {
		if opt.Ctx != nil {
			if cerr := opt.Ctx.Err(); cerr != nil {
				stopErr = cerr
				break
			}
		}
		st.Iterations++

		// One SpMM feeds every active column: KP = K·P.
		k.ParMulMatITo(&ws.kpiv, &ws.piv, w, impl)
		st.SpMMs++
		vec.ParIMultiDot(&ws.piv, &ws.kpiv, w, ws.pkp[:act], impl)
		st.InnerProducts += act
		for slot := 0; slot < act; slot++ {
			c := &ws.cols[ws.perm[slot]]
			c.MatVecs++
			c.InnerProducts++
		}
		// Matrix breakdowns deflate before the iterate update, exactly
		// where SolveInto stops.
		for slot := act - 1; slot >= 0; slot-- {
			if ws.pkp[slot] <= 0 {
				ws.errs[ws.perm[slot]] = ErrBreakdownMatrix
				deflate(slot)
			}
		}
		if act == 0 {
			break
		}

		for slot := 0; slot < act; slot++ {
			ws.alpha[slot] = ws.rho[slot] / ws.pkp[slot]
		}
		// U += α∘P across the whole panel; the paper's test quantity
		// ‖u^{k+1}−u^k‖_∞ is |α_j|·‖p_j‖_∞ per column.
		vec.ParIMultiAxpy(ws.alpha[:act], &ws.piv, &ws.uiv, w, impl)
		vec.IMultiNormInf(&ws.piv, ws.pinf[:act], impl)
		for slot := 0; slot < act; slot++ {
			c := &ws.cols[ws.perm[slot]]
			c.Iterations++
			c.FinalUDiff = math.Abs(ws.alpha[slot]) * ws.pinf[slot]
		}
		// r_j −= α_j K p_j, fused across the panel.
		for slot := 0; slot < act; slot++ {
			ws.beta[slot] = -ws.alpha[slot] // beta doubles as −α scratch here
		}
		vec.ParIMultiAxpy(ws.beta[:act], &ws.kpiv, &ws.riv, w, impl)
		vec.IMultiNorm2(&ws.riv, ws.rnorm[:act], impl)
		for slot := 0; slot < act; slot++ {
			j := ws.perm[slot]
			c := &ws.cols[j]
			c.FinalRelRes = ws.rnorm[slot] / ws.normF[slot]
			if opt.Observer != nil {
				opt.Observer.ObserveIteration(j, c.Iterations, c.FinalUDiff, c.FinalRelRes)
			}
		}
		// Per-column stopping tests; converged columns deflate out.
		for slot := act - 1; slot >= 0; slot-- {
			c := &ws.cols[ws.perm[slot]]
			if (opt.Tol > 0 && c.FinalUDiff < opt.Tol) || (opt.RelResidualTol > 0 && c.FinalRelRes < opt.RelResidualTol) {
				c.Converged = true
				deflate(slot)
			}
		}
		if act == 0 {
			break
		}

		// One block application serves every surviving column: M r̂_j = r_j.
		precond.ApplyInterleaved(m, &ws.rhativ, &ws.riv, impl)
		st.BlockPrecondApps++
		vec.ParIMultiDot(&ws.rhativ, &ws.riv, w, ws.pkp[:act], impl) // pkp doubles as ρ' scratch
		st.InnerProducts += act
		for slot := 0; slot < act; slot++ {
			c := &ws.cols[ws.perm[slot]]
			c.PrecondApps++
			c.InnerProducts++
		}
		for slot := act - 1; slot >= 0; slot-- {
			j := ws.perm[slot]
			switch {
			case ws.pkp[slot] < 0:
				ws.errs[j] = ErrBreakdownPrecond
				deflate(slot)
			case ws.pkp[slot] == 0:
				// (M⁻¹r, r) = 0 with SPD M means r = 0: exact convergence.
				ws.cols[j].Converged = true
				deflate(slot)
			}
		}
		if act == 0 {
			break
		}

		for slot := 0; slot < act; slot++ {
			ws.beta[slot] = ws.pkp[slot] / ws.rho[slot]
			ws.rho[slot] = ws.pkp[slot]
		}
		// p_j = r̂_j + β_j p_j, fused across the panel.
		vec.ParIMultiXpay(&ws.rhativ, ws.beta[:act], &ws.piv, w, impl)
	}

	// Columns still active at exit ran out of iterations — or the context
	// was canceled; scatter their final iterates and surface them through
	// the hook exactly like deflated ones.
	exitErr := ErrMaxIterations
	if stopErr != nil {
		exitErr = stopErr
	}
	for slot := 0; slot < act; slot++ {
		j := ws.perm[slot]
		ws.uiv.ScatterCol(slot, u.Col(j))
		ws.errs[j] = exitErr
		if opt.OnColumnDone != nil {
			opt.OnColumnDone(j, ColumnStats{Stats: ws.cols[j], Err: exitErr})
		}
	}
	st.Converged = true
	for j := range ws.cols {
		if !ws.cols[j].Converged {
			st.Converged = false
			break
		}
	}
	var errs []error
	for j, e := range ws.errs {
		if e != nil {
			errs = append(errs, fmt.Errorf("cg: rhs %d: %w", j, e))
		}
	}
	return st, errors.Join(errs...)
}
