package cg

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// BlockStats reports a block (multi-right-hand-side) solve: the shared work
// plus per-column recurrence statistics. On the interleaved panel body every
// outer iteration performs exactly one SpMM and one block preconditioner
// application for all active columns; on the column-by-column body the
// counters sum the columns' scalar solves.
type BlockStats struct {
	// RHS is the number of right-hand sides s.
	RHS int
	// Iterations is the maximum iteration count over the columns: the
	// number of outer panel iterations (converged columns deflate out of
	// later ones), or the longest of the column-by-column solves.
	Iterations int
	// SpMMs counts matrix products: one matrix–multivector product per
	// panel iteration, shared by every active column, or the sum of the
	// columns' MatVecs on the column-by-column body.
	SpMMs int
	// BlockPrecondApps counts preconditioner applications: one m-step
	// panel sweep serving all active columns, or the sum of the columns'
	// PrecondApps on the column-by-column body.
	BlockPrecondApps int
	// InnerProducts counts per-column inner-product evaluations, the
	// paper's bottleneck metric, summed over columns.
	InnerProducts int
	// Converged reports that every column converged.
	Converged bool
	// Interleaved reports that the solve ran on the row-interleaved panel
	// layout; false means its columns ran one by one through SolveInto.
	Interleaved bool
	// Kernel names the kernel set the solve's loops ran through
	// ("portable", "avx2", "neon"): Options.Kernel's choice on panels, the
	// startup-selected set otherwise.
	Kernel string
	// Cols holds per-column statistics indexed by right-hand-side:
	// Iterations is the count while the column was active, FinalUDiff /
	// FinalRelRes are its last stopping-test values. The recurrence
	// coefficients (CGAlphas, CGBetas) are not recorded. Cols aliases the
	// workspace; copy entries that must survive the next solve.
	Cols []Stats
	// ColErrs holds the per-column failure (breakdown or iteration-limit),
	// indexed like Cols; nil entries converged (or stopped cleanly).
	ColErrs []error
}

// ColumnStats is the payload of Options.OnColumnDone: a snapshot of one
// column's final statistics, taken the moment the column leaves the active
// set (it does not alias the workspace, unlike BlockStats.Cols).
type ColumnStats struct {
	// Stats is the column's final per-column recurrence report.
	Stats Stats
	// Err is the column's failure — breakdown, iteration limit, or the
	// context's error on cancellation; nil when the column converged.
	Err error
}

// BlockWorkspace holds the scratch for SolveBlockInto, so repeated block
// solves of same-shaped batches (the solver service's steady state)
// allocate nothing. Not safe for concurrent use; give each worker its own.
type BlockWorkspace struct {
	// Interleaved panels and views for the panel body (see solveblocki.go),
	// allocated lazily on the first interleaved solve; ui holds the iterate
	// in panel form, pinf/rnorm the fused per-column norm results.
	ri, rhati, pi, kpi, ui      *vec.IMulti
	riv, rhativ, piv, kpiv, uiv vec.IMulti
	pinf, rnorm                 []float64

	// Per-slot scalars (slot = position in the active prefix).
	rho, pkp, alpha, beta, normF []float64
	// perm maps slot -> original right-hand-side index.
	perm []int

	// scalar is the scratch of the column-by-column body; col relabels
	// that body's observer samples.
	scalar Workspace
	col    colObserver

	cols []Stats
	errs []error
}

// colObserver forwards a scalar solve's convergence samples under the
// tile-local column index of the block solve running it.
type colObserver struct {
	obs Observer
	j   int
}

func (o *colObserver) ObserveIteration(_, iter int, udiff, relres float64) {
	o.obs.ObserveIteration(o.j, iter, udiff, relres)
}

// NewBlockWorkspace returns a workspace sized for n-dimensional systems
// with s right-hand sides; the interleaved panels are allocated by the
// first solve that runs on them. It grows automatically when later used
// for a larger system or batch.
func NewBlockWorkspace(n, s int) *BlockWorkspace {
	w := &BlockWorkspace{}
	w.scalar.ensure(n)
	w.ensure(s)
	return w
}

// ensure sizes the per-column buffers for an s-column solve, reallocating
// only on growth.
func (w *BlockWorkspace) ensure(s int) {
	if cap(w.rho) < s {
		w.rho = make([]float64, s)
		w.pkp = make([]float64, s)
		w.alpha = make([]float64, s)
		w.beta = make([]float64, s)
		w.normF = make([]float64, s)
		w.perm = make([]int, s)
	}
	w.rho, w.pkp, w.alpha, w.beta, w.normF = w.rho[:s], w.pkp[:s], w.alpha[:s], w.beta[:s], w.normF[:s]
	w.perm = w.perm[:s]
	if cap(w.cols) < s {
		w.cols = make([]Stats, s)
		w.errs = make([]error, s)
	}
	w.cols, w.errs = w.cols[:s], w.errs[:s]
}

// SolveBlockInto runs preconditioned CG on s systems K·u_j = f_j sharing
// one matrix and one preconditioner, on one of two bodies:
//
//   - When opt.Interleave is set and both the operator
//     (sparse.InterleavedOperator) and the preconditioner
//     (precond.CanApplyInterleaved) can serve row-interleaved panels, s
//     scalar recurrences advance in lockstep on panels: every iteration
//     performs exactly one matrix–multivector product (BlockStats.SpMMs) and
//     one panel preconditioner application, so the per-iteration memory
//     traffic over K is amortized over all s right-hand sides — the
//     multi-RHS form of the paper's long-vector-operation argument. Each
//     column runs the paper's stopping tests independently; converged (or
//     broken-down) columns deflate out of the active set, so later
//     iterations do no work for them.
//   - Otherwise the columns run one after another through the scalar
//     recurrence SolveInto, on a scalar workspace held in ws.
//
// Either way column j's iterate and Stats match a scalar SolveInto on
// (K, f_j) bit for bit, except that the panel body starts from r⁰ = f
// without SolveInto's initial product K·u⁰ and so counts one MatVec fewer.
//
// u receives the solutions (always starting from the zero iterate;
// opt.X0 is rejected). opt.History, opt.OnIteration and
// opt.VerifyResidual are scalar-solve options and are ignored here;
// opt.Ctx, opt.OnColumnDone and opt.Observer are honored — cancellation
// stops at the next iteration boundary and columns not yet started do not
// run, each column fires the hook once as it finishes (on panels, while the
// rest of the block keeps iterating), and the observer samples every
// active column once per iteration under its tile-local index. With a warm
// workspace and Workers ≤ 1 the steady state performs no heap allocation;
// the returned BlockStats.Cols/ColErrs alias the workspace, so copy them
// before its next solve if they must survive it.
//
// The returned error is nil only when every column converged; otherwise it
// joins the per-column failures (also available in BlockStats.ColErrs).
func SolveBlockInto(u *vec.Multi, k sparse.Operator, f *vec.Multi, m precond.Preconditioner, opt Options, ws *BlockWorkspace) (BlockStats, error) {
	n, cols := k.Dims()
	s := f.S
	if cols != n {
		return BlockStats{}, fmt.Errorf("cg: matrix must be square, got %d×%d", n, cols)
	}
	if f.N != n {
		return BlockStats{}, fmt.Errorf("cg: rhs block is %d×%d, want %d rows", f.N, f.S, n)
	}
	if u.N != n || u.S != s {
		return BlockStats{}, fmt.Errorf("cg: iterate block is %d×%d, want %d×%d", u.N, u.S, n, s)
	}
	if s < 1 {
		return BlockStats{}, fmt.Errorf("cg: block solve needs at least one right-hand side")
	}
	if opt.X0 != nil {
		return BlockStats{}, fmt.Errorf("cg: block solve starts from the zero iterate (X0 unsupported)")
	}
	if opt.Tol <= 0 && opt.RelResidualTol <= 0 {
		return BlockStats{}, fmt.Errorf("cg: no stopping test enabled (Tol and RelResidualTol both unset)")
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	if m == nil {
		m = precond.Identity{}
	}
	if ws == nil {
		ws = NewBlockWorkspace(n, s)
	}
	ws.ensure(s)
	if opt.Interleave {
		if ik, ok := k.(sparse.InterleavedOperator); ok && precond.CanApplyInterleaved(m) {
			return solveBlockInterleaved(u, ik, f, m, opt, ws)
		}
	}
	return solveColumns(u, k, f, m, opt, ws)
}

// solveColumns is the column-by-column body of SolveBlockInto; inputs are
// already validated and ws.ensure has run. Every column runs SolveInto on
// the workspace's one scalar scratch; a column that has not started when
// the context is canceled does not run and reports the context's error.
func solveColumns(u *vec.Multi, k sparse.Operator, f *vec.Multi, m precond.Preconditioner, opt Options, ws *BlockWorkspace) (BlockStats, error) {
	st := BlockStats{RHS: f.S, Cols: ws.cols, ColErrs: ws.errs, Kernel: kernel.Active().Name}
	copt := Options{
		Tol:            opt.Tol,
		RelResidualTol: opt.RelResidualTol,
		MaxIter:        opt.MaxIter,
		Workers:        opt.Workers,
		Ctx:            opt.Ctx,
	}
	if opt.Observer != nil {
		ws.col.obs = opt.Observer
		copt.Observer = &ws.col
	}
	st.Converged = true
	var errs []error
	for j := 0; j < f.S; j++ {
		var cs Stats
		var err error
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			cs, err = Stats{TrueRelRes: -1}, opt.Ctx.Err()
			vec.Zero(u.Col(j))
		} else {
			ws.col.j = j
			cs, err = SolveInto(u.Col(j), k, f.Col(j), m, copt, &ws.scalar)
			// The coefficients alias the scalar scratch the next column
			// reuses; block solves do not report them.
			cs.CGAlphas, cs.CGBetas = nil, nil
		}
		ws.cols[j], ws.errs[j] = cs, err
		st.Iterations = max(st.Iterations, cs.Iterations)
		st.SpMMs += cs.MatVecs
		st.BlockPrecondApps += cs.PrecondApps
		st.InnerProducts += cs.InnerProducts
		st.Converged = st.Converged && cs.Converged
		if err != nil {
			errs = append(errs, fmt.Errorf("cg: rhs %d: %w", j, err))
		}
		if opt.OnColumnDone != nil {
			opt.OnColumnDone(j, ColumnStats{Stats: cs, Err: err})
		}
	}
	return st, errors.Join(errs...)
}
