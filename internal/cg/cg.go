// Package cg implements the preconditioned conjugate gradient method,
// Algorithm 1 of the paper, for sparse symmetric positive definite systems.
// The default stopping test is the paper's ‖u^{k+1} − u^k‖_∞ < ε; a
// relative-residual test is available as an alternative or supplement.
package cg

import (
	"context"
	"errors"
	"math"

	"repro/internal/precond"
	"repro/internal/sparse"
)

// ErrBreakdownMatrix signals (p, Kp) ≤ 0: the system matrix is not positive
// definite on the Krylov space.
var ErrBreakdownMatrix = errors.New("cg: breakdown — system matrix not positive definite")

// ErrBreakdownPrecond signals (r̂, r) ≤ 0 away from convergence: the
// preconditioner is indefinite (the paper's §2 positivity requirement on
// the eigenvalues of M_m⁻¹K is violated).
var ErrBreakdownPrecond = errors.New("cg: breakdown — preconditioner not positive definite")

// ErrMaxIterations signals the iteration limit was hit before either
// stopping test fired.
var ErrMaxIterations = errors.New("cg: maximum iterations reached without convergence")

// Options configure a solve.
type Options struct {
	// Tol is ε in the paper's test ‖u^{k+1}−u^k‖_∞ < ε. Set ≤ 0 to disable.
	Tol float64
	// RelResidualTol stops when ‖r‖₂/‖f‖₂ drops below it. Set ≤ 0 to
	// disable. At least one of the two tests must be enabled.
	RelResidualTol float64
	// MaxIter bounds the iteration count (default 10·n).
	MaxIter int
	// X0 is the initial guess (default zero).
	X0 []float64
	// History records the per-iteration ‖u diff‖_∞ and ‖r‖₂ when true.
	History bool
	// OnIteration, when non-nil, is invoked after every iteration with the
	// 1-based iteration number, ‖u^{k+1}−u^k‖_∞ and ‖r‖₂/‖f‖₂. Returning
	// false stops the solve (reported as not converged, no error).
	OnIteration func(iter int, udiff, relres float64) bool
	// VerifyResidual recomputes the true residual ‖f − K·u‖₂/‖f‖₂ at exit
	// and stores it in Stats.TrueRelRes (one extra matrix–vector product);
	// it guards against recurrence drift on long runs.
	VerifyResidual bool
	// Workers caps the goroutine fan-out of the SpMV/dot/axpy kernels.
	// ≤ 1 keeps every kernel serial (the default). The solver service sets
	// this to a per-job budget so p concurrent jobs × w workers never
	// oversubscribe GOMAXPROCS.
	Workers int
	// Ctx, when non-nil, is polled once per iteration: after it is
	// canceled the solve stops at the next iteration boundary and reports
	// the context's error (the partial iterate is still returned). This is
	// how the solver service propagates a disconnected client into a
	// long-running solve instead of leaking it.
	Ctx context.Context
	// OnColumnDone, when non-nil, is invoked by block solves the moment a
	// column finishes — converged, broken down, canceled, or out of
	// iterations — with the column's original right-hand-side index and
	// its final statistics. It fires from the solving goroutine: on the
	// interleaved panel body while the remaining columns keep iterating, so
	// early-converging columns surface before the block finishes; on the
	// column-by-column body right after that column's solve. The column's
	// slice of the iterate block is final and safe to read inside the
	// callback. Every column fires exactly once per solve. Scalar solves
	// ignore it.
	OnColumnDone func(col int, stats ColumnStats)
	// Observer, when non-nil, receives one convergence sample per iteration
	// — per active column for block solves — from the solve hot loop. It is
	// the telemetry tap convergence curves are captured through; unlike
	// OnIteration it cannot stop the solve, and implementations must not
	// allocate or block (the steady-state solve path stays allocation-free
	// with an Observer attached — see the AllocsPerRun guards).
	Observer Observer
	// Interleave requests the row-interleaved panel layout for block
	// solves: the block is converted once at entry, iterated on in lockstep
	// with the fused interleaved kernels, and converted back as columns
	// finish. It is honored only when both the operator and the
	// preconditioner can serve interleaved panels
	// (sparse.InterleavedOperator and precond.InterleavedApplier);
	// otherwise, and whenever it is false, the columns run one by one
	// through the scalar recurrence and BlockStats.Interleaved reports
	// false. Column iterates are bit-identical either way. Scalar solves
	// ignore it.
	Interleave bool
	// Kernel selects the kernel set for the interleaved panel body: "" or
	// "auto" for the startup-selected set, "portable" for the reference
	// set (kernel.Select). Columns run one by one always use the
	// startup-selected set.
	Kernel string
}

// Observer receives per-iteration convergence telemetry. col is the block
// solve's tile-local right-hand-side index (0 for scalar solves), iter the
// 1-based iteration count for that column, udiff the paper's stopping
// quantity ‖u^{k+1}−u^k‖_∞ and relres the relative residual ‖r‖₂/‖f‖₂.
// obs.ConvergenceLog is the standard implementation; the interface lives
// here so the solver kernels depend on nothing above them.
type Observer interface {
	ObserveIteration(col, iter int, udiff, relres float64)
}

// Stats reports what a solve did.
type Stats struct {
	Iterations    int
	Converged     bool
	FinalUDiff    float64 // last ‖u^{k+1}−u^k‖_∞
	FinalRelRes   float64 // last ‖r‖₂/‖f‖₂
	InnerProducts int     // number of (·,·) evaluations, the paper's bottleneck metric
	PrecondApps   int
	MatVecs       int

	// CGAlphas and CGBetas are the recurrence coefficients; the Lanczos
	// tridiagonal matrix assembled from them drives the eigenvalue
	// estimates in internal/eigen.
	CGAlphas, CGBetas []float64

	// UDiffHistory and ResidualHistory are filled when Options.History.
	UDiffHistory    []float64
	ResidualHistory []float64

	// TrueRelRes is the recomputed ‖f − K·u‖₂/‖f‖₂ when
	// Options.VerifyResidual is set (−1 otherwise).
	TrueRelRes float64
	// Stopped reports that Options.OnIteration requested an early stop.
	Stopped bool
}

// Solve runs preconditioned CG on K·u = f with preconditioner M. K is any
// sparse.Operator backend (CSR, DIA, …); the solver only ever applies it.
// It returns the iterate, statistics, and an error for breakdowns or
// hitting MaxIter (the partial result is still returned). Each call
// allocates its scratch; allocation-sensitive callers use SolveInto with a
// reused Workspace.
func Solve(k sparse.Operator, f []float64, m precond.Preconditioner, opt Options) ([]float64, Stats, error) {
	rows, _ := k.Dims()
	u := make([]float64, rows)
	st, err := SolveInto(u, k, f, m, opt, nil)
	return u, st, err
}

// LanczosTridiagonal reconstructs the Lanczos tridiagonal matrix T from the
// CG coefficients: T has diagonal d_k = 1/α_k + β_{k−1}/α_{k−1} (β_{−1}=0)
// and off-diagonal e_k = √β_k / α_k. Its eigenvalues approximate the
// extreme eigenvalues of M⁻¹K, giving the condition numbers reported by
// the experiments.
func LanczosTridiagonal(st Stats) (diag, offdiag []float64) {
	na := len(st.CGAlphas)
	if na == 0 {
		return nil, nil
	}
	diag = make([]float64, na)
	offdiag = make([]float64, 0, na-1)
	for k := 0; k < na; k++ {
		diag[k] = 1 / st.CGAlphas[k]
		if k > 0 {
			diag[k] += st.CGBetas[k-1] / st.CGAlphas[k-1]
		}
		if k < len(st.CGBetas) && k+1 < na {
			offdiag = append(offdiag, math.Sqrt(st.CGBetas[k])/st.CGAlphas[k])
		}
	}
	return diag, offdiag
}
