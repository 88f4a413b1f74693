// Package splitting implements the matrix splittings K = P − Q that
// generate the paper's m-step preconditioners (§2.1): the Jacobi splitting
// P = diag(K) (whose m-step preconditioner is the truncated Neumann series
// of Dubois, Greenbaum and Rodrigue), the natural-ordering SSOR splitting,
// and the 6-color multicolor SSOR splitting of §3 with the Conrad–Wallach
// auxiliary-vector trick (Algorithm 2).
//
// Every splitting exposes the parametrized stationary step
//
//	r̂ ← G·r̂ + α·P⁻¹·r,   G = P⁻¹Q = I − P⁻¹K,
//
// from which the m-step preconditioner application is
//
//	r̂⁽⁰⁾ = 0;  r̂⁽ˢ⁾ = G·r̂⁽ˢ⁻¹⁾ + α_{m−s}·P⁻¹·r,  s = 1..m,
//
// yielding r̂⁽ᵐ⁾ = (α₀I + α₁G + … + α_{m−1}G^{m−1})P⁻¹·r = M_m⁻¹·r.
package splitting

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Splitting is a splitting K = P − Q exposing the parametrized stationary
// step. Implementations must be deterministic.
type Splitting interface {
	// N returns the system dimension.
	N() int
	// Name identifies the splitting in reports.
	Name() string
	// Step performs r̂ ← G·r̂ + α·P⁻¹·r in place. r is read-only and must
	// not alias r̂.
	Step(rhat, r []float64, alpha float64)
}

// MStepApplier is an optional fast path: splittings that can fuse the m
// parametrized steps (eliding provably dead solves, as Algorithm 2 does for
// the multicolor SSOR splitting) implement it. The result must equal m
// sequential Step calls starting from r̂ = 0.
type MStepApplier interface {
	// ApplyMStep computes r̂ = M_m⁻¹·r where m = len(alphas) and
	// alphas[i] = αᵢ.
	ApplyMStep(rhat, r []float64, alphas []float64)
}

// MStepInterleavedApplier is the row-interleaved-panel fast path: the fused
// block sweep over vec.IMulti panels, dispatched through internal/kernel.
// Column j of the result must equal ApplyMStep on column j exactly (same
// arithmetic order), so block and single-vector solves agree bit for bit.
type MStepInterleavedApplier interface {
	// CanApplyMStepInterleaved reports whether the interleaved sweep is
	// available for this splitting's configuration (the multicolor SSOR's
	// fused elisions need ω = 1). Callers decide their block layout from
	// this before building interleaved workspace.
	CanApplyMStepInterleaved() bool
	// ApplyMStepInterleaved computes r̂_j = M_m⁻¹·r_j for every live column
	// of the panels, with m = len(alphas); impl selects the kernel set (nil
	// means the startup-selected one). rhat and r must share one stride.
	ApplyMStepInterleaved(rhat, r *vec.IMulti, alphas []float64, impl *kernel.Impl)
}

// Jacobi is the splitting P = diag(K): the m-step preconditioner it
// generates is the truncated (parametrized) Neumann series for K⁻¹.
type Jacobi struct {
	K    *sparse.CSR
	dinv []float64
	work []float64
}

// NewJacobi builds the Jacobi splitting. It returns an error if any
// diagonal entry is not strictly positive (K must be SPD).
func NewJacobi(k *sparse.CSR) (*Jacobi, error) {
	if k.Rows != k.Cols {
		return nil, fmt.Errorf("splitting: Jacobi needs a square matrix, got %d×%d", k.Rows, k.Cols)
	}
	d := k.Diag()
	dinv := make([]float64, len(d))
	for i, di := range d {
		if di <= 0 {
			return nil, fmt.Errorf("splitting: Jacobi diagonal entry %d is %g (not positive)", i, di)
		}
		dinv[i] = 1 / di
	}
	return &Jacobi{K: k, dinv: dinv, work: make([]float64, k.Rows)}, nil
}

// N returns the system dimension.
func (j *Jacobi) N() int { return j.K.Rows }

// Name identifies the splitting.
func (j *Jacobi) Name() string { return "jacobi" }

// Step performs r̂ ← r̂ + D⁻¹(α·r − K·r̂).
func (j *Jacobi) Step(rhat, r []float64, alpha float64) {
	j.K.MulVecTo(j.work, rhat)
	for i := range rhat {
		rhat[i] += j.dinv[i] * (alpha*r[i] - j.work[i])
	}
}

// NaturalSSOR is the SSOR(ω) splitting in the matrix's stored (natural)
// ordering:
//
//	P_ω = 1/(ω(2−ω)) · (D − ωL) D⁻¹ (D − ωU),
//
// where K = D − L − U (eq. 2.1 of the paper; note L and U here carry the
// minus sign convention, i.e. they are the negated strict parts of K).
// With ω = 1 this is the plain SSOR splitting (D−L)D⁻¹(D−U) the paper uses.
type NaturalSSOR struct {
	K     *sparse.CSR
	d     []float64
	omega float64
}

// NewNaturalSSOR builds the natural-ordering SSOR splitting. ω must lie in
// (0, 2) for P to be positive definite; the diagonal must be positive.
func NewNaturalSSOR(k *sparse.CSR, omega float64) (*NaturalSSOR, error) {
	if k.Rows != k.Cols {
		return nil, fmt.Errorf("splitting: SSOR needs a square matrix, got %d×%d", k.Rows, k.Cols)
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("splitting: SSOR needs 0 < ω < 2, got %g", omega)
	}
	d := k.Diag()
	for i, di := range d {
		if di <= 0 {
			return nil, fmt.Errorf("splitting: SSOR diagonal entry %d is %g (not positive)", i, di)
		}
	}
	return &NaturalSSOR{K: k, d: d, omega: omega}, nil
}

// N returns the system dimension.
func (s *NaturalSSOR) N() int { return s.K.Rows }

// Name identifies the splitting.
func (s *NaturalSSOR) Name() string {
	if s.omega == 1 {
		return "ssor-natural"
	}
	return fmt.Sprintf("ssor-natural(ω=%g)", s.omega)
}

// Step performs one SSOR sweep (forward then backward SOR) with right-hand
// side α·r, the component form of r̂ ← G·r̂ + α·P_ω⁻¹·r.
func (s *NaturalSSOR) Step(rhat, r []float64, alpha float64) {
	k, w := s.K, s.omega
	n := k.Rows
	// Forward SOR sweep (ascending unknowns, in-place Gauss–Seidel style).
	for i := 0; i < n; i++ {
		var sum float64
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			j := k.ColIdx[p]
			if j != i {
				sum += k.Val[p] * rhat[j]
			}
		}
		gs := (alpha*r[i] - sum) / s.d[i]
		rhat[i] = (1-w)*rhat[i] + w*gs
	}
	// Backward SOR sweep.
	for i := n - 1; i >= 0; i-- {
		var sum float64
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			j := k.ColIdx[p]
			if j != i {
				sum += k.Val[p] * rhat[j]
			}
		}
		gs := (alpha*r[i] - sum) / s.d[i]
		rhat[i] = (1-w)*rhat[i] + w*gs
	}
}
