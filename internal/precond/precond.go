// Package precond assembles the paper's preconditioners: the identity
// (plain CG), and the m-step preconditioner M_m⁻¹ = (Σ αᵢGⁱ)P⁻¹ built from
// any splitting (§2), in unparametrized (αᵢ = 1) and parametrized
// (least-squares or Chebyshev) form. The truncated Neumann series
// preconditioner of Dubois, Greenbaum and Rodrigue is the Jacobi-splitting
// special case.
package precond

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/poly"
	"repro/internal/splitting"
	"repro/internal/vec"
)

// Preconditioner applies z = M⁻¹·r.
type Preconditioner interface {
	// Apply computes z = M⁻¹·r. z must not alias r.
	Apply(z, r []float64)
	// Name identifies the preconditioner in reports.
	Name() string
	// Steps returns m, the number of inner stationary steps per
	// application (0 for the identity).
	Steps() int
}

// InterleavedApplier is the row-interleaved-panel fast path: preconditioners
// that can serve a whole panel in one fused sweep implement it. Column j of
// the result must equal Apply on column j exactly, so a block solve on
// panels matches single-vector CG bit for bit.
type InterleavedApplier interface {
	// CanApplyInterleaved reports whether the fused interleaved path is
	// available for this preconditioner's configuration. Callers (the block
	// CG solver) decide their block layout from this up front; there is no
	// per-apply fallback.
	CanApplyInterleaved() bool
	// ApplyInterleaved computes z_j = M⁻¹·r_j for every live column of the
	// panels; impl selects the kernel set (nil means the startup-selected
	// one). z must not alias r; z and r must share one stride.
	ApplyInterleaved(z, r *vec.IMulti, impl *kernel.Impl)
}

// CanApplyInterleaved reports whether p can serve interleaved panels
// directly — the layout probe behind the solvers' wide-block fast path.
func CanApplyInterleaved(p Preconditioner) bool {
	ia, ok := p.(InterleavedApplier)
	return ok && ia.CanApplyInterleaved()
}

// ApplyInterleaved computes z = M⁻¹·r over interleaved panels. The caller
// must have checked CanApplyInterleaved.
func ApplyInterleaved(p Preconditioner, z, r *vec.IMulti, impl *kernel.Impl) {
	p.(InterleavedApplier).ApplyInterleaved(z, r, impl)
}

// Identity is the trivial preconditioner M = I: plain conjugate gradient.
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// CanApplyInterleaved reports true: a copy works on any layout.
func (Identity) CanApplyInterleaved() bool { return true }

// ApplyInterleaved copies r into z.
func (Identity) ApplyInterleaved(z, r *vec.IMulti, _ *kernel.Impl) { copy(z.Data, r.Data) }

// Name identifies the preconditioner.
func (Identity) Name() string { return "none" }

// Steps returns 0.
func (Identity) Steps() int { return 0 }

// MStep is the m-step preconditioner over a splitting. When the splitting
// implements splitting.MStepApplier (the multicolor SSOR does, via the
// fused Conrad–Wallach sweeps of Algorithm 2) the fast path is used;
// otherwise m parametrized stationary steps are taken.
type MStep struct {
	Split           splitting.Splitting
	Alphas          poly.Alphas
	fast            splitting.MStepApplier
	fastInterleaved splitting.MStepInterleavedApplier
}

// NewMStep builds the m-step preconditioner; m = Alphas.M() must be ≥ 1.
func NewMStep(sp splitting.Splitting, a poly.Alphas) (*MStep, error) {
	if a.M() < 1 {
		return nil, fmt.Errorf("precond: m-step preconditioner needs m >= 1, got %d", a.M())
	}
	m := &MStep{Split: sp, Alphas: a}
	if fa, ok := sp.(splitting.MStepApplier); ok {
		m.fast = fa
	}
	if fi, ok := sp.(splitting.MStepInterleavedApplier); ok {
		m.fastInterleaved = fi
	}
	return m, nil
}

// Apply computes z = M_m⁻¹·r.
func (m *MStep) Apply(z, r []float64) {
	if m.fast != nil {
		m.fast.ApplyMStep(z, r, m.Alphas.Coeffs)
		return
	}
	for i := range z {
		z[i] = 0
	}
	mm := m.Alphas.M()
	for s := 1; s <= mm; s++ {
		m.Split.Step(z, r, m.Alphas.Coeffs[mm-s])
	}
}

// CanApplyInterleaved reports whether the splitting has a fused interleaved
// sweep for its configuration (the multicolor SSOR does at ω = 1).
func (m *MStep) CanApplyInterleaved() bool {
	return m.fastInterleaved != nil && m.fastInterleaved.CanApplyMStepInterleaved()
}

// ApplyInterleaved computes z_j = M_m⁻¹·r_j over interleaved panels through
// the splitting's fused sweep. The caller must have checked
// CanApplyInterleaved.
func (m *MStep) ApplyInterleaved(z, r *vec.IMulti, impl *kernel.Impl) {
	m.fastInterleaved.ApplyMStepInterleaved(z, r, m.Alphas.Coeffs, impl)
}

// Name identifies the preconditioner, e.g. "3-step ssor-multicolor
// (least-squares)".
func (m *MStep) Name() string {
	return fmt.Sprintf("%d-step %s (%s)", m.Alphas.M(), m.Split.Name(), m.Alphas.Kind)
}

// Steps returns m.
func (m *MStep) Steps() int { return m.Alphas.M() }
