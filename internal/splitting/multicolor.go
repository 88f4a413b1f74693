package splitting

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// SixColorSSOR is the multicolor SSOR splitting of the paper's §3
// (Algorithm 2): the matrix is in the 6-color ordering of eq. (3.1), where
// each color group's diagonal block is a diagonal matrix, so a Gauss–Seidel
// sweep over unknowns in ascending order is exactly a sweep over the six
// colors — every color solve is an independent (vectorizable / fully
// parallel) diagonal solve.
//
// The m-step application uses the Conrad–Wallach auxiliary vector y to
// cache the one-sided block sums between half-sweeps, making the m-step
// SSOR preconditioner only as expensive per step as one multicolor SOR
// sweep, and elides the provably dead backward color-1 solves of the
// intermediate steps (the paper defers that solve to its final step (3)).
type SixColorSSOR struct {
	K     *sparse.CSR
	Start []int // group boundaries: group c spans [Start[c], Start[c+1])
	d     []float64
	y     []float64 // Conrad–Wallach cache, one value per unknown
	yb    []float64 // interleaved-apply cache, one value per unknown per panel slot
	omega float64
	ka    kernel.SweepArgs // reused matrix-side argument block for the fused sweeps
}

// NewSixColorSSOR builds the multicolor SSOR splitting (ω = 1, the paper's
// choice) from a matrix in multicolor ordering with group boundaries start
// (len = numGroups+1, start[0] = 0, start[end] = n). It verifies the
// multicolor decoupling: within a group, off-diagonal entries must be
// absent.
func NewSixColorSSOR(k *sparse.CSR, start []int) (*SixColorSSOR, error) {
	return NewMulticolorSSOR(k, start, 1)
}

// NewMulticolorSSOR builds the multicolor SSOR(ω) splitting. The group
// count is arbitrary (6 for the paper's plate; 2k for a k-coloring of a
// general mesh). ω must lie in (0, 2). Note the Conrad–Wallach elisions of
// Algorithm 2 are exact only at ω = 1; other ω values use strict sweeps.
func NewMulticolorSSOR(k *sparse.CSR, start []int, omega float64) (*SixColorSSOR, error) {
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("splitting: multicolor SSOR needs 0 < ω < 2, got %g", omega)
	}
	if k.Rows != k.Cols {
		return nil, fmt.Errorf("splitting: multicolor SSOR needs a square matrix, got %d×%d", k.Rows, k.Cols)
	}
	if len(start) < 2 || start[0] != 0 || start[len(start)-1] != k.Rows {
		return nil, fmt.Errorf("splitting: group boundaries %v do not cover [0,%d]", start, k.Rows)
	}
	for c := 1; c < len(start); c++ {
		if start[c] < start[c-1] {
			return nil, fmt.Errorf("splitting: group boundaries %v not nondecreasing", start)
		}
	}
	d := k.Diag()
	for i, di := range d {
		if di <= 0 {
			return nil, fmt.Errorf("splitting: multicolor SSOR diagonal entry %d is %g (not positive)", i, di)
		}
	}
	s := &SixColorSSOR{K: k, Start: append([]int{}, start...), d: d, y: make([]float64, k.Rows), omega: omega}
	if err := s.verifyDecoupled(); err != nil {
		return nil, err
	}
	return s, nil
}

// verifyDecoupled checks that every within-group entry is on the main
// diagonal — the property the multicolor ordering guarantees and the color
// sweeps rely on.
func (s *SixColorSSOR) verifyDecoupled() error {
	for c := 0; c+1 < len(s.Start); c++ {
		lo, hi := s.Start[c], s.Start[c+1]
		for i := lo; i < hi; i++ {
			for p := s.K.RowPtr[i]; p < s.K.RowPtr[i+1]; p++ {
				j := s.K.ColIdx[p]
				if j != i && j >= lo && j < hi {
					return fmt.Errorf("splitting: group %d not decoupled: entry (%d,%d) within group", c, i, j)
				}
			}
		}
	}
	return nil
}

// N returns the system dimension.
func (s *SixColorSSOR) N() int { return s.K.Rows }

// Name identifies the splitting.
func (s *SixColorSSOR) Name() string {
	if s.omega == 1 {
		return "ssor-multicolor"
	}
	return fmt.Sprintf("ssor-multicolor(ω=%g)", s.omega)
}

// numGroups returns the number of color groups.
func (s *SixColorSSOR) numGroups() int { return len(s.Start) - 1 }

// lowerSum returns −Σ_{j < Start[c]} K_{ij}·r̂_j for row i of group c, the
// forward-sweep block sum x of Algorithm 2.
func (s *SixColorSSOR) lowerSum(i, groupLo int, rhat []float64) float64 {
	var sum float64
	for p := s.K.RowPtr[i]; p < s.K.RowPtr[i+1]; p++ {
		j := s.K.ColIdx[p]
		if j >= groupLo {
			break // columns are sorted; rest are within-group or upper
		}
		sum += s.K.Val[p] * rhat[j]
	}
	return -sum
}

// upperSum returns −Σ_{j ≥ Start[c+1]} K_{ij}·r̂_j for row i of group c,
// the backward-sweep block sum.
func (s *SixColorSSOR) upperSum(i, groupHi int, rhat []float64) float64 {
	var sum float64
	for p := s.K.RowPtr[i+1] - 1; p >= s.K.RowPtr[i]; p-- {
		j := s.K.ColIdx[p]
		if j < groupHi {
			break
		}
		sum += s.K.Val[p] * rhat[j]
	}
	return -sum
}

// Step performs one strict SSOR(ω=1) sweep r̂ ← G·r̂ + α·P⁻¹·r from an
// arbitrary r̂: a forward color sweep (colors ascending) followed by a
// backward color sweep (descending). This is the reference implementation;
// ApplyMStep is the fused Conrad–Wallach path.
func (s *SixColorSSOR) Step(rhat, r []float64, alpha float64) {
	ng := s.numGroups()
	w := s.omega
	for c := 0; c < ng; c++ {
		lo, hi := s.Start[c], s.Start[c+1]
		for i := lo; i < hi; i++ {
			x := s.lowerSum(i, lo, rhat)
			u := s.upperSum(i, hi, rhat)
			rhat[i] = (1-w)*rhat[i] + w*(x+u+alpha*r[i])/s.d[i]
		}
	}
	for c := ng - 1; c >= 0; c-- {
		lo, hi := s.Start[c], s.Start[c+1]
		for i := lo; i < hi; i++ {
			x := s.lowerSum(i, lo, rhat)
			u := s.upperSum(i, hi, rhat)
			rhat[i] = (1-w)*rhat[i] + w*(x+u+alpha*r[i])/s.d[i]
		}
	}
}

// ApplyMStep computes r̂ = M_m⁻¹·r with m = len(alphas) fused steps
// (Algorithm 2 / Algorithm 3 of the paper):
//
//   - the Conrad–Wallach vector y caches the lower block sums from the
//     forward half-sweep for reuse in the backward half-sweep and the upper
//     sums from the backward half-sweep for the next forward half-sweep, so
//     each half-sweep touches only one triangle of K;
//   - the backward sweep skips the last color (its re-solve is identical to
//     the forward solve just performed);
//   - the backward color-1 solve is elided on steps 1..m−1 (its result is
//     provably dead: the next forward color-1 solve overwrites it without
//     reading it) and performed only on the final step — the paper's
//     trailing step (3) with coefficient α₀.
func (s *SixColorSSOR) ApplyMStep(rhat, r []float64, alphas []float64) {
	m := len(alphas)
	if m < 1 {
		panic("splitting: ApplyMStep needs at least one step")
	}
	if s.omega != 1 {
		// The dead-solve elisions rely on Gauss–Seidel idempotence, which
		// fails under relaxation; fall back to strict parametrized steps.
		for i := range rhat {
			rhat[i] = 0
		}
		for step := 1; step <= m; step++ {
			s.Step(rhat, r, alphas[m-step])
		}
		return
	}
	ng := s.numGroups()
	for i := range rhat {
		rhat[i] = 0
		s.y[i] = 0
	}
	for step := 1; step <= m; step++ {
		alpha := alphas[m-step]
		// Forward half-sweep: colors ascending. x = fresh lower sum,
		// y[i] = cached upper sum from the previous backward half-sweep.
		// The last color has an empty upper sum and no backward re-solve,
		// so its cache must remain 0 rather than hold the lower sum.
		for c := 0; c < ng; c++ {
			lo, hi := s.Start[c], s.Start[c+1]
			cache := c < ng-1
			for i := lo; i < hi; i++ {
				x := s.lowerSum(i, lo, rhat)
				rhat[i] = (x + s.y[i] + alpha*r[i]) / s.d[i]
				if cache {
					s.y[i] = x
				}
			}
		}
		// Backward half-sweep: colors descending, skipping the last color
		// (identical re-solve). x = fresh upper sum, y[i] = cached lower
		// sum from the forward half-sweep.
		for c := ng - 2; c >= 0; c-- {
			lo, hi := s.Start[c], s.Start[c+1]
			solve := c > 0 || step == m
			for i := lo; i < hi; i++ {
				x := s.upperSum(i, hi, rhat)
				if solve {
					rhat[i] = (x + s.y[i] + alpha*r[i]) / s.d[i]
				}
				s.y[i] = x
			}
		}
	}
}

// sweepArgs refreshes the reused kernel argument block for a fused sweep.
func (s *SixColorSSOR) sweepArgs(alphas []float64) {
	s.ka = kernel.SweepArgs{
		RowPtr: s.K.RowPtr,
		ColIdx: s.K.ColIdx,
		Val:    s.K.Val,
		Start:  s.Start,
		Diag:   s.d,
		Alphas: alphas,
	}
}

// CanApplyMStepInterleaved reports whether the fused interleaved sweep is
// available: the Conrad–Wallach elisions it builds on are exact only at
// ω = 1.
func (s *SixColorSSOR) CanApplyMStepInterleaved() bool { return s.omega == 1 }

// ApplyMStepInterleaved computes r̂_j = M_m⁻¹·r_j for every live column of
// row-interleaved panels with one fused sweep structure: at each (step,
// color, row) the solve runs across all s columns while row i's index/value
// block is hot in cache, so a panel application traverses K's rows once per
// half-sweep instead of once per half-sweep per right-hand side, and the s
// per-column block sums of a gathered row read from adjacent memory. impl
// selects the kernel set (nil means the startup-selected one). Column j
// reproduces ApplyMStep on column j exactly (same per-column arithmetic
// order, including the Conrad–Wallach caching and dead-solve elisions;
// −a−b ≡ −(a+b) in IEEE arithmetic, negation being exact).
//
// Like Apply/Step, this mutates per-splitting scratch and is not safe for
// concurrent use; the engine's preconditioner pool hands each job its own
// instance. Callers must check CanApplyMStepInterleaved first; rhat and r
// must share one stride.
func (s *SixColorSSOR) ApplyMStepInterleaved(rhat, r *vec.IMulti, alphas []float64, impl *kernel.Impl) {
	m := len(alphas)
	if m < 1 {
		panic("splitting: ApplyMStepInterleaved needs at least one step")
	}
	if !s.CanApplyMStepInterleaved() {
		panic("splitting: ApplyMStepInterleaved needs ω = 1 (check CanApplyMStepInterleaved)")
	}
	n := s.K.Rows
	if rhat.N != n || r.N != n || r.S != rhat.S || r.Stride != rhat.Stride {
		panic(fmt.Sprintf("splitting: ApplyMStepInterleaved dims: K %d×%d, r %d×%d/%d, rhat %d×%d/%d",
			n, n, r.N, r.S, r.Stride, rhat.N, rhat.S, rhat.Stride))
	}
	if impl == nil {
		impl = kernel.Active()
	}
	st := rhat.Stride
	if cap(s.yb) < n*st {
		s.yb = make([]float64, n*st)
	}
	s.sweepArgs(alphas)
	impl.SweepCSRI(&s.ka, rhat.Data, r.Data, s.yb[:n*st], st, n, rhat.S)
}

// GroupLengths returns the size of each color group — the vector lengths of
// the per-color diagonal solves, which the CYBER simulator charges time for.
func (s *SixColorSSOR) GroupLengths() []int {
	out := make([]int, s.numGroups())
	for c := range out {
		out[c] = s.Start[c+1] - s.Start[c]
	}
	return out
}
