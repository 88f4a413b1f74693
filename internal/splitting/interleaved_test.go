package splitting

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vec"
)

// TestApplyMStepInterleavedMatchesPerColumn: the fused interleaved sweep
// must equal per-column ApplyMStep exactly, for both kernel sets, several m
// and panel widths.
func TestApplyMStepInterleavedMatchesPerColumn(t *testing.T) {
	s, _, _ := newSixColor(t, 7, 6)
	if !s.CanApplyMStepInterleaved() {
		t.Fatal("ω = 1 multicolor SSOR must offer the interleaved sweep")
	}
	n := s.N()
	rng := rand.New(rand.NewSource(21))
	for _, impl := range []*kernel.Impl{kernel.Portable(), kernel.Active()} {
		for _, m := range []int{1, 2, 4} {
			alphas := make([]float64, m)
			for i := range alphas {
				alphas[i] = 0.5 + rng.Float64()
			}
			for _, cols := range []int{1, 2, 5, 8} {
				r := vec.NewMulti(n, cols)
				for i := range r.Data {
					r.Data[i] = rng.NormFloat64()
				}
				ir := r.Interleaved()
				iz := vec.NewIMulti(n, cols)
				s.ApplyMStepInterleaved(iz, ir, alphas, impl)
				for j := 0; j < cols; j++ {
					want := make([]float64, n)
					s.ApplyMStep(want, r.Col(j), alphas)
					got := make([]float64, n)
					iz.ScatterCol(j, got)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s m=%d cols=%d col %d row %d: interleaved %g != per-column %g",
								impl.Name, m, cols, j, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestApplyMStepInterleavedRelaxedUnavailable: ω ≠ 1 has no fused
// interleaved sweep — the capability probe must say so, and the solvers run
// such blocks column by column.
func TestApplyMStepInterleavedRelaxedUnavailable(t *testing.T) {
	k, start, _ := coloredPlate(t, 6, 6)
	s, err := NewMulticolorSSOR(k, start, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if s.CanApplyMStepInterleaved() {
		t.Fatal("ω = 1.3 must not offer the fused interleaved sweep")
	}
}

// TestApplyMStepInterleavedAllocFree guards the sweep hot path: after the
// first call warms the cache panel, fused interleaved sweeps never allocate.
func TestApplyMStepInterleavedAllocFree(t *testing.T) {
	s, _, _ := newSixColor(t, 7, 6)
	n := s.N()
	rng := rand.New(rand.NewSource(22))
	r := vec.NewMulti(n, 8)
	for i := range r.Data {
		r.Data[i] = rng.NormFloat64()
	}
	ir := r.Interleaved()
	iz := vec.NewIMulti(n, 8)
	alphas := []float64{1, 1, 1}
	s.ApplyMStepInterleaved(iz, ir, alphas, nil) // warm the cache panel
	if a := testing.AllocsPerRun(20, func() { s.ApplyMStepInterleaved(iz, ir, alphas, nil) }); a != 0 {
		t.Errorf("ApplyMStepInterleaved allocates %.1f per run", a)
	}
}
