package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/sparse"
)

// randBandedMulticolor builds a random SPD system with the paper's eq. (3.2)
// structure: groups contiguous blocks of size sz, stores couplings only on
// diagonal offsets with |d| >= sz (so every within-group entry is on the
// main diagonal — the multicolor decoupling the SSOR sweeps need), and
// makes the matrix symmetric and strictly diagonally dominant.
func randBandedMulticolor(rng *rand.Rand, groups, sz int) System {
	n := groups * sz
	// A handful of banded offsets, all at least one group wide.
	offsets := []int{sz, sz + 1, 2 * sz}
	coo := sparse.NewCOO(n, n)
	rowAbs := make([]float64, n)
	for _, d := range offsets {
		for i := 0; i+d < n; i++ {
			if rng.Float64() < 0.2 {
				continue // random gaps: diagonals are not fully dense
			}
			v := rng.Float64()*2 - 1
			coo.Add(i, i+d, v)
			coo.Add(i+d, i, v)
			rowAbs[i] += math.Abs(v)
			rowAbs[i+d] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, rowAbs[i]+1)
	}
	start := make([]int, groups+1)
	for g := range start {
		start[g] = g * sz
	}
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.Float64()*2 - 1
	}
	return System{K: coo.ToCSR(), F: f, GroupStart: start}
}

// randScattered builds a random SPD matrix with scattered fill: entry
// positions are uniform, so the occupied-diagonal count grows with n and
// diagonal storage would be nearly all padding.
func randScattered(rng *rand.Rand, n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	rowAbs := make([]float64, n)
	for k := 0; k < 6*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := rng.Float64()*2 - 1
		coo.Add(i, j, v)
		coo.Add(j, i, v)
		rowAbs[i] += math.Abs(v)
		rowAbs[j] += math.Abs(v)
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, rowAbs[i]+1)
	}
	return coo.ToCSR()
}

func TestChooseBackendAuto(t *testing.T) {
	sys, _ := plateSystem(t, 12, 12)
	if got := ChooseBackend(sys.K, BackendAuto); got != BackendDIA {
		t.Fatalf("Auto on banded multicolor plate chose %s, want dia", got)
	}
	if got := ChooseBackend(model.Poisson2D(30, 30), BackendAuto); got != BackendDIA {
		t.Fatalf("Auto on 5-point Poisson stencil chose %s, want dia", got)
	}
	rng := rand.New(rand.NewSource(3))
	if got := ChooseBackend(randScattered(rng, 400), BackendAuto); got != BackendCSR {
		t.Fatalf("Auto on scattered fill chose %s, want csr", got)
	}
	mc := randBandedMulticolor(rng, 6, 40)
	if got := ChooseBackend(mc.K, BackendAuto); got != BackendDIA {
		t.Fatalf("Auto on random banded multicolor system chose %s, want dia", got)
	}
	// Forced policies pass through untouched, even against the structure.
	if got := ChooseBackend(sys.K, BackendCSR); got != BackendCSR {
		t.Fatalf("forced csr resolved to %s", got)
	}
	if got := ChooseBackend(randScattered(rng, 100), BackendDIA); got != BackendDIA {
		t.Fatalf("forced dia resolved to %s", got)
	}
	// Auto never picks DIA for a non-square matrix (unconvertible).
	rect := sparse.NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if got := ChooseBackend(rect.ToCSR(), BackendAuto); got != BackendCSR {
		t.Fatalf("Auto on a non-square matrix chose %s, want csr", got)
	}
}

func TestParseBackend(t *testing.T) {
	for name, want := range map[string]Backend{
		"": BackendAuto, "auto": BackendAuto, "csr": BackendCSR, "dia": BackendDIA,
	} {
		got, err := ParseBackend(name)
		if err != nil || got != want {
			t.Fatalf("ParseBackend(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseBackend("ellpack"); err == nil {
		t.Fatal("ParseBackend accepted an unknown backend")
	}
}

// backendsAgree solves sys once per forced backend and checks both
// converge to the same solution. The two backends traverse the matrix in
// different orders (rows vs diagonals), so iterates differ by rounding —
// ulps per iteration — and the comparison is a tight relative tolerance,
// not bitwise equality.
func backendsAgree(t *testing.T, sys System, cfg Config, label string) {
	t.Helper()
	cfg.Tol = 1e-10
	cfg.MaxIter = 20000
	cfg.Backend = BackendCSR
	csr, err := Solve(sys, cfg)
	if err != nil {
		t.Fatalf("%s: csr solve: %v", label, err)
	}
	cfg.Backend = BackendDIA
	dia, err := Solve(sys, cfg)
	if err != nil {
		t.Fatalf("%s: dia solve: %v", label, err)
	}
	if csr.Backend != "csr" || dia.Backend != "dia" {
		t.Fatalf("%s: backends reported %q/%q", label, csr.Backend, dia.Backend)
	}
	if !csr.Stats.Converged || !dia.Stats.Converged {
		t.Fatalf("%s: converged csr=%v dia=%v", label, csr.Stats.Converged, dia.Stats.Converged)
	}
	if d := csr.Stats.Iterations - dia.Stats.Iterations; d < -2 || d > 2 {
		t.Fatalf("%s: iteration counts diverged: csr %d vs dia %d",
			label, csr.Stats.Iterations, dia.Stats.Iterations)
	}
	for i := range csr.U {
		if diff := math.Abs(csr.U[i] - dia.U[i]); diff > 1e-8*(1+math.Abs(csr.U[i])) {
			t.Fatalf("%s: solutions deviate at %d: %g vs %g", label, i, csr.U[i], dia.U[i])
		}
	}
}

func TestBackendsAgreeOnPlate(t *testing.T) {
	sys, _ := plateSystem(t, 10, 10)
	backendsAgree(t, sys, Config{M: 3, Splitting: SSORMulticolor, Coeffs: LeastSquaresCoeffs}, "plate m=3 ls")
	backendsAgree(t, sys, Config{M: 0}, "plate plain cg")
}

func TestBackendsAgreeOnRandomBandedMulticolor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		groups := 3 + rng.Intn(4)
		sz := 10 + rng.Intn(30)
		sys := randBandedMulticolor(rng, groups, sz)
		label := fmt.Sprintf("trial %d (%d groups × %d)", trial, groups, sz)
		backendsAgree(t, sys, Config{M: 2, Splitting: SSORMulticolor}, label)
	}
}

func TestSolveReportsAutoBackend(t *testing.T) {
	sys, _ := plateSystem(t, 8, 8)
	res, err := Solve(sys, Config{M: 2, Tol: 1e-8, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "dia" {
		t.Fatalf("auto-resolved backend = %q, want dia on the banded plate", res.Backend)
	}
}

func TestSolveDIAOnFEMDomain(t *testing.T) {
	// A non-plate multicolor FEM problem (an irregular L-shaped domain)
	// exercises the same backend path end to end.
	dom, err := fem.NewDomainProblem(mesh.LShapedDomain(mesh.NewGrid(9, 9)), mesh.LeftEdgeClamped, fem.Material{})
	if err != nil {
		t.Fatal(err)
	}
	sys := System{K: dom.KColored, F: dom.ColoredRHS(), GroupStart: dom.GroupStart}
	backendsAgree(t, sys, Config{M: 2, Splitting: SSORMulticolor}, "L-domain")
}
