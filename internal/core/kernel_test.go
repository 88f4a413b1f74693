package core

import (
	"strings"
	"testing"

	"repro/internal/cg"
	"repro/internal/plan"
	"repro/internal/vec"
)

// TestSolveRejectsUnknownKernel: Solve validates the kernel policy before
// doing any work.
func TestSolveRejectsUnknownKernel(t *testing.T) {
	sys, _ := plateSystem(t, 6, 6)
	cfg := Config{M: 2, Splitting: SSORMulticolor, Kernel: "fast"}
	if _, err := Solve(sys, cfg); err == nil || !strings.Contains(err.Error(), "kernel policy") {
		t.Fatalf("Solve: want kernel-policy error, got %v", err)
	}
}

// solveBatch plans an s-wide batch of scaled copies of sys.F the way
// Config selects, and runs it as one block solve over the preconditioner
// and operator the config builds.
func solveBatch(t *testing.T, sys System, s int, cfg Config) (*vec.Multi, cg.BlockStats, string) {
	t.Helper()
	p, _, _, err := BuildPreconditioner(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := cfg.planner().Plan(plan.Inputs{K: sys.K, Policy: cfg.Backend, RHS: s, M: cfg.M, Kernel: cfg.Kernel})
	if !pl.Interleave || len(pl.Tiles) != 1 {
		t.Fatalf("%d-wide batch planned as %d tiles, interleave=%v", s, len(pl.Tiles), pl.Interleave)
	}
	op, _, err := operatorFor(sys.K, pl.Backend)
	if err != nil {
		t.Fatal(err)
	}
	f := vec.NewMulti(len(sys.F), s)
	for j := 0; j < s; j++ {
		for i, v := range sys.F {
			f.Col(j)[i] = float64(j+1) * v
		}
	}
	u := vec.NewMulti(len(sys.F), s)
	st, err := cg.SolveBlockInto(u, op, f, p, cg.Options{
		Tol: cfg.Tol, MaxIter: cfg.MaxIter, Interleave: pl.Interleave, Kernel: pl.Kernel,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u, st, pl.Kernel
}

// TestSolveBatchPortableMatchesAuto: forcing the portable kernel set on a
// planned batch changes nothing observable — iterates bit-identical,
// iteration counts equal — and the plan and stats carry the set's name.
func TestSolveBatchPortableMatchesAuto(t *testing.T) {
	sys, _ := plateSystem(t, 8, 8)
	cfg := Config{M: 2, Splitting: SSORMulticolor, Tol: 1e-10, MaxIter: 20000}
	auto, autoSt, _ := solveBatch(t, sys, 8, cfg)
	cfg.Kernel = "portable"
	port, portSt, name := solveBatch(t, sys, 8, cfg)
	if name != "portable" || portSt.Kernel != "portable" {
		t.Fatalf("portable batch: plan kernel %q, stats kernel %q", name, portSt.Kernel)
	}
	for j := 0; j < auto.S; j++ {
		if autoSt.Cols[j].Iterations != portSt.Cols[j].Iterations {
			t.Fatalf("rhs %d: iterations differ across kernel sets: %d vs %d",
				j, autoSt.Cols[j].Iterations, portSt.Cols[j].Iterations)
		}
	}
	for i := range auto.Data {
		if auto.Data[i] != port.Data[i] {
			t.Fatalf("iterates differ at flat %d across kernel sets", i)
		}
	}
}
