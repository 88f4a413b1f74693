// Benchmark harness: one benchmark per paper table/figure plus ablations
// of the design decisions DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Wall-clock numbers measure this machine, not the 1983 hardware; the
// simulated seconds and iteration counts reported via b.ReportMetric are
// the reproduction targets.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fem"
	"repro/internal/femachine"
	"repro/internal/kernel"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
	"repro/internal/vectorsim"
)

// --- Table 1: parametrized coefficient computation --------------------

func BenchmarkTable1Coefficients(b *testing.B) {
	for _, m := range []int{2, 3, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := poly.LeastSquares(m, 0.01, 1.02); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 2: CYBER 203 sweep -----------------------------------------

func BenchmarkTable2CyberSweep(b *testing.B) {
	specs := []experiments.MSpec{{M: 0}, {M: 1}, {M: 2}, {M: 2, Param: true}, {M: 4, Param: true}, {M: 6, Param: true}}
	for _, a := range []int{10, 20} {
		for _, s := range specs {
			b.Run(fmt.Sprintf("a=%d/m=%s", a, s.Label()), func(b *testing.B) {
				var iters int
				var secs float64
				for i := 0; i < b.N; i++ {
					run, err := vectorsim.SimulatePlate(vectorsim.Cyber203(), a, a, s.M, s.Param, 1e-6)
					if err != nil {
						b.Fatal(err)
					}
					iters, secs = run.Iterations, run.Seconds
				}
				b.ReportMetric(float64(iters), "iterations")
				b.ReportMetric(secs, "simulated-s")
			})
		}
	}
}

// --- Table 3: Finite Element Machine ------------------------------------

func BenchmarkTable3FEMachine(b *testing.B) {
	plate, err := fem.NewPlate(6, 6, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range []struct {
		p     int
		m     int
		strat mesh.Strategy
	}{
		{1, 0, mesh.RowStrips}, {2, 0, mesh.RowStrips}, {5, 0, mesh.ColStrips},
		{1, 2, mesh.RowStrips}, {2, 2, mesh.RowStrips}, {5, 2, mesh.ColStrips},
	} {
		b.Run(fmt.Sprintf("P=%d/m=%d", spec.p, spec.m), func(b *testing.B) {
			cfg := femachine.Config{
				P: spec.p, Strategy: spec.strat, M: spec.m,
				Tol: 1e-6, MaxIter: 100000, Time: femachine.DefaultTimeModel(),
			}
			if spec.m > 0 {
				cfg.Alphas = poly.Ones(spec.m).Coeffs
			}
			var res femachine.Result
			for i := 0; i < b.N; i++ {
				mach, err := femachine.New(plate, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = mach.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Iterations), "iterations")
			b.ReportMetric(res.SimTime, "simulated-s")
		})
	}
}

// --- §2.1 condition study ------------------------------------------------

func BenchmarkConditionEstimate(b *testing.B) {
	sys, _, err := core.PlateSystem(12, 12, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := core.Solve(sys, core.Config{M: 2, RelResidualTol: 1e-10, MaxIter: 10000})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := repro.EstimateCondition(repro.Result(res)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures: renderers ----------------------------------------------------

func BenchmarkFigureRenderers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AllFigures(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver benchmarks (real wall clock) --------------------------------

func BenchmarkSolvePlate(b *testing.B) {
	for _, size := range []int{16, 32} {
		sys, _, err := core.PlateSystem(size, size, fem.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range []struct {
			label string
			c     core.Config
		}{
			{"cg", core.Config{M: 0}},
			{"ssor-m1", core.Config{M: 1}},
			{"ssor-m4-ls", core.Config{M: 4, Coeffs: core.LeastSquaresCoeffs}},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", sys.K.Rows, cfg.label), func(b *testing.B) {
				c := cfg.c
				c.Tol = 1e-6
				c.MaxIter = 100000
				var iters int
				for i := 0; i < b.N; i++ {
					res, err := core.Solve(sys, c)
					if err != nil {
						b.Fatal(err)
					}
					iters = res.Stats.Iterations
				}
				b.ReportMetric(float64(iters), "iterations")
			})
		}
	}
}

// --- Ablation: Conrad–Wallach fused sweeps vs naive m-step ---------------

func BenchmarkAblationConradWallach(b *testing.B) {
	sys, _, err := core.PlateSystem(24, 24, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(sys.K, sys.GroupStart)
	if err != nil {
		b.Fatal(err)
	}
	alphas := poly.Ones(4).Coeffs
	rhat := make([]float64, sys.K.Rows)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mc.ApplyMStep(rhat, sys.F, alphas)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.Zero(rhat)
			for s := 1; s <= 4; s++ {
				mc.Step(rhat, sys.F, alphas[4-s])
			}
		}
	})
}

// --- Ablation: SpMV formats (CSR vs DIA vs parallel CSR) -----------------

func BenchmarkAblationSpMV(b *testing.B) {
	sys, _, err := core.PlateSystem(40, 40, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	k := sys.K
	dia := sparse.MustDIAFromCSR(k)
	x := make([]float64, k.Rows)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, k.Rows)
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.MulVecTo(y, x)
		}
	})
	b.Run("dia", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dia.MulVecTo(y, x)
		}
	})
	b.Run("csr-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.ParMulVecTo(y, x, 0)
		}
	})
}

// --- Ablation: multicolor vs natural ordering SSOR PCG -------------------

func BenchmarkAblationOrdering(b *testing.B) {
	sys, _, err := core.PlateSystem(20, 20, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		label string
		c     core.Config
	}{
		{"multicolor", core.Config{M: 2, Splitting: core.SSORMulticolor}},
		{"natural", core.Config{M: 2, Splitting: core.SSORNatural}},
	} {
		b.Run(cfg.label, func(b *testing.B) {
			c := cfg.c
			c.Tol = 1e-6
			c.MaxIter = 100000
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(sys, c)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Stats.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// --- Ablation: sum/max circuit vs software ring reduction ----------------

func BenchmarkAblationReduction(b *testing.B) {
	plate, err := fem.NewPlate(6, 6, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, software := range []bool{false, true} {
		label := "tree"
		if software {
			label = "ring"
		}
		b.Run(label, func(b *testing.B) {
			tm := femachine.DefaultTimeModel()
			tm.SoftwareReduce = software
			var sim float64
			for i := 0; i < b.N; i++ {
				mach, err := femachine.New(plate, femachine.Config{
					P: 5, Strategy: mesh.ColStrips, M: 0,
					Tol: 1e-6, MaxIter: 100000, Time: tm,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := mach.Run()
				if err != nil {
					b.Fatal(err)
				}
				sim = res.SimTime
			}
			b.ReportMetric(sim, "simulated-s")
		})
	}
}

// --- Ablation: preconditioner application cost vs m ----------------------

func BenchmarkPrecondApply(b *testing.B) {
	sys, _, err := core.PlateSystem(24, 24, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(sys.K, sys.GroupStart)
	if err != nil {
		b.Fatal(err)
	}
	z := make([]float64, sys.K.Rows)
	for _, m := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			p, err := precond.NewMStep(mc, poly.Ones(m))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				p.Apply(z, sys.F)
			}
		})
	}
}

// --- Baseline: CG on general SPD systems (Poisson substrate) -------------

func BenchmarkPoissonCG(b *testing.B) {
	k := model.Poisson2D(40, 40)
	f := make([]float64, k.Rows)
	f[k.Rows/2] = 1
	j, err := splitting.NewJacobi(k)
	if err != nil {
		b.Fatal(err)
	}
	p3, err := precond.NewMStep(j, poly.Ones(3))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cg.Solve(k, f, nil, cg.Options{RelResidualTol: 1e-8, MaxIter: 10000}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("neumann-m3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cg.Solve(k, f, p3, cg.Options{RelResidualTol: 1e-8, MaxIter: 10000}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Service: solves/sec at increasing concurrency ------------------------

// --- Batched multi-RHS block solves -----------------------------------

// BenchmarkBatchedSolve compares s sequential SolveInto runs against one
// interleaved block solve of the same s right-hand sides on a cached plate
// (system and preconditioner prebuilt, workspaces warm — the solver
// service's steady state). The block solve shares one SpMM and one panel
// preconditioner sweep per iteration across the batch; the acceptance
// target is ≥1.3× throughput at s=8 (compare the rhs/s metrics).
func BenchmarkBatchedSolve(b *testing.B) {
	sys, _, err := core.PlateSystem(100, 100, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{M: 3, Splitting: core.SSORMulticolor, Coeffs: core.LeastSquaresCoeffs}
	pc, _, _, err := core.BuildPreconditioner(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt := cg.Options{Tol: 1e-7, MaxIter: 5000}
	n := sys.K.Rows
	for _, s := range []int{2, 8} {
		f := vec.NewMulti(n, s)
		for j := 0; j < s; j++ {
			scale := float64(j+1) / 4
			for i, v := range sys.F {
				f.Col(j)[i] = scale * v
			}
		}
		b.Run(fmt.Sprintf("sequential/s=%d", s), func(b *testing.B) {
			ws := cg.NewWorkspace(n)
			u := make([]float64, n)
			var iters int
			for i := 0; i < b.N; i++ {
				iters = 0
				for j := 0; j < s; j++ {
					st, err := cg.SolveInto(u, sys.K, f.Col(j), pc, opt, ws)
					if err != nil {
						b.Fatal(err)
					}
					iters += st.Iterations
				}
			}
			b.ReportMetric(float64(iters), "col-iters")
			b.ReportMetric(float64(s)*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
		})
		b.Run(fmt.Sprintf("block/s=%d", s), func(b *testing.B) {
			bws := cg.NewBlockWorkspace(n, s)
			u := vec.NewMulti(n, s)
			bopt := opt
			bopt.Interleave = true
			var spmms int
			for i := 0; i < b.N; i++ {
				st, err := cg.SolveBlockInto(u, sys.K, f, pc, bopt, bws)
				if err != nil {
					b.Fatal(err)
				}
				spmms = st.SpMMs
			}
			b.ReportMetric(float64(spmms), "spmms")
			b.ReportMetric(float64(s)*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
		})
	}
}

// BenchmarkTiledBlockSolve compares an untiled s=32 block solve against the
// planner's tiled execution of the same batch on the cached 100×100 plate
// (system and preconditioner prebuilt, workspace warm), both on the
// interleaved panels. Untiled, the CG scratch panels plus iterate and RHS
// hold 32 columns of n≈19800 — a ~30 MB working set re-streamed every
// iteration; the default planner budget tiles it into 8-column solves
// (~7.6 MB) executed sequentially,
// trading extra matrix traversals (one SpMM per tile iteration instead of
// one per batch iteration) for multivector cache residency. Compare the
// rhs/s metrics.
func BenchmarkTiledBlockSolve(b *testing.B) {
	sys, _, err := core.PlateSystem(100, 100, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{M: 3, Splitting: core.SSORMulticolor, Coeffs: core.LeastSquaresCoeffs}
	pc, _, _, err := core.BuildPreconditioner(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt := cg.Options{Tol: 1e-7, MaxIter: 5000, Interleave: true}
	n := sys.K.Rows
	const s = 32
	f := vec.NewMulti(n, s)
	for j := 0; j < s; j++ {
		scale := float64(j+1) / 4
		for i, v := range sys.F {
			f.Col(j)[i] = scale * v
		}
	}
	pl := plan.Planner{}.Plan(plan.Inputs{K: sys.K, Policy: plan.BackendCSR, RHS: s, M: cfg.M})
	b.Run("untiled/s=32", func(b *testing.B) {
		bws := cg.NewBlockWorkspace(n, s)
		u := vec.NewMulti(n, s)
		for i := 0; i < b.N; i++ {
			if _, err := cg.SolveBlockInto(u, sys.K, f, pc, opt, bws); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s)*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
	})
	b.Run(fmt.Sprintf("planner-tiled/s=32/tiles=%d", len(pl.Tiles)), func(b *testing.B) {
		width := len(pl.Tiles[0])
		bws := cg.NewBlockWorkspace(n, width)
		u := vec.NewMulti(n, width)
		for i := 0; i < b.N; i++ {
			for _, tileCols := range pl.Tiles {
				cols := make([][]float64, len(tileCols))
				for t, c := range tileCols {
					cols[t] = f.Col(c)
				}
				ut := u.Prefix(len(tileCols))
				if _, err := cg.SolveBlockInto(ut, sys.K, vec.MultiFromCols(cols), pc, opt, bws); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(s)*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
	})
}

// BenchmarkSpMM measures the interleaved matrix–multivector kernels against
// s repeated SpMVs over the paper's plate matrix in CSR and DIA storage.
func BenchmarkSpMM(b *testing.B) {
	sys, _, err := core.PlateSystem(40, 40, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	k := sys.K
	dia := sparse.MustDIAFromCSR(k)
	n := k.Rows
	const s = 8
	x := vec.NewMulti(n, s)
	for i := range x.Data {
		x.Data[i] = float64(i%13) - 6
	}
	dst := vec.NewMulti(n, s)
	ix, idst := x.Interleaved(), vec.NewIMulti(n, s)
	b.Run("csr/spmv-x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < s; j++ {
				k.MulVecTo(dst.Col(j), x.Col(j))
			}
		}
	})
	b.Run("csr/spmm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.MulMatITo(idst, ix, nil)
		}
	})
	b.Run("dia/spmv-x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < s; j++ {
				dia.MulVecTo(dst.Col(j), x.Col(j))
			}
		}
	})
	b.Run("dia/spmm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dia.MulMatITo(idst, ix, nil)
		}
	})
}

// BenchmarkKernelSpMM is the kernel-set ablation behind the interleaved
// panel path: the same 8-column SpMM over the cached 100×100 plate matrix,
// run row-interleaved (MulMatITo) under both kernel sets. One gathered row
// index feeds all eight columns from one cache line; the accelerated
// variant is the one the planner schedules for wide tiles.
func BenchmarkKernelSpMM(b *testing.B) {
	sys, _, err := core.PlateSystem(100, 100, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	k := sys.K
	n := k.Rows
	const s = 8
	x := vec.NewMulti(n, s)
	for i := range x.Data {
		x.Data[i] = float64(i%13) - 6
	}
	ix := x.Interleaved()
	idst := vec.NewIMulti(n, s)
	dia := sparse.MustDIAFromCSR(k)
	for _, set := range []struct {
		name string
		impl *kernel.Impl
	}{{"portable", kernel.Portable()}, {"active", kernel.Active()}} {
		b.Run("csr/interleaved/s=8/"+set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.MulMatITo(idst, ix, set.impl)
			}
			b.ReportMetric(float64(k.NNZ())*s*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop-pairs/s")
		})
		b.Run("dia/interleaved/s=8/"+set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dia.MulMatITo(idst, ix, set.impl)
			}
		})
	}
}

// BenchmarkSpMVBackends measures the CSR-vs-DIA matvec gap on the two
// structure regimes the Auto backend policy distinguishes: the banded
// multicolor plate (a fixed ~47-diagonal family at every size, DIA fill
// ≈ 0.25) and the 5-point Poisson stencil (5 dense diagonals, fill ≈ 1 —
// the ideal vector-triad regime). Reported per backend for the scalar
// SpMV and the 8-column interleaved SpMM.
func BenchmarkSpMVBackends(b *testing.B) {
	sys, _, err := core.PlateSystem(40, 40, fem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		k    *sparse.CSR
	}{
		{"plate40", sys.K},
		{"poisson100", model.Poisson2D(100, 100)},
	} {
		dia, err := sparse.NewDIAFromCSR(tc.k)
		if err != nil {
			b.Fatal(err)
		}
		n := tc.k.Rows
		nd, _ := tc.k.DiagStats()
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		y := make([]float64, n)
		const s = 8
		xm := vec.NewMulti(n, s)
		for i := range xm.Data {
			xm.Data[i] = float64(i%13) - 6
		}
		ixm, idst := xm.Interleaved(), vec.NewIMulti(n, s)
		for _, run := range []struct {
			name string
			fn   func()
		}{
			{"csr/spmv", func() { tc.k.MulVecTo(y, x) }},
			{"dia/spmv", func() { dia.MulVecTo(y, x) }},
			{"csr/spmm8", func() { tc.k.MulMatITo(idst, ixm, nil) }},
			{"dia/spmm8", func() { dia.MulMatITo(idst, ixm, nil) }},
		} {
			b.Run(tc.name+"/"+run.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run.fn()
				}
				b.ReportMetric(float64(nd), "diags")
				b.ReportMetric(tc.k.DIAFillRatio(), "fill")
			})
		}
	}
}

func BenchmarkServiceThroughput(b *testing.B) {
	req := repro.SolveRequest{
		Plate:        &repro.PlateSpec{Rows: 20, Cols: 20},
		Solver:       repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-6},
		OmitSolution: true,
	}
	concurrencies := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		concurrencies = append(concurrencies, g)
	}
	for _, jobs := range concurrencies {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			svc := repro.NewService(repro.ServiceConfig{Workers: jobs, QueueDepth: 4 * jobs})
			defer svc.Close()
			// Populate the cache so the benchmark measures served solves,
			// not one-time assembly.
			if _, err := svc.Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < jobs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if _, err := svc.Solve(context.Background(), req); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			total := float64(jobs) * float64(b.N)
			b.ReportMetric(total/time.Since(start).Seconds(), "solves/s")
		})
	}
}

// BenchmarkLocalSolverThroughput is the in-process counterpart of
// BenchmarkServiceThroughput: the same warm-cache serving loop through
// repro.NewLocal — no HTTP, no daemon — proving embedders reach the same
// amortized throughput (assembly, structure probe and interval estimation
// all paid once, outside the timed loop).
func BenchmarkLocalSolverThroughput(b *testing.B) {
	problem, err := repro.NewPlateProblem(20, 20)
	if err != nil {
		b.Fatal(err)
	}
	req := repro.Request{
		Problem:      problem,
		Solver:       repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-6},
		OmitSolution: true,
	}
	concurrencies := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		concurrencies = append(concurrencies, g)
	}
	for _, jobs := range concurrencies {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			l := repro.NewLocal(repro.LocalConfig{Workers: jobs, QueueDepth: 4 * jobs})
			defer l.Close()
			// Populate the session cache so the benchmark measures served
			// solves, not one-time setup.
			if _, err := l.Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			if st, _ := l.Stats(); st.CacheMisses != 1 {
				b.Fatalf("expected one cold miss, got %d", st.CacheMisses)
			}
			start := time.Now()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < jobs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if _, err := l.Solve(context.Background(), req); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if st, _ := l.Stats(); st.CacheMisses != 1 {
				b.Fatalf("timed loop missed the cache %d times", st.CacheMisses-1)
			}
			total := float64(jobs) * float64(b.N)
			b.ReportMetric(total/time.Since(start).Seconds(), "solves/s")
		})
	}
}

// BenchmarkAdaptivePlan measures what the self-tuning planner buys on a
// warm-cached 100×100 plate batch whose requested m = 1 is deliberately
// suboptimal (the paper's point: the best m is machine-dependent, so a
// static request pins the wrong one). The static row executes the request
// as written (tuning off); the adaptive row warms the tuner past its
// observation gate before the timed loop, so the measured rhs/s is the
// steady state of the plan the feedback loop converged to — compare the
// rhs/s metrics, and the m it settled on is in the reported metric.
func BenchmarkAdaptivePlan(b *testing.B) {
	tractions := make([]float64, 8)
	for i := range tractions {
		tractions[i] = float64(i + 1)
	}
	mkReq := func(tuning string) repro.Request {
		return repro.Request{
			Plate:        &repro.PlateSpec{Rows: 100, Cols: 100, Tractions: tractions},
			Solver:       repro.SolverSpec{M: 1, Coeffs: "least-squares", Tol: 1e-5, Tuning: tuning},
			OmitSolution: true,
		}
	}
	rhs := float64(len(tractions))
	b.Run("static/m=1", func(b *testing.B) {
		l := repro.NewLocal(repro.LocalConfig{Workers: 1})
		defer l.Close()
		req := mkReq("off")
		if _, err := l.Solve(context.Background(), req); err != nil {
			b.Fatal(err) // cold solve pays assembly + interval estimation
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(rhs*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
		b.ReportMetric(1, "executed-m")
	})
	b.Run("adaptive", func(b *testing.B) {
		l := repro.NewLocal(repro.LocalConfig{Workers: 1})
		defer l.Close()
		req := mkReq("adapt")
		// Warm-up: past the observation gate plus room for the selector to
		// explore the neighborhood and settle. Untimed by design — the
		// benchmark measures the converged steady state, matching the
		// static row's warm-cache footing.
		var settled repro.JobResult
		for i := 0; i < 14; i++ {
			res, err := l.Solve(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			settled = res
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := l.Solve(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			settled = res
		}
		b.StopTimer()
		b.ReportMetric(rhs*float64(b.N)/b.Elapsed().Seconds(), "rhs/s")
		if settled.Plan != nil {
			b.ReportMetric(float64(settled.Plan.M), "executed-m")
		}
	})
}

// BenchmarkDecomposedSolve measures the decomposed backend on a warm-cached
// large plate, pinned to one subdomain versus one subdomain per core. The
// cache entry (and each subdomain count's memoized decomposition) is
// populated before the timed loop, so the ratio of the two sub-benchmarks
// is the parallel speedup of the solve itself — the number the CI bench
// artifact tracks across machines.
func BenchmarkDecomposedSolve(b *testing.B) {
	procs := []int{1}
	if g := runtime.NumCPU(); g > 1 {
		procs = append(procs, g)
	}
	l := repro.NewLocal(repro.LocalConfig{Workers: 1})
	defer l.Close()
	for _, p := range procs {
		req := repro.Request{
			Plate:        &repro.PlateSpec{Rows: 200, Cols: 200},
			Solver:       repro.SolverSpec{M: 2, Tol: 1e-4, Backend: "decomposed", Subdomains: p},
			OmitSolution: true,
		}
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			// One cold solve pays assembly, planning and decomposition.
			v, err := l.Solve(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if v.Backend != "decomposed" || v.Plan.Subdomains != p {
				b.Fatalf("plan %+v, want decomposed at P=%d", v.Plan, p)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Solve(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetThroughput measures the consistent-hash fleet router
// serving a warm working set through 1 node vs 3: requests for six
// distinct problems fan out by cache key, so each node holds only its
// share of the set and every repeat lands warm. The assertion after the
// timed loop proves the affinity claim — fleet-wide misses stay at the
// number of distinct problems no matter how many solves ran.
func BenchmarkFleetThroughput(b *testing.B) {
	var reqs []repro.Request
	for sz := 16; sz < 22; sz++ {
		reqs = append(reqs, repro.Request{
			Plate:        &repro.PlateSpec{Rows: sz, Cols: sz},
			Solver:       repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-6},
			OmitSolution: true,
		})
	}
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			_, _, cl := startFleetSolver(b, n)
			defer cl.Close()
			ctx := context.Background()
			// Cold pass: populate each owner's cache outside the timed loop.
			for _, req := range reqs {
				if _, err := cl.Solve(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			const clients = 4
			start := time.Now()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if _, err := cl.Solve(ctx, reqs[(g+i)%len(reqs)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			b.StopTimer()
			st, err := cl.Stats()
			if err != nil {
				b.Fatal(err)
			}
			if st.CacheMisses != int64(len(reqs)) {
				b.Fatalf("fleet saw %d cold misses for %d problems: affinity broken", st.CacheMisses, len(reqs))
			}
			total := float64(clients) * float64(b.N)
			b.ReportMetric(total/time.Since(start).Seconds(), "solves/s")
		})
	}
}
