package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro"
	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// ladderResult is the per-layer ladder on one problem. vals holds the
// per-layer metrics; the end-to-end medians the ladder measured along the
// way are kept for the sanity test.
type ladderResult struct {
	vals      map[string]float64
	httpP50   float64 // ms, client.Solve straight to the owning node
	fleetP50  float64 // ms, client.Solve through the router
	routed    int     // ladder requests through the router
	onOwner   int     // of those, served by the ring owner
	attempted int
}

// timeReps times fn until it has minReps samples and minDur has passed, or
// maxReps samples, and returns the samples in milliseconds.
func timeReps(minReps, maxReps int, minDur time.Duration, fn func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < maxReps && (len(out) < minReps || time.Since(start) < minDur) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return out, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// calibrate returns how many fn calls make a sample last at least 2 ms.
func calibrate(fn func()) int {
	reps := 1
	for {
		t0 := time.Now()
		for range reps {
			fn()
		}
		if time.Since(t0) >= 2*time.Millisecond || reps >= 1<<20 {
			return reps
		}
		reps *= 2
	}
}

// sampleUS is the mean time of one fn call over reps calls, in
// microseconds.
func sampleUS(fn func(), reps int) float64 {
	t0 := time.Now()
	for range reps {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps)
}

// perOpUS is the median time of one fn call in microseconds, over nine
// calibrated samples.
func perOpUS(fn func()) float64 {
	reps := calibrate(fn)
	samples := make([]float64, 9)
	for i := range samples {
		samples[i] = sampleUS(fn, reps)
	}
	return median(samples)
}

// stageMS sums a job trace's spans of one stage, in milliseconds.
func stageMS(ti repro.TraceInfo, name string) float64 {
	s := 0.0
	for _, sp := range ti.Spans {
		if sp.Name == name {
			s += sp.DurationSeconds
		}
	}
	return s * 1e3
}

// rhsCols returns the request's load cases as right-hand sides of sys: the
// canonical batch for a batch request, the same eight scalings of the base
// load otherwise.
func rhsCols(req repro.Request, sys core.System) [][]float64 {
	ts := req.Plate.Tractions
	if len(ts) == 0 {
		ts = canonicalTractions()
	}
	cols := make([][]float64, len(ts))
	for k, t := range ts {
		cols[k] = vec.Clone(sys.F)
		vec.Scale(t/req.Plate.Traction, cols[k])
	}
	return cols
}

// runLadder measures every layer on the workload's canonical problem, from
// kernels up to the fleet. e must already hold the problem warm on its
// node.
func runLadder(e *env, w *workload, tr *tracer) (*ladderResult, error) {
	ctx := context.Background()
	req := w.Canonical
	lr := &ladderResult{vals: make(map[string]float64)}
	v := lr.vals
	step := func(name string) func() {
		_, end := tr.start(name, 0)
		return end
	}

	// Cold path: a fresh in-process session per repetition, so every
	// Local.Solve is a cache miss; stage times come from the job trace.
	// Large problems cold-build in seconds, so they get one repetition.
	coldReps := 3
	if req.Plate.Rows*req.Plate.Cols > 1600 {
		coldReps = 1
	}
	end := step("cold.job")
	var local *repro.Local
	defer func() {
		if local != nil {
			_ = local.Close()
		}
	}()
	var coldRes repro.JobResult
	stages := map[string][]float64{}
	for range coldReps {
		if local != nil {
			_ = local.Close()
		}
		local = repro.NewLocal(repro.LocalConfig{})
		t0 := time.Now()
		res, err := local.Solve(ctx, req)
		stages["cold.job_ms"] = append(stages["cold.job_ms"], ms(time.Since(t0)))
		lr.attempted++
		if err == nil {
			err = resultOK(req, res)
		}
		if err != nil {
			return nil, fmt.Errorf("cold Local.Solve: %w", err)
		}
		ti, err := local.Trace(ctx, res.JobID)
		if err != nil {
			return nil, err
		}
		for _, s := range []string{"assemble", "splitting_build", "spectral_estimate", "precond_build"} {
			stages["cold."+s+"_ms"] = append(stages["cold."+s+"_ms"], stageMS(ti, s))
		}
		coldRes = res
	}
	end()
	for k, xs := range stages {
		v[k] = median(xs)
	}

	// Warm engine job on the same session.
	end = step("engine.warm_job")
	warm, err := timeReps(5, 200, time.Second, func() error {
		lr.attempted++
		res, err := local.Solve(ctx, req)
		if err == nil {
			err = resultOK(req, res)
		}
		return err
	})
	end()
	if err != nil {
		return nil, fmt.Errorf("warm Local.Solve: %w", err)
	}
	v["engine.warm_job_ms"] = median(warm)

	// In-process layers, on the interval the engine estimated.
	sys, err := plateSystem(req.Plate)
	if err != nil {
		return nil, err
	}
	cfg, err := req.Solver.CoreConfig(true)
	if err != nil {
		return nil, err
	}
	cfg.Interval = &eigen.Interval{Lo: coldRes.IntervalLo, Hi: coldRes.IntervalHi}
	pre, _, _, err := core.BuildPreconditioner(sys, cfg)
	if err != nil {
		return nil, err
	}
	pc, ok := pre.(*precond.MStep)
	if !ok || !pc.CanApplyInterleaved() {
		return nil, fmt.Errorf("preconditioner %s has no interleaved m-step sweep", pre.Name())
	}
	dia, err := sparse.NewDIAFromCSR(sys.K)
	if err != nil {
		return nil, err
	}
	var op sparse.Operator = sys.K
	if coldRes.Plan.Backend == "dia" {
		op = dia
	}
	n := dia.N
	impl := kernel.Active()
	cols := rhsCols(req, sys)
	s := len(cols)
	// The scalar CG solve runs on the request's own load: its base
	// traction, or a batch's first case.
	f := sys.F
	if len(req.Plate.Tractions) > 0 {
		f = cols[0]
	}
	// Kernels and sweeps run on dense, fixed pseudo-random operands, like a
	// residual mid-solve. A load vector is zero away from the loaded edge,
	// and sweeping it fills the output with subnormal numbers whose
	// arithmetic is far slower than a real iteration's.
	rng := rand.New(rand.NewPCG(1, 2))
	x, y := make([]float64, n), make([]float64, n)
	xi, yi := vec.NewIMulti(n, s), vec.NewIMulti(n, s)
	for i := range x {
		x[i] = 0.5 + rng.Float64()
	}
	for i := range xi.Data {
		xi.Data[i] = 0.5 + rng.Float64()
	}

	// Kernels, sweeps and solves are sampled in interleaved rounds so host
	// drift hits every rung alike; cg.recurrence_us is the median of the
	// per-round differences.
	workers := coldRes.Plan.Workers
	z, u, ws := make([]float64, n), make([]float64, n), cg.NewWorkspace(n)
	ub, fb, bws := vec.NewMulti(n, s), vec.MultiFromCols(cols), cg.NewBlockWorkspace(n, s)
	var iters, blockIters int
	scalarSolve := func() error {
		st, err := cg.SolveInto(u, op, f, pc, cg.Options{Tol: tol, Workers: workers}, ws)
		if err == nil && !st.Converged {
			err = errors.New("cg.SolveInto did not converge")
		}
		iters = st.Iterations
		return err
	}
	blockSolve := func() error {
		st, err := cg.SolveBlockInto(ub, op, fb, pc, cg.Options{Tol: tol, Workers: workers, Interleave: true}, bws)
		if err == nil && !st.Converged {
			err = errors.New("cg.SolveBlockInto did not converge")
		}
		blockIters = st.Iterations
		return err
	}
	micro := []struct {
		name string
		fn   func()
	}{
		{"kernel.spmv_us", func() { dia.MulVecTo(y, x) }},
		{"kernel.spmm8_us", func() { dia.MulMatITo(yi, xi, impl) }},
		{"precond.apply_us", func() { pc.Apply(z, x) }},
		{"precond.apply8_us", func() { pc.ApplyInterleaved(yi, xi, impl) }},
	}
	reps := make([]int, len(micro))
	for i, m := range micro {
		reps[i] = calibrate(m.fn)
	}
	samples := make(map[string][]float64)
	var scalarMS, blockMS, recurrence []float64
	end = step("kernel.precond.cg")
	start := time.Now()
	for r := 0; r < 7 || (r < 50 && time.Since(start) < 2*time.Second); r++ {
		for i, m := range micro {
			samples[m.name] = append(samples[m.name], sampleUS(m.fn, reps[i]))
		}
		sc, err := timeReps(1, 1, 0, scalarSolve)
		if err != nil {
			return nil, err
		}
		bl, err := timeReps(1, 1, 0, blockSolve)
		if err != nil {
			return nil, err
		}
		scalarMS, blockMS = append(scalarMS, sc[0]), append(blockMS, bl[0])
		recurrence = append(recurrence, sc[0]*1e3/float64(iters)-samples["kernel.spmv_us"][r]-samples["precond.apply_us"][r])
	}
	end()
	for k, xs := range samples {
		v[k] = median(xs)
	}
	// Bytes moved computed from array sizes: every stored diagonal, the
	// input and the output once. Cache misses are not counted.
	diagBytes := float64(8 * len(dia.Offsets) * n)
	v["kernel.spmv_gbps_computed"] = (diagBytes + 16*float64(n)) / v["kernel.spmv_us"] / 1e3
	v["kernel.spmm8_gbps_computed"] = (diagBytes + 16*float64(n*s)) / v["kernel.spmm8_us"] / 1e3
	v["cg.iterations"] = float64(iters)
	v["cg.block_iterations"] = float64(blockIters)
	v["cg.iter_us"] = median(scalarMS) * 1e3 / float64(iters)
	v["cg.block_iter_us"] = median(blockMS) * 1e3 / float64(blockIters)
	v["cg.recurrence_us"] = median(recurrence)
	solveMS := median(scalarMS)
	if len(req.Plate.Tractions) > 0 {
		solveMS = median(blockMS)
	}
	v["engine.overhead_ms"] = v["engine.warm_job_ms"] - solveMS

	// HTTP straight to the node that holds the problem warm.
	target := e.nodes[0]
	direct := newBenchClient(target.url)
	defer direct.close()
	var last repro.JobResult
	httpSolve := func(bc *benchClient) func() error {
		return func() error {
			lr.attempted++
			res, err := bc.cl.Solve(ctx, req)
			if err == nil {
				err = resultOK(req, res)
			}
			last = res
			return err
		}
	}
	if err := httpSolve(direct)(); err != nil {
		return nil, fmt.Errorf("http warm-up: %w", err)
	}
	end = step("service.http")
	httpMS, err := timeReps(5, 200, time.Second, httpSolve(direct))
	end()
	if err != nil {
		return nil, fmt.Errorf("http solve: %w", err)
	}
	lr.httpP50 = median(httpMS)
	v["service.http_overhead_ms"] = lr.httpP50 - v["engine.warm_job_ms"]
	v["service.response_kb"] = float64(direct.tr.bodyBytes) / 1024

	view, ok := target.svc.Job(last.JobID)
	if !ok {
		return nil, fmt.Errorf("job %s not retained", last.JobID)
	}
	end = step("service.encode")
	v["service.encode_ms"] = perOpUS(func() { _, _ = json.Marshal(view) }) / 1e3
	end()
	body, err := json.Marshal(view.Result)
	if err != nil {
		return nil, err
	}
	end = step("client.decode")
	v["client.decode_ms"] = perOpUS(func() {
		var r repro.JobResult
		_ = json.Unmarshal(body, &r)
	}) / 1e3
	end()

	// Fleet: a second, empty node and a router in front of both.
	n2, err := startNode("n2")
	if err != nil {
		return nil, err
	}
	e.nodes = append(e.nodes, n2)
	if err := e.addRouter(e.nodes); err != nil {
		return nil, err
	}
	wire, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	end = step("fleet.routing_key")
	v["fleet.routing_key_us"] = perOpUS(func() { _ = fleet.RoutingKey(wire) })
	end()
	owner := e.router.Owner(fleet.RoutingKey(wire))
	via := newBenchClient(e.routerURL())
	defer via.close()
	fleetSolve := func() error {
		err := httpSolve(via)()
		lr.routed++
		if n, ok := e.nodeByJob(last.JobID); ok && n.id == owner {
			lr.onOwner++
		} else if err == nil {
			err = fmt.Errorf("affinity: job %s not on owner %s", last.JobID, owner)
		}
		return err
	}
	if err := fleetSolve(); err != nil { // the owner may be the empty node
		return nil, fmt.Errorf("fleet warm-up: %w", err)
	}
	ownerNode, _ := e.nodeByName(owner)
	toOwner := newBenchClient(ownerNode.url)
	defer toOwner.close()
	// Alternate router and direct requests and take the median of the
	// pairwise differences, so drift hits both sides alike.
	var fleetMS, diffs []float64
	end = step("fleet.hop")
	for i := 0; i < 200 && (i < 5 || sum(fleetMS) < 1000); i++ {
		via, err := timeReps(1, 1, 0, fleetSolve)
		if err != nil {
			return nil, fmt.Errorf("fleet solve: %w", err)
		}
		direct, err := timeReps(1, 1, 0, httpSolve(toOwner))
		if err != nil {
			return nil, fmt.Errorf("direct solve: %w", err)
		}
		fleetMS = append(fleetMS, via[0])
		diffs = append(diffs, via[0]-direct[0])
	}
	end()
	lr.fleetP50 = median(fleetMS)
	v["fleet.hop_ms"] = median(diffs)
	return lr, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
