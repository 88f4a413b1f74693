// Package repro is a production-quality Go reproduction of
//
//	Loyce Adams, "An M-Step Preconditioned Conjugate Gradient Method for
//	Parallel Computation", NASA CR-172150 / ICASE 83-23 (ICPP 1983).
//
// The library implements the paper's m-step preconditioned conjugate
// gradient method — preconditioners built from m parametrized steps of a
// stationary iterative method (Jacobi, natural SSOR, or the 6-color
// multicolor SSOR of the paper's plane-stress test problem) — together
// with everything needed to regenerate the paper's evaluation: the
// plane-stress finite element assembly, least-squares and Chebyshev
// polynomial coefficients, spectral interval estimation, a CYBER 203/205
// vector machine cost simulator (Table 2) and a concurrent Finite Element
// Machine simulator (Table 3). The machine also runs for real: the
// "decomposed" backend partitions a plate into subdomains, each owned by a
// dedicated goroutine processor exchanging true border values and
// combining inner products up a reduction tree — auto-selected for plates
// too large for one cache-resident matrix, or pinned via
// Config.Subdomains / the solver spec's "subdomains" field.
//
// Quick start:
//
//	p, _ := repro.NewPlateProblem(20, 20)
//	res, _ := repro.Solve(p, repro.Config{
//	    M:      4,
//	    Coeffs: repro.LeastSquaresCoeffs,
//	    Tol:    1e-6,
//	})
//	fmt.Println(res.Stats.Iterations, "iterations")
//
// The solver's fused inner loops (SpMM, panel dot/axpy, the multicolor
// sweep) dispatch through internal/kernel: CPU feature detection selects
// an accelerated implementation set at startup, wide batch tiles run on a
// row-interleaved panel layout (other tiles solve their columns one by one
// through the scalar recurrence), and REPRO_KERNEL=portable (or
// Config.Kernel) forces the portable reference set — bit-identical
// results either way, so the knob only changes speed.
//
// Beyond one-shot solves, the Solver interface is a session that
// amortizes setup across requests and streams per-case results: NewLocal
// embeds the solver engine in process, the client package drives a
// remote solverd daemon through the identical contract, and
// cmd/solverfleet serves the same API over a cluster of solverd nodes —
// internal/fleet consistent-hashes each request by its problem cache key
// so repeats always land on the node whose cache owns the problem, and
// the client SDK's retry/backoff and Last-Event-ID stream resume make a
// node dying mid-batch invisible to callers.
//
// The execution planner is self-tuning: every warm solve feeds its
// realized throughput back into a per-problem tuner, and once enough
// observations accumulate the engine executes the best measured (or
// cost-model-predicted) candidate from a bounded neighborhood around the
// static plan — m, tile width, workers, interleave — with the decision's
// full candidate table attached to Solver.Plan, POST /v1/plan and
// JobResult.Plan. The solver spec's "tuning" field selects the policy:
// "adapt" (default), "observe" (collect evidence, execute statically),
// or "off" (the static plan bit-for-bit, for reproducibility).
//
// The session is observable end to end: every job records a stage
// timeline (queue wait, cache checkout, assembly, preconditioner build,
// planning, per-tile solves) plus a sampled per-iteration convergence
// curve, served by Solver.Trace and GET /v1/jobs/{id}/trace; the engine
// exposes its counters and latency/iteration histograms in Prometheus
// text format on GET /metrics; and solverd adds structured logs and an
// optional pprof/expvar debug listener. The telemetry tap is
// allocation-free on the solve path.
//
// See README.md and the examples/ directory (examples/quickstart,
// examples/embed, examples/batch, examples/stream, examples/service,
// examples/observe, examples/decomposed, examples/tune, examples/fleet)
// for the full tour.
package repro
