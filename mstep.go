package repro

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/fem"
	"repro/internal/femachine"
	"repro/internal/mesh"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/vectorsim"
)

// Re-exported configuration enums and types. Aliases keep the public
// surface thin while the mechanics live in internal packages.
type (
	// Config selects the solver variant; see the field documentation on
	// core.Config.
	Config = core.Config
	// Result reports a solve.
	Result = core.Result
	// Stats is the CG iteration report.
	Stats = cg.Stats
	// Interval is a spectral interval [λ₁, λₙ] for P⁻¹K.
	Interval = eigen.Interval
	// Material is the plane-stress material of the plate problem.
	Material = fem.Material
	// CyberModel is the CYBER 203/205 timing model.
	CyberModel = vectorsim.Model
	// FEMachineConfig configures a Finite Element Machine run.
	FEMachineConfig = femachine.Config
	// FEMachineResult reports a Finite Element Machine run.
	FEMachineResult = femachine.Result
)

// Splitting kinds.
const (
	SSORMulticolor  = core.SSORMulticolor
	SSORNatural     = core.SSORNatural
	JacobiSplitting = core.JacobiSplitting
)

// Coefficient kinds (§2.2 parametrizations).
const (
	Unparametrized     = core.Unparametrized
	LeastSquaresCoeffs = core.LeastSquaresCoeffs
	ChebyshevCoeffs    = core.ChebyshevCoeffs
)

// Matrix storage backends for the CG matvec path (Config.Backend). The
// default, BackendAuto, probes the matrix structure and picks diagonal
// (CYBER-style) storage for banded-diagonal systems, CSR for scattered
// fill, and the domain-decomposed parallel path for plate problems too
// large for one cache-resident matrix; Result.Backend reports the storage
// a solve actually ran on. BackendDecomposed (plates only) partitions the
// mesh into subdomains, each run by a dedicated goroutine with halo
// exchange and tree-reduced inner products — the paper's Finite Element
// Machine executed for real; Config.Subdomains pins its processor count.
const (
	BackendAuto       = core.BackendAuto
	BackendCSR        = core.BackendCSR
	BackendDIA        = core.BackendDIA
	BackendDecomposed = core.BackendDecomposed
)

// Problem is an SPD system ready for the m-step PCG solver. Plate problems
// carry their mesh so solutions can be mapped back to nodes and the
// parallel-machine simulators can partition them.
//
// A Problem memoizes its own setup artifacts: the planner's structure
// probe and the spectral-interval estimates the parametrized coefficient
// criteria need (one per splitting/ω/seed combination). Repeated solves of
// the same *Problem — through Solve, SolveBatch, or any local Solver
// session — therefore never redo that work, even across sessions or after
// an engine cache eviction. A Problem is safe for concurrent use.
type Problem struct {
	sys   core.System
	plate *fem.Plate
	// plateSpec is the recipe that reconstructs a plate problem over the
	// wire (zero-valued for builder problems; see Request.Wire).
	plateSpec PlateSpec
	// id names the problem in local engine caches. Identity-based: two
	// Problems never share an entry, and a Problem never collides with a
	// declarative-spec key.
	id string

	probeOnce sync.Once
	probeVal  plan.Probe

	ivMu   sync.Mutex
	ivMemo map[intervalMemoKey]eigen.Interval
}

// intervalMemoKey is the part of a Config the spectral interval of P⁻¹K
// depends on: the splitting (with its relaxation parameter) and the
// estimation seed. Coefficients, tolerances and execution knobs do not
// perturb the estimate.
type intervalMemoKey struct {
	splitting core.SplittingKind
	omega     float64
	seed      int64
}

// problemSeq numbers Problems for cache identity.
var problemSeq atomic.Uint64

func newProblem(sys core.System, plate *fem.Plate, spec PlateSpec) *Problem {
	return &Problem{
		sys:       sys,
		plate:     plate,
		plateSpec: spec,
		id:        fmt.Sprintf("problem-%d", problemSeq.Add(1)),
	}
}

// probeRef returns the problem's memoized structure probe, scanning the
// matrix pattern on first use.
func (p *Problem) probeRef() *plan.Probe {
	p.probeOnce.Do(func() { p.probeVal = plan.NewProbe(p.sys.K) })
	return &p.probeVal
}

// intervalFor returns the problem's memoized spectral interval for the
// splitting cfg selects, estimating it (power method on P⁻¹K, the same
// estimator the engine runs) on first use.
func (p *Problem) intervalFor(cfg core.Config) (eigen.Interval, error) {
	omega := cfg.Omega
	if omega == 0 {
		omega = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	key := intervalMemoKey{splitting: cfg.Splitting, omega: omega, seed: seed}
	p.ivMu.Lock()
	defer p.ivMu.Unlock()
	if iv, ok := p.ivMemo[key]; ok {
		return iv, nil
	}
	sp, err := core.BuildSplitting(p.sys, cfg)
	if err != nil {
		return eigen.Interval{}, err
	}
	iv, err := eigen.EstimateInterval(sp, 0.02, seed)
	if err != nil {
		return eigen.Interval{}, err
	}
	if p.ivMemo == nil {
		p.ivMemo = make(map[intervalMemoKey]eigen.Interval)
	}
	p.ivMemo[key] = iv
	return iv, nil
}

// NewPlateProblem assembles the paper's plane-stress test problem on a
// rows×cols-node unit square plate (left edge clamped, right edge loaded)
// in the 6-color multicolor ordering.
func NewPlateProblem(rows, cols int) (*Problem, error) {
	sys, plate, err := core.PlateSystem(rows, cols, fem.Options{})
	if err != nil {
		return nil, err
	}
	return newProblem(sys, plate, PlateSpec{Rows: rows, Cols: cols}), nil
}

// NewPlateProblemWithMaterial assembles the plate with a custom material
// and traction.
func NewPlateProblemWithMaterial(rows, cols int, mat Material, traction float64) (*Problem, error) {
	sys, plate, err := core.PlateSystem(rows, cols, fem.Options{Mat: mat, Traction: traction})
	if err != nil {
		return nil, err
	}
	spec := PlateSpec{Rows: rows, Cols: cols, E: mat.E, Nu: mat.Nu, T: mat.T, Traction: traction}
	return newProblem(sys, plate, spec), nil
}

// MatrixBuilder assembles a general sparse SPD system for the solver
// (duplicate entries are summed, as finite element assembly needs).
type MatrixBuilder struct {
	n   int
	coo *sparse.COO
}

// NewMatrixBuilder returns a builder for an n×n system.
func NewMatrixBuilder(n int) *MatrixBuilder {
	return &MatrixBuilder{n: n, coo: sparse.NewCOO(n, n)}
}

// Add accumulates v into entry (i, j).
func (b *MatrixBuilder) Add(i, j int, v float64) { b.coo.Add(i, j, v) }

// Problem finalizes the matrix with right-hand side f. General problems
// use the Jacobi or natural-SSOR splittings (no multicolor structure).
func (b *MatrixBuilder) Problem(f []float64) (*Problem, error) {
	k := b.coo.ToCSR()
	if len(f) != b.n {
		return nil, fmt.Errorf("repro: rhs length %d != n %d", len(f), b.n)
	}
	if !k.IsSymmetric(1e-12) {
		return nil, fmt.Errorf("repro: matrix is not symmetric")
	}
	return newProblem(core.System{K: k, F: f}, nil, PlateSpec{}), nil
}

// N returns the number of unknowns.
func (p *Problem) N() int { return p.sys.K.Rows }

// throwawayLocal returns the minimal single-worker solver session backing
// the package-level convenience wrappers: one worker, serial kernels
// (matching the historical default of Config.Workers = 0), one cache slot
// for the wrapped problem.
func throwawayLocal() *Local {
	return NewLocal(LocalConfig{
		Workers: 1, WorkerBudget: 1, QueueDepth: 1,
		CacheSize: 1, HistoryLimit: 1, LatencyWindow: 16,
	})
}

// resultShell maps the job-level fields shared by every Result a job
// yields — preconditioner, backend, interval, coefficients.
func resultShell(jr *JobResult) Result {
	res := Result{
		Precond:  jr.Precond,
		Backend:  jr.Backend,
		Interval: eigen.Interval{Lo: jr.IntervalLo, Hi: jr.IntervalHi},
	}
	if jr.Alphas != nil {
		res.Alphas = *jr.Alphas
	}
	return res
}

// resultFromJob reconstructs the library Result from an engine job result
// (the full CG stats ride along on the in-process path).
func resultFromJob(jr *JobResult) Result {
	res := resultShell(jr)
	res.U = jr.U
	if jr.CGStats != nil {
		res.Stats = *jr.CGStats
	}
	return res
}

// Solve runs the configured m-step PCG method. It is a thin wrapper over a
// throwaway local solver session, so it shares the Solver pipeline —
// planner, backends, tiling — and the problem's memoized setup (structure
// probe, spectral interval): repeated Solve calls on one *Problem skip
// interval estimation entirely. Long-lived callers solving many requests
// should hold a NewLocal session instead, which additionally pools
// preconditioners and caches across problems.
func Solve(p *Problem, cfg Config) (Result, error) {
	l := throwawayLocal()
	defer l.Close()
	req := Request{Problem: p, config: &cfg}
	job, err := l.submit(req)
	if err != nil {
		return Result{}, err
	}
	<-job.Done()
	jr := job.Result()
	if jr == nil {
		return Result{}, job.Err()
	}
	return resultFromJob(jr), job.Err()
}

// F returns a copy of the problem's assembled right-hand side (in the
// solver's ordering) — the base load vector batched solves rescale or
// replace.
func (p *Problem) F() []float64 {
	out := make([]float64, len(p.sys.F))
	copy(out, p.sys.F)
	return out
}

// SolveBatch runs the configured m-step PCG method against every
// right-hand side in fs at once: the splitting, polynomial coefficients
// and spectral-interval estimate are built a single time. Wide tiles whose
// preconditioner can serve interleaved panels run block iterations that
// perform one matrix–multivector product and one panel preconditioner
// sweep shared by all still-unconverged columns — solving s load cases
// against one stiffness matrix for far less than s sequential solves;
// other tiles solve their columns one by one. Result j corresponds to
// fs[j] and matches Solve on the same right-hand side to machine
// precision.
//
// The returned error is nil only when every column converged; partial
// results are still returned alongside a joined per-column error.
//
// Like Solve, SolveBatch is a thin wrapper over a throwaway local solver
// session sharing the problem's memoized setup; hold a NewLocal session
// for sustained batch traffic.
func SolveBatch(p *Problem, fs [][]float64, cfg Config) ([]Result, error) {
	if len(fs) == 0 {
		return nil, fmt.Errorf("repro: batch solve needs at least one right-hand side")
	}
	l := throwawayLocal()
	defer l.Close()
	req := Request{Problem: p, Fs: fs, config: &cfg}
	job, err := l.submit(req)
	if err != nil {
		return nil, err
	}
	<-job.Done()
	jr := job.Result()
	if jr == nil {
		return nil, job.Err()
	}
	out := make([]Result, len(fs))
	if len(fs) == 1 {
		out[0] = resultFromJob(jr)
		return out, job.Err()
	}
	if len(jr.Cases) < len(fs) {
		// The job failed before its per-case table was populated.
		return nil, job.Err()
	}
	for j := range fs {
		c := jr.Cases[j]
		out[j] = resultShell(jr)
		out[j].U = c.U
		if c.CGStats != nil {
			out[j].Stats = *c.CGStats
		}
	}
	return out, job.Err()
}

// NodeDisplacements maps a plate solution (Result.U, colored ordering) back
// to per-node displacements: the returned slices are indexed by free-node
// position with u and v components. Returns an error for non-plate
// problems.
func (p *Problem) NodeDisplacements(res Result) (nodes []int, u, v []float64, err error) {
	if p.plate == nil {
		return nil, nil, nil, fmt.Errorf("repro: not a plate problem")
	}
	natural := p.plate.UncolorSolution(res.U)
	nodes = p.plate.Free
	u = make([]float64, len(nodes))
	v = make([]float64, len(nodes))
	for k := range nodes {
		u[k] = natural[2*k]
		v[k] = natural[2*k+1]
	}
	return nodes, u, v, nil
}

// EstimateCondition returns (λmin, λmax, κ) of the preconditioned operator
// measured from a converged run's CG coefficients.
func EstimateCondition(res Result) (lo, hi, kappa float64, err error) {
	return eigen.CondFromCGStats(res.Stats)
}

// Cyber203 and Cyber205 return the vector machine models of §3.1.
func Cyber203() CyberModel { return vectorsim.Cyber203() }

// Cyber205 returns the CYBER 205 model.
func Cyber205() CyberModel { return vectorsim.Cyber205() }

// SimulateOnCyber runs the m-step multicolor SSOR PCG for an a×a plate on
// the simulated vector machine, returning iterations and simulated
// seconds (a Table 2 cell).
func SimulateOnCyber(model CyberModel, a, m int, parametrized bool, tol float64) (iters int, seconds float64, err error) {
	run, err := vectorsim.SimulatePlate(model, a, a, m, parametrized, tol)
	if err != nil {
		return 0, 0, err
	}
	return run.Iterations, run.Seconds, nil
}

// RunOnFEMachine executes the problem on the simulated Finite Element
// Machine (plate problems only — the machine needs the mesh partition).
func RunOnFEMachine(p *Problem, cfg FEMachineConfig) (FEMachineResult, error) {
	if p.plate == nil {
		return FEMachineResult{}, fmt.Errorf("repro: the Finite Element Machine needs a plate problem")
	}
	mach, err := femachine.New(p.plate, cfg)
	if err != nil {
		return FEMachineResult{}, err
	}
	return mach.Run()
}

// DefaultFEMachineTime returns the default Finite Element Machine timing
// model.
func DefaultFEMachineTime() femachine.TimeModel { return femachine.DefaultTimeModel() }

// Partition strategies for the Finite Element Machine and the decomposed
// backend.
const (
	RowStrips = mesh.RowStrips
	ColStrips = mesh.ColStrips
	Blocks    = mesh.Blocks
)

// Solver service types: the resident daemon form of the library. A Service
// runs concurrent solves on a bounded worker pool, caches assembled
// problems and estimated spectral intervals across requests, and serves an
// HTTP/JSON API (Service.Handler; see cmd/solverd).
type (
	// Service is a running solver service.
	Service = service.Service
	// ServiceConfig sizes the worker pool, queue, and cache.
	ServiceConfig = service.Config
	// SolveRequest is one unit of service work (a plate or a general
	// system, plus solver settings).
	SolveRequest = service.SolveRequest
	// PlateSpec requests the paper's plane-stress plate problem.
	PlateSpec = service.PlateSpec
	// SystemSpec requests a general sparse SPD solve in coordinate form.
	SystemSpec = service.SystemSpec
	// SolverSpec selects the m-step PCG variant by name.
	SolverSpec = service.SolverSpec
	// JobView is an immutable snapshot of a submitted job.
	JobView = service.JobView
	// JobState is the lifecycle of a submitted job.
	JobState = service.JobState
	// JobResult reports a finished solve, including the resolved
	// execution plan and per-case outcomes for batches.
	JobResult = service.JobResult
	// CaseResult reports one right-hand side of a batched solve.
	CaseResult = service.CaseResult
	// PlanInfo is the execution plan the planner resolved for a request:
	// matvec backend, batch column tiles, kernel fan-out, step count.
	PlanInfo = service.PlanInfo
	// ServiceStats is the service health report (queue depth, cache hit
	// rate, latency percentiles, tiles executed, stream subscribers).
	ServiceStats = service.Stats
	// Health is the GET /v1/healthz readiness payload: queue headroom,
	// running count, draining flag and uptime for load balancers and the
	// fleet router's health checker.
	Health = service.Health
	// TraceInfo is a job's observability record: the stage timeline (queue
	// wait, assembly, spectral estimation, per-tile solves, …) plus the
	// sampled per-iteration convergence curve. Solver.Trace retrieves it by
	// job id, during and after the solve.
	TraceInfo = service.TraceInfo
)

// Job lifecycle states (JobView.State).
const (
	JobQueued  = service.JobQueued
	JobRunning = service.JobRunning
	JobDone    = service.JobDone
	JobFailed  = service.JobFailed
)

// NewService starts a solver service. Call Close on the returned service to
// drain queued jobs and stop the workers.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }
