package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro"
)

// tol is the stopping tolerance every workload solves to: the engine's
// default for the paper's ‖u^{k+1}−u^k‖_∞ test.
const tol = 1e-6

// solverSpec is the solver every request names: the paper's 3-step
// multicolor SSOR with least-squares coefficients. Tuning is pinned off so
// the executed plan cannot change between requests or runs.
var solverSpec = repro.SolverSpec{M: 3, Coeffs: "least-squares", Tuning: "off"}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"plate-serve", "plate-batch"}

// workload is one traffic mix: which problems are built during set-up and
// the seeded order in which one closed-loop client repeats them.
type workload struct {
	Name string
	// Stream sends requests with SolveStream (per-case SSE events) instead
	// of Solve.
	Stream bool
	// Warm is the warm set: built cold during set-up, then repeated. Its
	// first problem is the fixed case, whose solution is compared with an
	// in-process reference.
	Warm []repro.Request
	// Canonical is the seed-independent problem the per-layer ladder
	// measures, so ladder counts such as cg.iterations repeat exactly.
	Canonical repro.Request

	seed uint64
	omit bool // timed requests omit the solution (set-up keeps it)
}

// item is one request of a stream: a member of the warm set.
type item struct {
	Req  repro.Request
	Warm int // index into Warm
}

func plate(rows, cols int, traction float64) repro.Request {
	return repro.Request{
		Plate:  &repro.PlateSpec{Rows: rows, Cols: cols, Traction: traction},
		Solver: solverSpec,
	}
}

// newWorkload builds the named workload's problems from seed. The same name
// and seed always give the same problems and stream.
func newWorkload(name string, seed uint64) (*workload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x70b5))
	w := &workload{Name: name, seed: seed}
	switch name {
	case "plate-serve":
		// Five warm plates of growing size in equal shares, the 20×20 one
		// the canonical problem. With five equal groups the p50 and p90
		// fall mid-group (the 24×24 and 28×28 plates), away from the
		// group boundaries and the tails. The seed orders the requests; the
		// work per request does not depend on it.
		w.Warm = []repro.Request{plate(20, 20, 1), plate(22, 22, 1), plate(24, 24, 1), plate(26, 26, 1), plate(28, 28, 1)}
		w.Canonical = w.Warm[0]
	case "plate-batch":
		// One 48×48 plate, eight load cases per request: the canonical
		// loads in seeded order. The base traction names the cache entry;
		// the cases only rescale the load. Timed requests omit the
		// solution, so the payload stays a few percent of the request and
		// this workload measures the kernels, the block sweep and block CG.
		req := plate(48, 48, 1)
		ts := canonicalTractions()
		for _, j := range rng.Perm(len(ts)) {
			req.Plate.Tractions = append(req.Plate.Tractions, ts[j])
		}
		w.Warm = []repro.Request{req}
		w.Stream = true
		w.omit = true
		w.Canonical = plate(48, 48, 1)
		w.Canonical.Plate.Tractions = canonicalTractions()
		w.Canonical.OmitSolution = true
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// canonicalTractions are the ladder's eight load cases.
func canonicalTractions() []float64 {
	ts := make([]float64, 8)
	for k := range ts {
		ts[k] = math.Round((0.5+1.5*float64(k)/7)*1000) / 1000
	}
	return ts
}

// stream is the client's request sequence: the warm set in balanced
// rounds, every warm problem once per round, in seeded order.
type stream struct {
	w     *workload
	rng   *rand.Rand
	round []int // warm indices left in the current round
}

func (w *workload) stream() *stream {
	return &stream{w: w, rng: rand.New(rand.NewPCG(w.seed, 1))}
}

// next returns the client's next request.
func (s *stream) next() item {
	w := s.w
	if len(s.round) == 0 {
		s.round = s.rng.Perm(len(w.Warm))
	}
	idx := s.round[0]
	s.round = s.round[1:]
	req := w.Warm[idx]
	req.OmitSolution = w.omit
	return item{Req: req, Warm: idx}
}
