package main

import (
	"errors"
	"fmt"
	"slices"

	"repro"
	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/vec"
)

// relResCeiling bounds final_relres for a solve that met the ‖Δu‖_∞ < tol
// test: on these plates a converged solve ends near 1e-5 or below, so a
// residual a hundred times the tolerance means the stopping test lied.
const relResCeiling = 100 * tol

// expect is what set-up recorded for one warm problem; every timed request
// of that problem must repeat it exactly.
type expect struct {
	Sig       string
	Iters     int
	CaseIters []int
}

// checker is the correctness gate. It is read-only once set-up is done, so
// every client goroutine may use it.
type checker struct {
	w    *workload
	warm []expect
	ref  []float64 // reference solution of the fixed case (case 0 of a batch)
}

// planSig renders the executed plan's shape: backend, m, kernel set,
// interleaving, kernel workers and column tiles.
func planSig(p *repro.PlanInfo) string {
	if p == nil {
		return "<no plan>"
	}
	return fmt.Sprintf("backend=%s m=%d kernel=%s interleave=%t workers=%d tiles=%v", p.Backend, p.M, p.Kernel, p.Interleave, p.Workers, p.Tiles)
}

// newChecker computes the fixed case's reference outside any timed phase.
func newChecker(w *workload) (*checker, error) {
	ref, err := referenceSolution(w.Warm[0])
	if err != nil {
		return nil, fmt.Errorf("reference for the fixed case: %w", err)
	}
	return &checker{w: w, warm: make([]expect, len(w.Warm)), ref: ref}, nil
}

func plateSystem(p *repro.PlateSpec) (core.System, error) {
	sys, _, err := core.PlateSystem(p.Rows, p.Cols, fem.Options{Mat: fem.Material{E: p.E, Nu: p.Nu, T: p.T}, Traction: p.Traction})
	return sys, err
}

// referenceSolution solves the request's first load case in process with
// plain cg.Solve to 1e-12 under a one-step unparametrized SSOR
// preconditioner: no spectral estimate and no m-step polynomial, so it
// shares nothing with the path under test but the matrix.
func referenceSolution(req repro.Request) ([]float64, error) {
	sys, err := plateSystem(req.Plate)
	if err != nil {
		return nil, err
	}
	f := sys.F
	if ts := req.Plate.Tractions; len(ts) > 0 {
		f = vec.Clone(f)
		vec.Scale(ts[0]/req.Plate.Traction, f)
	}
	pc, _, _, err := core.BuildPreconditioner(sys, core.Config{M: 1})
	if err != nil {
		return nil, err
	}
	u, st, err := cg.Solve(sys.K, f, pc, cg.Options{Tol: 1e-12})
	if err != nil {
		return nil, err
	}
	if !st.Converged {
		return nil, errors.New("reference solve did not converge")
	}
	return u, nil
}

// converged checks one solve's stopping statistics, and its solution when
// the request asked for one.
func converged(ok bool, udiff, relres float64, u []float64, solution bool) error {
	switch {
	case !ok:
		return errors.New("not converged")
	case !(udiff < tol):
		return fmt.Errorf("final_udiff %.3g not below tol %.0e", udiff, tol)
	case !(relres <= relResCeiling):
		return fmt.Errorf("final_relres %.3g above %.0e", relres, relResCeiling)
	case !solution:
		return nil
	case len(u) == 0:
		return errors.New("no solution in the response")
	case !vec.AllFinite(u):
		return errors.New("solution has non-finite entries")
	}
	return nil
}

// resultOK checks a finished job's convergence: the job's own statistics
// for a single right-hand side, every case's for a batch.
func resultOK(req repro.Request, res repro.JobResult) error {
	if res.Plan == nil {
		return errors.New("response carries no plan")
	}
	if len(res.Cases) == 0 {
		return converged(res.Converged, res.FinalUDiff, res.FinalRelRes, res.U, !req.OmitSolution)
	}
	for k, cr := range res.Cases {
		if err := converged(cr.Converged, cr.FinalUDiff, cr.FinalRelRes, cr.U, !req.OmitSolution); err != nil {
			return fmt.Errorf("case %d: %w", k, err)
		}
	}
	return nil
}

// base checks what every response must satisfy, including a set-up one.
func (c *checker) base(req repro.Request, r response) error {
	if err := resultOK(req, r.Result); err != nil {
		return err
	}
	if !c.w.Stream {
		return nil
	}
	want := len(c.w.Warm[0].Plate.Tractions)
	if len(r.Result.Cases) != want || len(r.Cases) != want {
		return fmt.Errorf("got %d cases (%d streamed), want %d", len(r.Result.Cases), len(r.Cases), want)
	}
	for k, cr := range r.Result.Cases {
		if r.Cases[k].Iterations != cr.Iterations {
			return fmt.Errorf("case %d streamed %d iterations, finished job says %d", k, r.Cases[k].Iterations, cr.Iterations)
		}
	}
	return nil
}

// fixedCase returns the solution to compare with the reference, if it is
// the fixed case and carries its solution. A batch workload's timed
// requests omit it; its set-up request is then the one compared.
func (c *checker) fixedCase(it item, r response) ([]float64, bool) {
	if it.Req.OmitSolution || it.Warm != 0 {
		return nil, false
	}
	if c.w.Stream {
		return r.Result.Cases[0].U, true
	}
	return r.Result.U, true
}

func (c *checker) checkFixed(it item, r response) error {
	u, ok := c.fixedCase(it, r)
	if !ok {
		return nil
	}
	if len(u) != len(c.ref) {
		return fmt.Errorf("fixed case: solution length %d, reference %d", len(u), len(c.ref))
	}
	if d := vec.MaxAbsDiff(u, c.ref); !(d <= 10*tol) {
		return fmt.Errorf("fixed case: ‖u − u_ref‖_∞ = %.3g exceeds 10·tol", d)
	}
	return nil
}

// record checks a set-up response and stores what later requests of the
// same warm problem must repeat.
func (c *checker) record(idx int, r response) error {
	if err := c.base(c.w.Warm[idx], r); err != nil {
		return err
	}
	if err := c.checkFixed(item{Req: c.w.Warm[idx], Warm: idx}, r); err != nil {
		return err
	}
	e := expect{Sig: planSig(r.Result.Plan), Iters: r.Result.Iterations}
	for _, cr := range r.Result.Cases {
		e.CaseIters = append(e.CaseIters, cr.Iterations)
	}
	// Every set-up of a run must record the same thing.
	if prev := c.warm[idx]; prev.Sig != "" && (prev.Sig != e.Sig || prev.Iters != e.Iters || !slices.Equal(prev.CaseIters, e.CaseIters)) {
		return fmt.Errorf("set-up drift: %s / %d iterations, an earlier set-up ran %s / %d", e.Sig, e.Iters, prev.Sig, prev.Iters)
	}
	c.warm[idx] = e
	return nil
}

// check is the gate for a timed response.
func (c *checker) check(it item, r response) error {
	if err := c.base(it.Req, r); err != nil {
		return err
	}
	if err := c.checkFixed(it, r); err != nil {
		return err
	}
	e := c.warm[it.Warm]
	if sig := planSig(r.Result.Plan); sig != e.Sig {
		return fmt.Errorf("plan drift: %s, set-up ran %s", sig, e.Sig)
	}
	if r.Result.Iterations != e.Iters {
		return fmt.Errorf("iteration drift: %d, set-up took %d", r.Result.Iterations, e.Iters)
	}
	for k, cr := range r.Result.Cases {
		if cr.Iterations != e.CaseIters[k] {
			return fmt.Errorf("case %d iteration drift: %d, set-up took %d", k, cr.Iterations, e.CaseIters[k])
		}
	}
	return nil
}
