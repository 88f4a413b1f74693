package plan

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/kernel"
)

// TuningMode is the planner's feedback policy: what a session does with the
// realized throughput of executed plans.
type TuningMode int

const (
	// TuningAdapt (the default) records realized throughput per executed
	// plan and re-plans warm problems from the measurements: the selector
	// prefers measured winners and explores neighboring plans, the paper's
	// machine-dependent-m result closed into a live loop.
	TuningAdapt TuningMode = iota
	// TuningObserve records measurements and reports them as plan evidence
	// but always executes the static plan.
	TuningObserve
	// TuningOff disables the loop entirely: plans are the planner's static
	// structure decision, bit-for-bit, with no observation store.
	TuningOff
)

func (m TuningMode) String() string {
	switch m {
	case TuningAdapt:
		return "adapt"
	case TuningObserve:
		return "observe"
	case TuningOff:
		return "off"
	}
	return "?"
}

// ParseTuning resolves a tuning policy name; the empty string means Adapt.
func ParseTuning(name string) (TuningMode, error) {
	switch name {
	case "", "adapt":
		return TuningAdapt, nil
	case "observe":
		return TuningObserve, nil
	case "off":
		return TuningOff, nil
	}
	return 0, fmt.Errorf("plan: unknown tuning policy %q (want off, observe or adapt)", name)
}

// Signature is the identity of a plan for the observation store: two solves
// whose plans share a signature are assumed to realize the same throughput
// on this machine. Tile identity is the widest tile's width — tiling is
// balanced, so the width determines the partition for a given batch size.
type Signature struct {
	Backend    Backend
	TileWidth  int
	Workers    int
	M          int
	Interleave bool
	Kernel     string
}

// Signature reduces the plan to its observation-store identity.
func (p Plan) Signature() Signature {
	w := 0
	if len(p.Tiles) > 0 {
		w = len(p.Tiles[0])
	}
	return Signature{
		Backend:    p.Backend,
		TileWidth:  w,
		Workers:    p.Workers,
		M:          p.M,
		Interleave: p.Interleave,
		Kernel:     p.Kernel,
	}
}

// less orders signatures deterministically (tie-breaks in selection must
// not depend on map iteration order).
func (s Signature) less(o Signature) bool {
	if s.Backend != o.Backend {
		return s.Backend < o.Backend
	}
	if s.TileWidth != o.TileWidth {
		return s.TileWidth < o.TileWidth
	}
	if s.Workers != o.Workers {
		return s.Workers < o.Workers
	}
	if s.M != o.M {
		return s.M < o.M
	}
	if s.Interleave != o.Interleave {
		return !s.Interleave
	}
	return s.Kernel < o.Kernel
}

// Observation is one executed plan's realized performance: right-hand
// sides retired per second of execute time, and the execute seconds per
// block iteration (the per-iteration cost the m in m-step trades against).
type Observation struct {
	RHSPerSec   float64
	IterSeconds float64
}

// PriorFunc predicts the relative throughput of an unmeasured candidate:
// it returns cand's expected speed as a multiple of ref's measured speed
// (1 = no opinion). The engine derives it from the vectorsim cost model,
// eq. (4.1): T_m = Setup + N·(A + m·B).
type PriorFunc func(ref, cand Signature) float64

// Candidate is one plan the selector considered, with its evidence: the
// measured throughput estimate when the signature has executed before, the
// cost-model prediction otherwise, and the exploration-adjusted score the
// selection ranked it by.
type Candidate struct {
	Plan         Plan
	Signature    Signature
	Measured     float64 // mean measured rhs/s (0 when unmeasured)
	Observations int
	IterSeconds  float64 // mean execute seconds per block iteration
	Prior        float64 // cost-model predicted rhs/s (0 when measured or no prior)
	Score        float64
	Chosen       bool
}

// Decision explains one plan choice: how it was made and every candidate
// considered with its evidence. A zero Decision (no candidates) means the
// static plan ran unexamined — a cold problem, or tuning off.
type Decision struct {
	// Source is "static" (the planner's structure heuristic, unexamined or
	// deliberately kept), "measured" (a candidate chosen on observed
	// throughput) or "predicted" (an unmeasured candidate promoted by the
	// cost-model prior / exploration bonus).
	Source     string
	Candidates []Candidate
}

// Tuner defaults.
const (
	// DefaultMinObservations is how many executed solves a problem needs
	// before the selector starts considering alternatives: below it plans
	// stay static, so short-lived sessions (and tests) see exactly the
	// static planner.
	DefaultMinObservations = 5
	// DefaultExplore scales the UCB exploration bonus, in units of the
	// best measured throughput.
	DefaultExplore = 0.25
	// DefaultMaxProblems bounds the distinct problems (cache keys) the
	// store tracks.
	DefaultMaxProblems = 256
	// DefaultMaxSignatures bounds the plan signatures tracked per problem.
	DefaultMaxSignatures = 32
	// maxCandidates caps the plans one decision examines.
	maxCandidates = 12
)

// Tuner is the measurement side of the self-tuning planner: a bounded
// per-problem observation store keyed by plan signature, folding each
// executed solve's realized rhs/s into an online estimate, plus the
// selector that re-plans warm problems from the estimates. The zero value
// uses the defaults above and is ready to use; all methods are safe for
// concurrent use.
//
// Selection is UCB-style over the neighborhood of the static plan and the
// best measured plan (M±1, halved/doubled tile widths, halved/doubled
// worker counts, interleave toggled): each candidate scores its measured
// mean throughput — or the cost-model prior, anchored to the best measured
// signature, when unmeasured — plus an exploration bonus that shrinks as
// the candidate accumulates observations. The arithmetic is deliberately
// clock- and randomness-free: equal stores produce equal decisions.
type Tuner struct {
	// MinObservations gates selection (default DefaultMinObservations).
	MinObservations int
	// Explore scales the exploration bonus (default DefaultExplore);
	// negative disables exploration (pure greedy over measured means).
	Explore float64
	// MaxProblems bounds tracked problems (default DefaultMaxProblems).
	MaxProblems int
	// MaxSignatures bounds tracked signatures per problem (default
	// DefaultMaxSignatures); observations for further signatures are
	// dropped.
	MaxSignatures int

	mu       sync.Mutex
	problems map[string]*problemStats
	touch    int64
}

type problemStats struct {
	total    int
	lastUsed int64
	sigs     map[Signature]*sigStat
}

type sigStat struct {
	n           int
	mean        float64 // running mean rhs/s
	iterSeconds float64 // running mean seconds per block iteration
}

func (t *Tuner) minObs() int {
	if t.MinObservations > 0 {
		return t.MinObservations
	}
	return DefaultMinObservations
}

func (t *Tuner) explore() float64 {
	switch {
	case t.Explore < 0:
		return 0
	case t.Explore == 0:
		return DefaultExplore
	}
	return t.Explore
}

func (t *Tuner) maxProblems() int {
	if t.MaxProblems > 0 {
		return t.MaxProblems
	}
	return DefaultMaxProblems
}

func (t *Tuner) maxSignatures() int {
	if t.MaxSignatures > 0 {
		return t.MaxSignatures
	}
	return DefaultMaxSignatures
}

// Observe folds one executed plan's realized performance into the store.
// Non-positive keys-less problems (key "") and non-finite or negative
// throughputs are ignored; a zero RHSPerSec is accepted as the deliberate
// "this plan cannot run here" mark for infeasible candidates.
func (t *Tuner) Observe(key string, sig Signature, obs Observation) {
	if key == "" || math.IsNaN(obs.RHSPerSec) || math.IsInf(obs.RHSPerSec, 0) || obs.RHSPerSec < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.problems == nil {
		t.problems = make(map[string]*problemStats)
	}
	p := t.problems[key]
	if p == nil {
		if len(t.problems) >= t.maxProblems() {
			t.evictColdest()
		}
		p = &problemStats{sigs: make(map[Signature]*sigStat)}
		t.problems[key] = p
	}
	t.touch++
	p.lastUsed = t.touch
	st := p.sigs[sig]
	if st == nil {
		if len(p.sigs) >= t.maxSignatures() {
			return // bounded store: drop observations beyond the cap
		}
		st = &sigStat{}
		p.sigs[sig] = st
	}
	p.total++
	st.n++
	st.mean += (obs.RHSPerSec - st.mean) / float64(st.n)
	st.iterSeconds += (obs.IterSeconds - st.iterSeconds) / float64(st.n)
}

// evictColdest drops the least-recently-used problem; caller holds t.mu.
func (t *Tuner) evictColdest() {
	var coldKey string
	var coldUsed int64 = math.MaxInt64
	for k, p := range t.problems {
		if p.lastUsed < coldUsed {
			coldKey, coldUsed = k, p.lastUsed
		}
	}
	if coldKey != "" {
		delete(t.problems, coldKey)
	}
}

// Observations reports how many executed solves the store has folded in
// for the problem (0 for unknown keys).
func (t *Tuner) Observations(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.problems[key]; p != nil {
		return p.total
	}
	return 0
}

// Decide chooses the plan a warm problem should run: base is the planner's
// static decision for in (pl is the planner that produced it, needed to
// regenerate consistent candidate plans). Until the problem has
// MinObservations executed solves — or when the base plan is decomposed,
// whose execution shape the mesh partition owns — the static plan returns
// untouched with an empty Decision. Past the gate every candidate is
// scored; with adapt true the winner's plan is returned, otherwise the
// static plan is (observe mode: evidence without adaptation). prior, when
// non-nil, supplies the cost-model throughput ratio for unmeasured
// candidates (it is per-problem, so it is an argument rather than tuner
// state). Decide never mutates the store, so offline planning
// (POST /v1/plan) can call it freely.
func (t *Tuner) Decide(key string, pl Planner, in Inputs, base Plan, prior PriorFunc, adapt bool) (Plan, Decision) {
	if key == "" || base.Backend == BackendDecomposed || len(base.Tiles) == 0 {
		return base, Decision{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.problems[key]
	if p == nil || p.total < t.minObs() {
		return base, Decision{}
	}

	// Anchor: the best measured signature, the unit every prior and
	// exploration bonus is expressed in.
	var anchorSig Signature
	anchor := 0.0
	found := false
	for sig, st := range p.sigs {
		if st.n == 0 {
			continue
		}
		if !found || st.mean > anchor || (st.mean == anchor && sig.less(anchorSig)) {
			anchorSig, anchor, found = sig, st.mean, true
		}
	}
	if !found || anchor <= 0 {
		return base, Decision{}
	}

	cands := t.candidates(pl, in, base, anchorSig)
	total := float64(p.total)
	explore := t.explore()
	best := 0
	for i := range cands {
		c := &cands[i]
		value := 0.0
		n := 0
		if st := p.sigs[c.Signature]; st != nil && st.n > 0 {
			c.Measured, c.Observations, c.IterSeconds = st.mean, st.n, st.iterSeconds
			value, n = st.mean, st.n
		} else {
			ratio := 1.0
			if prior != nil {
				ratio = clampRatio(prior(anchorSig, c.Signature))
			}
			c.Prior = anchor * ratio
			value = c.Prior
		}
		c.Score = value + explore*anchor*math.Sqrt(math.Log(total+1)/float64(n+1))
		if c.Score > cands[best].Score {
			best = i
		}
	}

	d := Decision{Source: "static", Candidates: cands}
	if !adapt {
		cands[0].Chosen = true // the static plan is what will run
		return base, d
	}
	cands[best].Chosen = true
	switch {
	case best == 0 && cands[0].Observations == 0:
		d.Source = "static"
	case cands[best].Observations > 0:
		d.Source = "measured"
	default:
		d.Source = "predicted"
	}
	return cands[best].Plan, d
}

// clampRatio bounds a prior's opinion: the cost model ranks neighbors, it
// does not get to declare a candidate 100× faster than the evidence.
func clampRatio(r float64) float64 {
	if math.IsNaN(r) || r <= 0 {
		return 1
	}
	return math.Min(math.Max(r, 0.1), 10)
}

// candidates builds the deterministic candidate list: the static base plan
// first, then the neighborhoods of the base and of the incumbent best
// measured plan, deduplicated by signature. Caller holds t.mu.
func (t *Tuner) candidates(pl Planner, in Inputs, base Plan, anchorSig Signature) []Candidate {
	seen := map[Signature]bool{base.Signature(): true}
	out := []Candidate{{Plan: base, Signature: base.Signature()}}
	add := func(p Plan, ok bool) {
		if !ok || len(out) >= maxCandidates {
			return
		}
		sig := p.Signature()
		if seen[sig] {
			return
		}
		seen[sig] = true
		out = append(out, Candidate{Plan: p, Signature: sig})
	}
	expand := func(from Plan) {
		add(pl.withM(from, from.M+1))
		add(pl.withM(from, from.M-1))
		add(pl.retiled(in, from, 2*tileWidth(from)))
		add(pl.retiled(in, from, tileWidth(from)/2))
		add(pl.withWorkers(in, from, from.Workers*2))
		add(pl.withWorkers(in, from, from.Workers/2))
		add(pl.withInterleave(in, from, !from.Interleave))
	}
	expand(base)
	// Walk the neighborhood of the incumbent too, so adaptation can climb
	// more than one step away from the static plan (m 1 → 2 → 3 …).
	if inc, ok := pl.fromSignature(in, base, anchorSig); ok {
		add(inc, true)
		expand(inc)
	}
	return out
}

// tileWidth is the plan's widest tile (its signature width).
func tileWidth(p Plan) int {
	if len(p.Tiles) == 0 {
		return 0
	}
	return len(p.Tiles[0])
}

// batchSize is the plan's total column count.
func batchSize(p Plan) int {
	s := 0
	for _, t := range p.Tiles {
		s += len(t)
	}
	return s
}

// kernelFor resolves the kernel set a candidate runs through, mirroring
// Plan: only the interleaved panel path threads the per-solve policy.
func kernelFor(interleave bool, policy string) string {
	if interleave {
		return kernel.Select(policy).Name
	}
	return kernel.Active().Name
}

// withM proposes base with m preconditioner steps (invalid m: no plan).
func (pl Planner) withM(base Plan, m int) (Plan, bool) {
	if m < 0 || m == base.M {
		return Plan{}, false
	}
	out := base
	out.M = m
	return out, true
}

// retiled proposes base re-partitioned at the given tile width, with the
// interleave legality and kernel resolution the static planner applies.
func (pl Planner) retiled(in Inputs, base Plan, width int) (Plan, bool) {
	s := batchSize(base)
	if s <= 1 || width < 1 || width > s || width == tileWidth(base) {
		return Plan{}, false
	}
	out := base
	out.Tiles = tile(s, width)
	out.Interleave = len(out.Tiles[len(out.Tiles)-1]) >= interleaveMinWidth
	out.Kernel = kernelFor(out.Interleave, in.Kernel)
	if tileWidth(out) == tileWidth(base) && out.Interleave == base.Interleave {
		return Plan{}, false
	}
	return out, true
}

// withWorkers proposes base at a different kernel fan-out, bounded by the
// session's worker budget. Systems below the parallel-kernel threshold run
// serially regardless, so no variant is proposed for them.
func (pl Planner) withWorkers(in Inputs, base Plan, w int) (Plan, bool) {
	budget := in.Workers
	if budget < 1 {
		budget = 1
	}
	if in.Probe != nil && in.Probe.Rows > 0 && in.Probe.Rows < minParallelRows {
		return Plan{}, false
	}
	if w < 1 || w > budget || w == base.Workers {
		return Plan{}, false
	}
	out := base
	out.Workers = w
	return out, true
}

// withInterleave proposes base with the panel layout toggled. Turning it
// on needs every tile at least two columns wide (a one-column panel is the
// scalar path).
func (pl Planner) withInterleave(in Inputs, base Plan, on bool) (Plan, bool) {
	if on == base.Interleave || len(base.Tiles) == 0 {
		return Plan{}, false
	}
	if on && len(base.Tiles[len(base.Tiles)-1]) < 2 {
		return Plan{}, false
	}
	out := base
	out.Interleave = on
	out.Kernel = kernelFor(on, in.Kernel)
	return out, true
}

// fromSignature reconstructs the plan a signature describes by applying
// its fields to the static base (the inverse of the candidate modifiers).
// It reports false when the signature is not reachable from base — a
// different backend, or a shape the current inputs cannot express — so a
// stale store entry can never smuggle in an inconsistent plan.
func (pl Planner) fromSignature(in Inputs, base Plan, sig Signature) (Plan, bool) {
	if sig.Backend != base.Backend {
		return Plan{}, false
	}
	out := base
	if sig.M != out.M {
		var ok bool
		if out, ok = pl.withM(out, sig.M); !ok {
			return Plan{}, false
		}
	}
	if sig.TileWidth != tileWidth(out) {
		var ok bool
		if out, ok = pl.retiled(in, out, sig.TileWidth); !ok {
			return Plan{}, false
		}
	}
	if sig.Workers != out.Workers {
		var ok bool
		if out, ok = pl.withWorkers(in, out, sig.Workers); !ok {
			return Plan{}, false
		}
	}
	if sig.Interleave != out.Interleave {
		var ok bool
		if out, ok = pl.withInterleave(in, out, sig.Interleave); !ok {
			return Plan{}, false
		}
	}
	if out.Signature() != sig {
		return Plan{}, false
	}
	return out, true
}
