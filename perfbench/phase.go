package main

import (
	"context"
	"fmt"
	"time"
)

// outcome is one timed request.
type outcome struct {
	it      item
	latency time.Duration
	rhs     int
	jobID   string
	err     error
	// stages holds the engine's job trace, seconds per stage name (traced
	// phases only).
	stages map[string]float64
}

// phase is one closed-loop timed phase: the client sends its next request
// as soon as the previous one returns, until the phase's time is up; the
// request in flight then finishes and counts.
type phase struct {
	outcomes     []outcome
	wall, cpu    time.Duration
	hits, misses int64 // cache counter deltas over the phase
	// problems lists failures found after the phase (cache counts), each
	// counted as one failed operation.
	problems []string
	// memPeakMB is the process's peak RSS at the end of the phase.
	memPeakMB float64
	// steal is the share of the machine's CPU time the hypervisor stole
	// during the phase (0 when /proc/stat is unreadable). It is context for
	// the detail line; no metric is corrected by it.
	steal float64
}

func (p *phase) succeeded() []outcome {
	var ok []outcome
	for _, o := range p.outcomes {
		if o.err == nil {
			ok = append(ok, o)
		}
	}
	return ok
}

func (p *phase) failed() int {
	n := len(p.problems)
	for _, o := range p.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}

// failures lists up to limit failure messages, for the detail line.
func (p *phase) failures(limit int) []string {
	out := append([]string(nil), p.problems...)
	for _, o := range p.outcomes {
		if o.err != nil && len(out) < limit {
			out = append(out, o.err.Error())
		}
	}
	return out[:min(len(out), limit)]
}

// runPhase drives the stream against e for d. With tr set, each request is
// followed by a fetch of its engine job trace and both are recorded as
// benchmark spans on tr.
func runPhase(e *env, w *workload, chk *checker, st *stream, d time.Duration, tr *tracer) *phase {
	ctx := context.Background()
	p := &phase{}
	bc := newBenchClient(e.front)
	defer bc.close()
	hits0, misses0 := e.cacheCounts()
	cpu0 := cpuTime()
	steal0, total0 := hostCPU()
	start := time.Now()
	for time.Since(start) < d {
		p.outcomes = append(p.outcomes, sendOne(ctx, bc, w, chk, st.next(), tr))
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.memPeakMB = peakRSSMB()
	if steal1, total1 := hostCPU(); total1 > total0 {
		p.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	hits1, misses1 := e.cacheCounts()
	p.hits, p.misses = hits1-hits0, misses1-misses0
	// Every problem was built during set-up, so the phase must not miss.
	if p.misses != 0 {
		p.problems = append(p.problems, fmt.Sprintf("cache: %d misses on a warm workload", p.misses))
	}
	return p
}

// sendOne sends and checks one request, recording spans when tr is set.
func sendOne(ctx context.Context, bc *benchClient, w *workload, chk *checker, it item, tr *tracer) outcome {
	var root int
	var endRoot func()
	if tr != nil {
		root, endRoot = tr.start("request", 0)
		defer endRoot()
	}
	var endSend func()
	if tr != nil {
		_, endSend = tr.start("client.send", root)
	}
	r, err := bc.send(ctx, it.Req, w.Stream)
	if endSend != nil {
		endSend()
	}
	o := outcome{it: it, latency: r.Latency, rhs: max(r.Result.RHS, 1), jobID: r.Result.JobID}
	if err == nil {
		err = chk.check(it, r)
	}
	o.err = err
	if tr == nil || o.jobID == "" {
		return o
	}
	id, endFetch := tr.start("client.trace_fetch", root)
	ti, terr := bc.cl.Trace(ctx, o.jobID)
	endFetch()
	if terr != nil {
		if o.err == nil {
			o.err = fmt.Errorf("trace of %s: %w", o.jobID, terr)
		}
		return o
	}
	o.stages = make(map[string]float64)
	for _, s := range ti.Spans {
		o.stages[s.Name] += s.DurationSeconds
		tr.add("engine."+s.Name, id, s.StartSeconds, s.DurationSeconds)
	}
	return o
}
