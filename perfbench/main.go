// Command perfbench is the repository's benchmark: it drives seeded
// workloads through the shipped surfaces — the client SDK, the solverd HTTP
// service and the engine, all in this process on a loopback listener —
// checks every answer, and prints one JSON result line. With --trace 1 it
// instead reports the per-layer ladder: calls into each layer's public
// functions, from kernels up to the fleet, on the workload's canonical
// problem. See README.md for the workloads and the metric table.
//
//	perfbench --workload plate-serve --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// runDeadline bounds a whole run; the benchmark must exit well inside the
// three minutes a run may take.
const runDeadline = 170 * time.Second

// setups is how many times an untraced run sets up; setup_s is their median
// and the last one serves the timed phase.
const setups = 3

func main() {
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(1)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 40, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer ladder")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, uint64(*seed))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var detail map[string]any
	if *trace == 0 {
		res, detail, err = untraced(w, d)
	} else {
		res, detail, err = traced(w, d, fmt.Sprintf(".bench_build/spans/%s-seed%d.json", w.Name, *seed))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	detail["workload"], detail["seed"], detail["seconds"], detail["trace"] = w.Name, *seed, *seconds, *trace
	for _, v := range []any{map[string]any{"detail": detail}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// setUp starts the workload's node and builds its warm set cold, recording
// what every later request of each warm problem must repeat. The returned
// duration is the benchmark's set-up time.
func setUp(w *workload, chk *checker) (*env, time.Duration, error) {
	start := time.Now()
	e, err := startEnv()
	if err != nil {
		return nil, 0, err
	}
	bc := newBenchClient(e.front)
	defer bc.close()
	for idx, req := range w.Warm {
		r, err := bc.send(context.Background(), req, w.Stream)
		if err == nil {
			err = chk.record(idx, r)
		}
		if err != nil {
			e.stop()
			return nil, 0, fmt.Errorf("set-up of warm problem %d: %w", idx, err)
		}
	}
	return e, time.Since(start), nil
}

// untraced sets up, runs the timed phase and measures the end-to-end
// metrics.
func untraced(w *workload, d time.Duration) (result, map[string]any, error) {
	chk, err := newChecker(w)
	if err != nil {
		return result{}, nil, err
	}
	var e *env
	var times []float64
	for range setups {
		if e != nil {
			e.stop()
			runtime.GC() // so one set-up's garbage does not raise the next one's peak
		}
		var t time.Duration
		if e, t, err = setUp(w, chk); err != nil {
			return result{}, nil, err
		}
		times = append(times, t.Seconds())
	}
	defer e.stop()
	runtime.GC()
	p := runPhase(e, w, chk, w.stream(), d, nil)

	var lat []float64
	rhs := 0
	for _, o := range p.succeeded() {
		lat = append(lat, ms(o.latency))
		rhs += o.rhs
	}
	if rhs == 0 {
		return result{}, nil, fmt.Errorf("no request succeeded: %v", p.failures(5))
	}
	vals := map[string]float64{
		"latency_p90_ms": quantile(lat, 0.9),
		"rhs_per_s":      float64(rhs) / p.wall.Seconds(),
		"cpu_ms_per_rhs": ms(p.cpu) / float64(rhs),
		"setup_s":        median(times),
		"mem_peak_mb":    p.memPeakMB,
	}
	metrics, missing := collect(endToEnd, vals)
	if len(missing) > 0 {
		return result{}, nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	res := result{Correct: p.failed() == 0, Attempted: len(p.outcomes), Failed: p.failed(), Metrics: metrics}
	detail := map[string]any{
		"succeeded": len(lat),
		// The median is context only: see "Host noise" in README.md.
		"latency_p50_ms": quantile(lat, 0.5),
		"samples":        map[string]int{"latency": len(lat)},
		"setups_s":       times,
		"warm":           chk.warm,
		"cache":          map[string]int64{"hits": p.hits, "misses": p.misses},
		"failures":       p.failures(5),
		"steal_pct":      100 * p.steal,
	}
	return res, detail, nil
}

// traced sets up once, runs the timed phase untraced and then traced (half
// the time each), and then the ladder. The per-layer metrics come from the
// traced phase's job traces and from the ladder.
func traced(w *workload, d time.Duration, spansPath string) (result, map[string]any, error) {
	chk, err := newChecker(w)
	if err != nil {
		return result{}, nil, err
	}
	e, _, err := setUp(w, chk)
	if err != nil {
		return result{}, nil, err
	}
	defer e.stop()
	st := w.stream()
	runtime.GC()
	plain := runPhase(e, w, chk, st, d/2, nil)
	tr := newTracer()
	runtime.GC()
	tp := runPhase(e, w, chk, st, d/2, tr)
	lad, err := runLadder(e, w, tr)
	if err != nil {
		return result{}, nil, fmt.Errorf("ladder: %w", err)
	}
	if err := tr.write(spansPath); err != nil {
		return result{}, nil, fmt.Errorf("write spans: %w", err)
	}

	v := lad.vals
	ok := tp.succeeded()
	if len(ok) == 0 || len(plain.succeeded()) == 0 {
		return result{}, nil, errors.New("no traced request succeeded")
	}
	for _, st := range []string{"queue", "plan", "emit"} {
		var xs []float64
		for _, o := range ok {
			xs = append(xs, o.stages[st]*1e3)
		}
		v["engine."+st+"_ms"] = median(xs)
	}
	lookups := tp.hits + tp.misses
	v["engine.cache_lookups"] = float64(lookups)
	v["engine.cache_hit_ratio"] = 0
	if lookups > 0 {
		v["engine.cache_hit_ratio"] = float64(tp.hits) / float64(lookups)
	}
	v["fleet.affinity_ratio"] = float64(lad.onOwner) / float64(lad.routed)
	// Wall time per request in each phase. The engine records every job's
	// trace in both phases, so the difference is the cost of observing it:
	// fetching the trace over HTTP and decoding it, plus the benchmark's own
	// spans.
	perReq := func(p *phase) float64 {
		return p.wall.Seconds() / float64(len(p.outcomes))
	}
	v["obs.trace_overhead_pct"] = 100 * (perReq(tp)/perReq(plain) - 1)

	metrics, missing := collect(perLayer, v)
	if len(missing) > 0 {
		return result{}, nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	failed := plain.failed() + tp.failed()
	res := result{
		Correct:   failed == 0 && v["fleet.affinity_ratio"] == 1,
		Attempted: len(plain.outcomes) + len(tp.outcomes) + lad.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	detail := map[string]any{
		"succeeded":        len(plain.succeeded()) + len(ok) + lad.attempted,
		"samples":          map[string]int{"untraced": len(plain.succeeded()), "traced": len(ok)},
		"ladder_http_p50":  lad.httpP50,
		"ladder_fleet_p50": lad.fleetP50,
		"warm":             chk.warm,
		"failures":         append(plain.failures(5), tp.failures(5)...),
		"spans":            spansPath,
	}
	return res, detail, nil
}
