package main

// metric describes one reported number. The end-to-end and per-layer tables
// below are the benchmark's vocabulary: BENCHMARK.json lists the same names
// (a test keeps the two in step), and Moves records, for every per-layer
// metric, the end-to-end metric and workload it is expected to move.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Moves  string // per-layer only: "<end-to-end metric> on <workload>"
}

// endToEnd are the metrics a user of the solver sees, reported by an
// untraced run (--trace 0) of every workload.
var endToEnd = []metric{
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "rhs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_rhs", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the ladder's metrics, reported by a traced run (--trace 1)
// of every workload on that workload's canonical problem.
var perLayer = []metric{
	{Name: "kernel.spmv_us", Unit: "us", Better: "lower", Moves: "rhs_per_s, cpu_ms_per_rhs on plate-serve"},
	{Name: "kernel.spmm8_us", Unit: "us", Better: "lower", Moves: "rhs_per_s on plate-batch"},
	{Name: "kernel.spmv_gbps_computed", Unit: "GB/s", Better: "higher", Moves: "rhs_per_s on plate-serve"},
	{Name: "kernel.spmm8_gbps_computed", Unit: "GB/s", Better: "higher", Moves: "rhs_per_s on plate-batch"},
	{Name: "precond.apply_us", Unit: "us", Better: "lower", Moves: "rhs_per_s on plate-serve"},
	{Name: "precond.apply8_us", Unit: "us", Better: "lower", Moves: "rhs_per_s on plate-batch"},
	{Name: "cg.iter_us", Unit: "us", Better: "lower", Moves: "rhs_per_s on plate-serve"},
	{Name: "cg.block_iter_us", Unit: "us", Better: "lower", Moves: "rhs_per_s on plate-batch"},
	{Name: "cg.recurrence_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_rhs on plate-serve"},
	{Name: "cg.iterations", Unit: "count", Better: "lower", Moves: "rhs_per_s on every workload (a change is a numerics change)"},
	{Name: "cg.block_iterations", Unit: "count", Better: "lower", Moves: "rhs_per_s on plate-batch (a change is a numerics change)"},
	{Name: "engine.warm_job_ms", Unit: "ms", Better: "lower", Moves: "rhs_per_s on plate-serve"},
	{Name: "engine.overhead_ms", Unit: "ms", Better: "lower", Moves: "rhs_per_s on plate-serve"},
	{Name: "engine.queue_ms", Unit: "ms", Better: "lower", Moves: "latency_p90_ms on plate-serve"},
	{Name: "engine.plan_ms", Unit: "ms", Better: "lower", Moves: "rhs_per_s on plate-serve"},
	{Name: "engine.emit_ms", Unit: "ms", Better: "lower", Moves: "rhs_per_s on plate-serve"},
	{Name: "engine.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "rhs_per_s on plate-serve (must be 1.0 on every workload)"},
	{Name: "engine.cache_lookups", Unit: "count", Better: "higher", Moves: "base of engine.cache_hit_ratio"},
	{Name: "cold.assemble_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "cold.splitting_build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "cold.spectral_estimate_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload (most of a cold build)"},
	{Name: "cold.precond_build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "cold.job_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "service.http_overhead_ms", Unit: "ms", Better: "lower", Moves: "rhs_per_s on plate-serve (not plate-batch)"},
	{Name: "service.response_kb", Unit: "KiB", Better: "lower", Moves: "rhs_per_s on plate-serve"},
	{Name: "service.encode_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_rhs on plate-serve"},
	{Name: "client.decode_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_rhs on plate-serve"},
	{Name: "fleet.hop_ms", Unit: "ms", Better: "lower", Moves: "no end-to-end metric: no workload routes through a fleet"},
	{Name: "fleet.routing_key_us", Unit: "us", Better: "lower", Moves: "no end-to-end metric: no workload routes through a fleet"},
	{Name: "fleet.affinity_ratio", Unit: "ratio", Better: "higher", Moves: "must be 1.0; no workload routes through a fleet"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none on the end-to-end runs, which fetch no traces: the cost of fetching and decoding a job's engine trace over HTTP plus the benchmark's spans; moves with the trace's size and encoding"},
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// collect builds the metrics map for table from vals, reporting the names
// the table lists but vals lacks.
func collect(table []metric, vals map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(table))
	var missing []string
	for _, m := range table {
		v, ok := vals[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return out, missing
}
