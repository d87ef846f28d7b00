package main

import (
	"fmt"
	"io"
)

// metricDef is one reported metric. The lists below and BENCHMARK.json at
// the repository root name the same metrics (TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are what a client of the service sees, measured with tracing
// off. Correctness is not among them: every answer is checked, and a wrong
// or failed one counts in "failed" and fails the run.
var e2eMetrics = []metricDef{
	{"throughput_qps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
}

// layerMetrics come from the traced run: spans around each layer's seams,
// /metrics counters, and the direct phase.
var layerMetrics = []metricDef{
	{"serve.handler_us_p50", "us", "lower"},
	{"transport.us_p50", "us", "lower"},
	{"serve.admit_cost_us_p50", "us", "lower"},
	{"serve.encode_us_p50", "us", "lower"},
	{"process.alloc_kb_per_req", "KiB", "lower"},
	{"process.gc_per_kreq", "1/kreq", "lower"},
	{"engine.hit_us_p50", "us", "lower"},
	{"engine.hit_ratio", "ratio", "higher"},
	{"engine.dedup_per_pass", "count", "higher"},
	{"engine.disk_hit_ratio", "ratio", "higher"},
	{"engine.spills_per_kreq", "1/kreq", "lower"},
	{"engine.spill_write_ms_p50", "ms", "lower"},
	{"engine.spill_read_ms_p50", "ms", "lower"},
	{"engine.spill_readdir_ms_p50", "ms", "lower"},
	{"engine.spill_readdir_entries_mean", "count", "lower"},
	{"sched.replay_us_p50", "us", "lower"},
	{"topology.subdivide_ms_per_pass", "ms", "lower"},
	{"topology.facets_per_pass", "count", "lower"},
	{"topology.heavy_subdivide_ms", "ms", "lower"},
	{"solver.solve_ms_per_pass", "ms", "lower"},
	{"solver.nodes_per_pass", "count", "lower"},
	{"solver.heavy_solve_ms", "ms", "lower"},
	{"converge.map_ms_per_pass", "ms", "lower"},
	{"cluster.forward_per_kreq", "1/kreq", "lower"},
	{"cluster.fill_hit_ratio", "ratio", "higher"},
	{"cluster.forward_ms_p50", "ms", "lower"},
	{"cluster.fetch_ms_p50", "ms", "lower"},
	{"cluster.fetch_kb_mean", "KiB", "lower"},
	{"cluster.gossip_per_s", "1/s", "lower"},
	{"codec.decode_us_p50", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.coverage", "ratio", "higher"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a workload's metrics and prints each as
// "workload metric value unit", with the base of a ratio after it.
type report struct {
	w       io.Writer
	name    string
	defs    map[string]metricDef
	metrics map[string]metric
}

func newReport(w io.Writer, name string, defs []metricDef) *report {
	r := &report{w: w, name: name, defs: map[string]metricDef{}, metrics: map[string]metric{}}
	for _, d := range defs {
		r.defs[d.name] = d
	}
	return r
}

// set records and prints a metric; note, when given, follows it in
// parentheses (a ratio's base, a count's source).
func (r *report) set(name string, v float64, note string) {
	d, ok := r.defs[name]
	if !ok {
		panic("wfbench: unknown metric " + name) // a misspelling in this program, not bad input
	}
	r.metrics[name] = metric{Value: v, Unit: d.unit}
	if note != "" {
		note = " (" + note + ")"
	}
	fmt.Fprintf(r.w, "%s %s %s %s%s\n", r.name, name, formatValue(v), d.unit, note)
}

// info prints a line that is not a metric: sizes, counts, bases.
func (r *report) info(format string, args ...any) {
	fmt.Fprintf(r.w, "%s # %s\n", r.name, fmt.Sprintf(format, args...))
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// ratio returns num/den, or 0 when den is 0, with the base as a note.
func ratio(num, den float64, what string) (float64, string) {
	note := fmt.Sprintf("%s: %.0f of %.0f", what, num, den)
	if den == 0 {
		return 0, note
	}
	return num / den, note
}
