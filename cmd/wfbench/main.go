// Command wfbench is the end-to-end benchmark of the solvability service.
// It boots the real stack in-process, wired as `wfrepro serve` wires it,
// sends a seeded request sequence over loopback TCP from a closed loop of
// two clients, checks every answer byte for byte, and prints each metric as
// "workload metric value unit", then one JSON result line.
//
//	wfbench --workload warm-hits --seed 1 --seconds 25 --trace 0
//	wfbench --workload cold-mix --seed 1 --trace 1 --spans spans.json
//	wfbench compare parent.jsonl change.jsonl
//
// See README.md for the workloads, the metrics and the compare rule.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one invocation's shared state.
type bench struct {
	client  *http.Client
	seed    int64
	scale   float64
	workDir string
	mix     []query
	mixRef  [][]byte // the mix's reference answers, computed once
}

// scaled returns n scaled down for smoke runs, at least 1.
func (b *bench) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*b.scale)))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: warm-hits, cold-mix, churn-spill, cluster-spray or all")
	seed := fs.Int64("seed", 1, "seed the request sequence is generated from")
	seconds := fs.Float64("seconds", 25, "length of the timed phase, seconds")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "span file of a traced run (default <workdir>/spans-<workload>.json)")
	record := fs.String("record", "", "append each workload's result to this JSON-lines file, for compare")
	scale := fs.Float64("scale", 1, "scale the run length, key spaces and set-up repetitions (0.01 = smoke test)")
	workDir := fs.String("workdir", ".bench_build", "directory for spill directories and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(stderr, "wfbench: usage: wfbench [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--spans file] [--record file] [--scale f]")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "wfbench: unknown workload %q\n", *name)
		return 2
	}
	b := &bench{
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, IdleConnTimeout: 30 * time.Second},
		},
		seed:    *seed,
		scale:   *scale,
		workDir: *workDir,
		mix:     queryMix(),
	}
	defer b.client.CloseIdleConnections()
	fmt.Fprintf(stdout, "# wfbench seed=%d clients=%d nproc=%d GOMAXPROCS=%d go=%s seconds=%g scale=%g trace=%d\n",
		b.seed, clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seconds, b.scale, *traced)

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		spanPath := *spans
		if spanPath == "" || len(selected) > 1 {
			spanPath = filepath.Join(b.workDir, "spans-"+w.name+".json")
		}
		res, err := b.runWorkload(w, *seconds*b.scale, *traced == 1, spanPath, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "wfbench: %s: %v\n", w.name, err)
			return 1
		}
		if *record != "" {
			if err := appendRecord(*record, w.name, b.seed, *traced, res); err != nil {
				fmt.Fprintf(stderr, "wfbench: %v\n", err)
				return 1
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "wfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload: the timed phase with tracing off and,
// for a traced run, a second timed phase with the seams wrapped followed by
// the direct phase. Each phase gets half the seconds in a traced run.
func (b *bench) runWorkload(w workload, seconds float64, traced bool, spanPath string, stdout, stderr io.Writer) (*result, error) {
	qs := w.keys(b)
	preset, err := b.presetFor(qs)
	if err != nil {
		return nil, err
	}
	c := newChecker(qs, preset)
	seq := w.seq(b, len(qs))
	defs := e2eMetrics
	ps := phaseSpec{seconds: seconds, setups: b.scaled(3), minSamples: b.scaled(minColdSamples)}
	if traced {
		// Each phase of a traced run gets half the seconds; neither reports
		// set-up time or a percentile, so one set-up and any sample count do.
		defs = layerMetrics
		ps = phaseSpec{seconds: seconds / 2, setups: 1}
	}
	rep := newReport(stdout, w.name, defs)

	plain, err := w.run(b, c, seq, ps)
	if err != nil {
		return nil, err
	}
	var tp *phase
	var tr *tracer
	var d *directOut
	if traced {
		if err := plain.close(); err != nil {
			return nil, err
		}
		tr = newTracer()
		ps.tracer = tr
		if tp, err = w.run(b, c, seq, ps); err != nil {
			return nil, err
		}
		d, err = direct(b.directInputs(w, c), solveQuery(heavyRow).key, tp.nodes[0].engine())
		if cerr := tp.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	} else if err := plain.close(); err != nil {
		return nil, err
	}
	sampled, err := b.verifySample(w, c)
	if err != nil {
		return nil, err
	}

	rep.info("requests=%d ok=%d passes=%d elapsed=%.3fs set-ups=%d distinct-queries=%d recomputed-sample=%d",
		plain.load.attempted, plain.load.ok, plain.passes, plain.load.elapsed.Seconds(), len(plain.setups), len(qs), sampled)
	failed := c.failed.Load()
	rep.info("error_rate %g (%d failed of %d checked)", float64(failed)/float64(max(1, c.checks.Load())), failed, c.checks.Load())
	if w.name == "churn-spill" {
		rep.info("cache_misses=%.0f distinct-queries-sent=%d (equal unless an answer was recomputed)",
			plain.counters["cache_misses"], distinctSent(seq, plain.load.attempted))
	}
	if traced {
		spans := tr.snapshot()
		if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(spanPath, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.info("%d spans written to %s", len(spans), spanPath)
		layerReport(rep, plain, tp, d, summarize(spans))
	} else if err := e2eReport(rep, plain); err != nil {
		return nil, err
	}
	for _, msg := range c.reports {
		fmt.Fprintf(stderr, "wfbench: %s: FAIL %s\n", w.name, msg)
	}
	return &result{
		Correct:   failed == 0,
		Attempted: c.checks.Load(),
		Failed:    failed,
		Metrics:   rep.metrics,
	}, nil
}

// e2eReport computes the end-to-end metrics of an untraced phase.
func e2eReport(rep *report, p *phase) error {
	lat := p.load.lat
	if lat == nil || lat.n == 0 {
		return errors.New("no requests completed")
	}
	rep.set("throughput_qps", p.qps(), fmt.Sprintf("%d answers in %.3fs", p.load.ok, p.load.elapsed.Seconds()))
	rep.set("latency_p50_ms", lat.quantile(0.5), fmt.Sprintf("%d samples", lat.n))
	if v, err := lat.tail(0.99); err == nil {
		rep.set("latency_p99_ms", v, fmt.Sprintf("%.0f samples beyond", 0.01*float64(lat.n)))
	} else {
		rep.info("latency_p99_ms not reported: %v", err)
	}
	rep.set("setup_s", median(p.setups), fmt.Sprintf("median of %d set-ups", len(p.setups)))
	rep.set("heap_peak_mb", float64(p.use.heapPeak)/1e6, "peak live heap, sampled every 50ms")
	return nil
}

// layerReport computes the per-layer metrics of a traced run from the
// untraced phase's counters, the traced phase's spans and the direct phase.
func layerReport(rep *report, plain, tp *phase, d *directOut, s spanSummary) {
	c := plain.counters
	n := float64(max(1, plain.load.attempted))
	perK := func(v float64) float64 { return 1000 * v / n }

	rep.info("spans: %s", s)
	rep.set("serve.handler_us_p50", median(s.handlerUs), "")
	rep.set("transport.us_p50", median(s.transportUs), "client span minus serve span")
	rep.set("serve.admit_cost_us_p50", median(d.admitUs), fmt.Sprintf("EstimateCost over %d distinct queries", len(d.admitUs)))
	rep.set("serve.encode_us_p50", median(d.encodeUs), fmt.Sprintf("engine.WriteJSON over %d answers", len(d.encodeUs)))
	rep.set("process.alloc_kb_per_req", float64(plain.use.alloc)/1024/n, fmt.Sprintf("%d requests, untraced", plain.load.attempted))
	rep.set("process.gc_per_kreq", perK(float64(plain.use.gcs)), fmt.Sprintf("%d GC cycles", plain.use.gcs))

	lookups := c["cache_hits"] + c["cache_misses"]
	rep.set("engine.hit_us_p50", median(d.hitUs), fmt.Sprintf("Engine call on %d warm answers", len(d.hitUs)))
	v, note := ratio(c["cache_hits"], lookups, "cache_hits of lookups")
	rep.set("engine.hit_ratio", v, note)
	rep.set("engine.dedup_per_pass", c["deduped"]/float64(max(1, plain.passes)), fmt.Sprintf("deduped %.0f over %d passes", c["deduped"], plain.passes))
	v, note = ratio(c["cache_disk_hits"], lookups, "cache_disk_hits of lookups")
	rep.set("engine.disk_hit_ratio", v, note)
	rep.set("engine.spills_per_kreq", perK(c["cache_spills"]), fmt.Sprintf("%.0f spills", c["cache_spills"]))
	rep.set("engine.spill_write_ms_p50", median(s.spillWriteMs), fmt.Sprintf("%d writes", len(s.spillWriteMs)))
	rep.set("engine.spill_read_ms_p50", median(s.spillReadMs), fmt.Sprintf("%d reads", len(s.spillReadMs)))
	rep.set("engine.spill_readdir_ms_p50", median(s.readdirMs), fmt.Sprintf("%d listings, ReadDir plus Info per entry", len(s.readdirMs)))
	rep.set("engine.spill_readdir_entries_mean", mean(s.readdirEntries), "")

	rep.set("sched.replay_us_p50", median(d.replayUs), fmt.Sprintf("%d replays", len(d.replayUs)))
	rep.set("topology.subdivide_ms_per_pass", d.subdivideMs, "")
	rep.set("topology.facets_per_pass", float64(d.facets), "")
	rep.set("topology.heavy_subdivide_ms", d.heavySubdivideMs, "consensus, 4 procs, b ≤ 2")
	rep.set("solver.solve_ms_per_pass", d.solveMs, "")
	rep.set("solver.nodes_per_pass", float64(d.nodes),
		fmt.Sprintf("counter_solver_nodes_total %.0f over %d passes", c["counter_solver_nodes_total"], plain.passes))
	rep.set("solver.heavy_solve_ms", d.heavySolveMs, "consensus, 4 procs, b ≤ 2")
	rep.set("converge.map_ms_per_pass", d.convergeMs, "")

	rep.set("cluster.forward_per_kreq", perK(c["counter_cluster_forwarded_total"]), fmt.Sprintf("%.0f forwards", c["counter_cluster_forwarded_total"]))
	fills := c["counter_cluster_peer_fill_hit"] + c["counter_cluster_peer_fill_miss"]
	v, note = ratio(c["counter_cluster_peer_fill_hit"], fills, "fill hits of fill attempts")
	rep.set("cluster.fill_hit_ratio", v, note)
	rep.set("cluster.forward_ms_p50", median(s.forwardMs), fmt.Sprintf("%d forwards", len(s.forwardMs)))
	rep.set("cluster.fetch_ms_p50", median(s.fetchMs), fmt.Sprintf("%d artifact fetches", len(s.fetchMs)))
	rep.set("cluster.fetch_kb_mean", mean(s.fetchKB), fmt.Sprintf("%d artifacts", len(s.fetchKB)))
	rep.set("cluster.gossip_per_s", float64(s.gossip)/tp.load.elapsed.Seconds(), fmt.Sprintf("%d exchanges", s.gossip))
	rep.set("codec.decode_us_p50", median(d.decodeUs), fmt.Sprintf("%d artifacts", len(d.decodeUs)))

	over := 0.0
	if q := plain.qps(); q > 0 {
		over = 100 * (q - tp.qps()) / q
	}
	rep.set("trace.overhead_pct", over, fmt.Sprintf("untraced %.1f/s, traced %.1f/s", plain.qps(), tp.qps()))
	v, note = ratio(float64(s.layerSelfNs), float64(s.clientNs), "layer self ns of client ns")
	rep.set("trace.coverage", v, note)
}

// directInputs are the distinct queries the direct phase times: the mix,
// when the workload sends it, and a seeded sample of the replays it sent.
func (b *bench) directInputs(w workload, c *checker) []query {
	var inputs []query
	for k, q := range c.qs {
		if c.preset[k] {
			inputs = append(inputs, q)
		}
	}
	for _, k := range b.firstSeen(c, w.name+"/direct") {
		inputs = append(inputs, c.qs[k])
	}
	return inputs
}

// appendRecord appends one workload's result to a JSON-lines file.
func appendRecord(path, workload string, seed int64, traced int, res *result) error {
	line, err := json.Marshal(record{Workload: workload, Seed: seed, Trace: traced, Result: *res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// record is one line of a -record file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}
