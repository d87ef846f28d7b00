package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// lastResult parses the result line a run ends with.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func TestSmokeAllWorkloads(t *testing.T) {
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"--scale", "0.01", "--seed", "3", "--workdir", t.TempDir()}, &stdout, &stderr)
	took := time.Since(start)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if took > 15*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want ≤ 15s", took)
	}
	r := lastResult(t, stdout.String())
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("result %+v", r)
	}
	for _, w := range workloads {
		for _, m := range e2eMetrics {
			if m.name == "latency_p99_ms" {
				continue // too few samples at this scale; the run says why
			}
			if _, ok := r.Metrics[w.name+"/"+m.name]; !ok {
				t.Errorf("%s: no %s", w.name, m.name)
			}
		}
	}
}

func TestSmokeTracedCluster(t *testing.T) {
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	code := run([]string{"--workload", "cluster-spray", "--trace", "1", "--scale", "0.02",
		"--spans", spans, "--workdir", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	r := lastResult(t, stdout.String())
	for _, m := range layerMetrics {
		if _, ok := r.Metrics[m.name]; !ok {
			t.Errorf("no %s", m.name)
		}
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var list []span
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("span file: %v", err)
	}
	names := map[string]bool{}
	for _, s := range list {
		names[s.Name] = true
	}
	for _, n := range []string{"client", "serve", "cluster.peer"} {
		if !names[n] {
			t.Errorf("no %s span in the span file", n)
		}
	}
	if v := r.Metrics["trace.coverage"].Value; v <= 0 || v > 1 {
		t.Errorf("trace.coverage = %v, want a share in (0, 1]", v)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root and
// the metrics this program reports naming the same things.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this checkout: %v", err)
	}
	var bf struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []bound                               `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, wfbench has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, wfbench %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, wfbench %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, wfbench %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, e2eMetrics)
	check("per_layer", layer, layerMetrics)
}
