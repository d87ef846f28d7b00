package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// eventStream builds a `go test -json` stream with a benchmark result line
// deliberately split across two Output events — the shape that broke naive
// per-line parsing and the reason parseFile reassembles per-package text.
const eventStream = `{"Action":"start","Package":"waitfree/internal/topology"}
{"Action":"output","Package":"waitfree/internal/topology","Output":"pkg: waitfree/internal/topology\n"}
{"Action":"output","Package":"waitfree/internal/topology","Output":"BenchmarkSDSPowSequential\n"}
{"Action":"output","Package":"waitfree/internal/topology","Output":"BenchmarkSDSPowSequential-4   \t"}
{"Action":"output","Package":"waitfree/internal/topology","Output":"      10\t   1976361 ns/op\t  772538 B/op\t    3916 allocs/op\n"}
{"Action":"output","Package":"waitfree/internal/engine","Output":"pkg: waitfree/internal/engine\n"}
{"Action":"output","Package":"waitfree/internal/engine","Output":"BenchmarkEngineSolveWarm-4   \t     100\t     52000 ns/op\n"}
{"Action":"pass","Package":"waitfree/internal/engine"}
`

func write(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseEventStreamReassemblesSplitLines(t *testing.T) {
	got, err := parseFile(write(t, "cur.json", eventStream))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["waitfree/internal/topology:BenchmarkSDSPowSequential"]
	if !ok {
		t.Fatalf("split benchmark line not reassembled; parsed keys: %v", keys(got))
	}
	if r.NsPerOp != 1976361 || !r.HasAllocs || r.AllocsPerOp != 3916 {
		t.Fatalf("wrong result: %+v", r)
	}
	e, ok := got["waitfree/internal/engine:BenchmarkEngineSolveWarm"]
	if !ok || e.NsPerOp != 52000 || e.HasAllocs {
		t.Fatalf("engine result wrong: %+v (ok=%v)", e, ok)
	}
}

func TestParsePlainBenchOutput(t *testing.T) {
	plain := "goos: linux\npkg: waitfree/internal/topology\nBenchmarkSDSPowParallel-8   \t10\t1745105 ns/op\t772588 B/op\t3919 allocs/op\n"
	got, err := parseFile(write(t, "plain.txt", plain))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["waitfree/internal/topology:BenchmarkSDSPowParallel"]
	if !ok || r.AllocsPerOp != 3919 {
		t.Fatalf("plain parse wrong: %+v (ok=%v)", r, ok)
	}
}

// TestParsePlainMultiPackage: a plain baseline spanning several packages
// must key each benchmark under its own "pkg:" header, matching the keys a
// -json stream of the same run would produce — otherwise every cross-package
// comparison silently degrades to SKIP.
func TestParsePlainMultiPackage(t *testing.T) {
	plain := "pkg: waitfree/internal/engine\nBenchmarkEngineSolveWarm-4 20 9000 ns/op\n" +
		"pkg: waitfree/internal/solver\nBenchmarkSolverStructuredSetConsensus-4 200 750000 ns/op 1299 nodes/op 123000 B/op 4399 allocs/op\n"
	got, err := parseFile(write(t, "multi.txt", plain))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["waitfree/internal/engine:BenchmarkEngineSolveWarm"]; !ok {
		t.Fatalf("engine key missing: %v", keys(got))
	}
	r, ok := got["waitfree/internal/solver:BenchmarkSolverStructuredSetConsensus"]
	if !ok || !r.HasNodes || r.NodesPerOp != 1299 || r.AllocsPerOp != 4399 {
		t.Fatalf("solver key wrong: %+v (ok=%v)", r, ok)
	}
}

func TestGateNsPerOpRegression(t *testing.T) {
	base := write(t, "base.txt", "pkg: p\nBenchmarkX-4 10 1000 ns/op\n")
	cur := write(t, "cur.txt", "pkg: p\nBenchmarkX-4 10 1200 ns/op\n")
	var out strings.Builder
	failed, err := run(base, cur, 0.10, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("20%% slowdown passed a 10%% gate; report:\n%s", out.String())
	}
	// Within tolerance passes.
	cur2 := write(t, "cur2.txt", "pkg: p\nBenchmarkX-4 10 1090 ns/op\n")
	out.Reset()
	if failed, err = run(base, cur2, 0.10, &out); err != nil || failed {
		t.Fatalf("9%% slowdown failed a 10%% gate (err=%v):\n%s", err, out.String())
	}
}

func TestGateAllocRegressionIsExact(t *testing.T) {
	base := write(t, "base.txt", "pkg: p\nBenchmarkX-4 10 1000 ns/op 500 B/op 40 allocs/op\n")
	cur := write(t, "cur.txt", "pkg: p\nBenchmarkX-4 10 1000 ns/op 500 B/op 41 allocs/op\n")
	var out strings.Builder
	failed, err := run(base, cur, 0.10, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("+1 allocs/op passed the gate; report:\n%s", out.String())
	}
}

// TestGateReportsEveryFailure: a line that fails two gates prints one FAIL
// line per gate, so an ns/op failure cannot hide an allocs/op regression,
// and a line failing none prints ok.
func TestGateReportsEveryFailure(t *testing.T) {
	base := write(t, "base.txt", "pkg: p\nBenchmarkX-4 10 1000 ns/op 500 B/op 40 allocs/op\nBenchmarkY-4 10 1000 ns/op 500 B/op 40 allocs/op\n")
	cur := write(t, "cur.txt", "pkg: p\nBenchmarkX-4 10 1200 ns/op 500 B/op 41 allocs/op\nBenchmarkY-4 10 1000 ns/op 500 B/op 40 allocs/op\n")
	var out strings.Builder
	failed, err := run(base, cur, 0.10, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !failed {
		t.Fatalf("a line failing two gates passed; report:\n%s", report)
	}
	for _, want := range []string{
		"FAIL p:BenchmarkX: 1200 ns/op",
		"FAIL p:BenchmarkX: 41 allocs/op",
		"ok   p:BenchmarkY",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if n := strings.Count(report, "FAIL"); n != 2 {
		t.Errorf("%d FAIL lines, want 2:\n%s", n, report)
	}
}

// TestGateNodesRegressionIsExact pins the solver search-node gate: nodes/op
// is ReportMetric output printed between ns/op and the -benchmem pair, it is
// deterministic, and ANY increase fails regardless of timing headroom.
func TestGateNodesRegressionIsExact(t *testing.T) {
	base := write(t, "base.txt", "pkg: p\nBenchmarkSolver-4 10 1000 ns/op 1299 nodes/op 500 B/op 40 allocs/op\n")
	cur := write(t, "cur.txt", "pkg: p\nBenchmarkSolver-4 10 1000 ns/op 1305 nodes/op 500 B/op 40 allocs/op\n")
	var out strings.Builder
	failed, err := run(base, cur, 0.10, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("+6 nodes/op passed the gate; report:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "nodes/op") {
		t.Fatalf("failure not attributed to nodes/op:\n%s", out.String())
	}
	// Equal node counts pass, and a fractional metric (68.00) parses.
	base2 := write(t, "base2.txt", "pkg: p\nBenchmarkSolver-4 10 1000 ns/op 68.00 nodes/op 500 B/op 40 allocs/op\n")
	cur2 := write(t, "cur2.txt", "pkg: p\nBenchmarkSolver-4 10 1000 ns/op 68.00 nodes/op 500 B/op 40 allocs/op\n")
	out.Reset()
	if failed, err = run(base2, cur2, 0.10, &out); err != nil || failed {
		t.Fatalf("equal nodes/op failed the gate (err=%v):\n%s", err, out.String())
	}
}

// TestParseNodesMetricWithoutBenchmem: a nodes/op metric with no trailing
// -benchmem pair still parses (and vice versa — the alloc-only shape is
// covered by the plain-output test above).
func TestParseNodesMetricWithoutBenchmem(t *testing.T) {
	got, err := parseFile(write(t, "n.txt", "pkg: p\nBenchmarkSolver-8 10 1000 ns/op 36.00 nodes/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["p:BenchmarkSolver"]
	if !ok || !r.HasNodes || r.NodesPerOp != 36 || r.HasAllocs {
		t.Fatalf("parse wrong: %+v (ok=%v)", r, ok)
	}
}

func TestMissingBaselineBenchmarkIsSkipped(t *testing.T) {
	base := write(t, "base.txt", "pkg: p\nBenchmarkX-4 10 1000 ns/op\n")
	cur := write(t, "cur.txt", "pkg: p\nBenchmarkX-4 10 1000 ns/op\nBenchmarkNew-4 10 99999999 ns/op\n")
	var out strings.Builder
	failed, err := run(base, cur, 0.10, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("new benchmark with no baseline failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "SKIP p:BenchmarkNew") {
		t.Fatalf("missing-baseline skip not reported:\n%s", out.String())
	}
}

func TestEmptyCurrentIsAnError(t *testing.T) {
	base := write(t, "base.txt", "pkg: p\nBenchmarkX-4 10 1000 ns/op\n")
	cur := write(t, "cur.txt", "no benchmarks here\n")
	var out strings.Builder
	if _, err := run(base, cur, 0.10, &out); err == nil {
		t.Fatal("empty current run must error, not silently pass")
	}
}

// TestCommittedBaselineParses pins that the repo's committed baseline stays
// consumable by benchguard — the CI job depends on it.
func TestCommittedBaselineParses(t *testing.T) {
	for _, rel := range []string{"../../BENCH_engine.json"} {
		got, err := parseFile(rel)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		if len(got) == 0 {
			t.Fatalf("%s: no benchmark results parsed", rel)
		}
	}
}

func keys(m map[string]benchResult) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
