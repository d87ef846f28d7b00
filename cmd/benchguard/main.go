// Command benchguard compares a `go test -json -bench` run against a
// committed baseline and fails (exit 1) on regressions: more than a
// configurable ns/op slowdown (default 10%), ANY increase in allocs/op, or
// ANY increase in the solver benchmarks' custom nodes/op metric. The
// asymmetry is deliberate — wall-clock numbers wobble with CI machine load,
// while allocation and search-node counts are deterministic, so those gates
// are exact and the time gate has a tolerance band.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime 20x -json ./... > current.json
//	go run ./cmd/benchguard -baseline BENCH_engine.json -current current.json
//
// Both files may be either `go test -json` event streams or plain bench
// output. Benchmarks present in the current run but missing from the
// baseline are reported and skipped, so adding a benchmark never breaks CI;
// refreshing the committed baseline is what arms the gate for it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark line, keyed by package-qualified name.
type benchResult struct {
	NsPerOp     float64
	NodesPerOp  float64
	HasNodes    bool
	AllocsPerOp int64
	HasAllocs   bool
}

// testEvent is the subset of the `go test -json` event schema benchguard
// consumes.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchLine matches a gofmt'd benchmark result. The `-\d+` strips the
// GOMAXPROCS suffix so baselines transfer across machine shapes; the
// nodes/op group is optional because only the solver benchmarks report it
// (ReportMetric prints custom units between ns/op and the -benchmem pair),
// and the B/op and allocs/op groups are optional because -benchmem may be
// absent.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) nodes/op)?(?:\s+[\d.]+ B/op\s+(\d+) allocs/op)?`)

// parseFile reads either a -json event stream or plain bench output and
// returns results keyed "pkg:BenchmarkName" (or just the name when no
// package is known).
func parseFile(path string) (map[string]benchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// A -json stream interleaves packages, and single benchmark result
	// lines are frequently split across several Output events; reassemble
	// the full per-package text first, then scan it line by line.
	if chunks, ok := parseEventStream(data); ok {
		out := make(map[string]benchResult)
		for pkg, text := range chunks {
			parseText(text, pkg, out)
		}
		return out, nil
	}
	out := make(map[string]benchResult)
	parseText(string(data), "", out)
	return out, nil
}

// parseEventStream returns the concatenated Output text per package, or
// ok=false when the file is not a `go test -json` stream.
func parseEventStream(data []byte) (map[string]string, bool) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	bufs := make(map[string]*strings.Builder)
	any := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, false
		}
		any = true
		if ev.Action != "output" || ev.Output == "" {
			continue
		}
		b := bufs[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			bufs[ev.Package] = b
		}
		b.WriteString(ev.Output)
	}
	if !any {
		return nil, false
	}
	chunks := make(map[string]string, len(bufs))
	for pkg, b := range bufs {
		chunks[pkg] = b.String()
	}
	return chunks, true
}

// parseText scans reassembled bench output. Plain output carries its
// package in "pkg:" header lines — each header switches the current package,
// so a multi-package plain file keys identically to a -json stream of the
// same run. A -json chunk seeds pkg from the event; its embedded "pkg:"
// header names the same package, so the switch is a no-op there.
func parseText(text, pkg string, out map[string]benchResult) {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		r := benchResult{NsPerOp: ns}
		if m[3] != "" {
			r.NodesPerOp, _ = strconv.ParseFloat(m[3], 64)
			r.HasNodes = true
		}
		if m[4] != "" {
			r.AllocsPerOp, _ = strconv.ParseInt(m[4], 10, 64)
			r.HasAllocs = true
		}
		key := m[1]
		if pkg != "" {
			key = pkg + ":" + m[1]
		}
		out[key] = r
	}
}

func run(baselinePath, currentPath string, threshold float64, stdout *strings.Builder) (failed bool, err error) {
	baseline, err := parseFile(baselinePath)
	if err != nil {
		return false, fmt.Errorf("baseline: %w", err)
	}
	current, err := parseFile(currentPath)
	if err != nil {
		return false, fmt.Errorf("current: %w", err)
	}
	if len(current) == 0 {
		return false, fmt.Errorf("no benchmark results in %s", currentPath)
	}
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cur := current[name]
		base, ok := baseline[name]
		if !ok {
			fmt.Fprintf(stdout, "SKIP %s: not in baseline (refresh the baseline to arm the gate)\n", name)
			continue
		}
		// Every gate is checked, so one failure never hides another on
		// the same line.
		lineFailed := false
		if limit := base.NsPerOp * (1 + threshold); cur.NsPerOp > limit {
			lineFailed = true
			fmt.Fprintf(stdout, "FAIL %s: %.0f ns/op, baseline %.0f (+%.1f%% > %.0f%% allowed)\n",
				name, cur.NsPerOp, base.NsPerOp, 100*(cur.NsPerOp/base.NsPerOp-1), 100*threshold)
		}
		if cur.HasNodes && base.HasNodes && cur.NodesPerOp > base.NodesPerOp {
			lineFailed = true
			fmt.Fprintf(stdout, "FAIL %s: %.0f nodes/op, baseline %.0f (search nodes are deterministic; any increase fails)\n",
				name, cur.NodesPerOp, base.NodesPerOp)
		}
		if cur.HasAllocs && base.HasAllocs && cur.AllocsPerOp > base.AllocsPerOp {
			lineFailed = true
			fmt.Fprintf(stdout, "FAIL %s: %d allocs/op, baseline %d (any increase fails)\n",
				name, cur.AllocsPerOp, base.AllocsPerOp)
		}
		failed = failed || lineFailed
		if !lineFailed {
			fmt.Fprintf(stdout, "ok   %s: %.0f ns/op (baseline %.0f)", name, cur.NsPerOp, base.NsPerOp)
			if cur.HasNodes && base.HasNodes {
				fmt.Fprintf(stdout, ", %.0f nodes/op (baseline %.0f)", cur.NodesPerOp, base.NodesPerOp)
			}
			if cur.HasAllocs && base.HasAllocs {
				fmt.Fprintf(stdout, ", %d allocs/op (baseline %d)", cur.AllocsPerOp, base.AllocsPerOp)
			}
			fmt.Fprintln(stdout)
		}
	}
	return failed, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_engine.json", "committed baseline (go test -json or plain bench output)")
	currentPath := flag.String("current", "", "current run to gate (required)")
	threshold := flag.Float64("threshold", 0.10, "allowed fractional ns/op slowdown")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -current is required")
		os.Exit(2)
	}
	var report strings.Builder
	failed, err := run(*baselinePath, *currentPath, *threshold, &report)
	os.Stdout.WriteString(report.String())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}
