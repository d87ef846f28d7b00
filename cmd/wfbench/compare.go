package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []bound `json:"end_to_end"`
}

// runCompare implements `wfbench compare [-bench file] parent change`: the
// two files hold -record lines of alternating runs of the parent commit and
// the change; the i-th untraced run of a workload on one side is paired
// with the i-th on the other.
//
// For each workload and end-to-end metric it reports each side's median and
// quartiles and one verdict, by a paired rule for small, noisy machines:
//
//   - unresolved: the parent's own spread (third minus first quartile)
//     exceeds the metric's bound, and the change does not read better in
//     every run than the parent in every run;
//   - gain: the change wins at least 9 in 10 pairs (ties count for
//     neither), the medians differ by more than the parent's spread, and the
//     change fails no more requests than the parent;
//   - regression: the change's median is worse than the parent's by more
//     than the bound;
//   - ok: none of these.
//
// It exits 1 when any metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "wfbench: usage: wfbench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	bounds, err := readBounds(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "wfbench compare: %v\n", err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "wfbench compare: %v\n", err)
		return 2
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "wfbench compare: %v\n", err)
		return 2
	}
	rows, err := compareRuns(bounds, parent, change)
	if err != nil {
		fmt.Fprintf(stderr, "wfbench compare: %v\n", err)
		return 2
	}
	regressed := false
	for _, row := range rows {
		cells := make([]string, len(row.verdicts))
		for i, v := range row.verdicts {
			cells[i] = fmt.Sprintf("%s=%s(%+.1f%%, %d/%d)", v.metric, v.word, v.deltaPct, v.wins, v.pairs)
			regressed = regressed || v.word == "regression"
		}
		fmt.Fprintf(stdout, "%s %s\n", row.workload, strings.Join(cells, " "))
	}
	for _, row := range rows {
		for _, v := range row.verdicts {
			fmt.Fprintf(stdout, "# %s %s parent %s [%s, %s] change %s [%s, %s] bound %g\n", row.workload, v.metric,
				formatValue(v.parent[1]), formatValue(v.parent[0]), formatValue(v.parent[2]),
				formatValue(v.change[1]), formatValue(v.change[0]), formatValue(v.change[2]), v.bound)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return bf.EndToEnd, nil
}

// readRecords reads the untraced records of a -record file, by workload,
// in file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

type verdict struct {
	metric         string
	parent, change [3]float64 // first quartile, median, third quartile
	bound          float64
	deltaPct       float64 // change median against parent median
	wins, pairs    int
	word           string
}

type compareRow struct {
	workload string
	verdicts []verdict
}

// compareRuns pairs the runs of each workload and judges every metric.
func compareRuns(bounds []bound, parent, change map[string][]result) ([]compareRow, error) {
	var names []string
	for w := range parent {
		names = append(names, w)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no untraced parent runs")
	}
	var rows []compareRow
	for _, w := range names {
		pr, cr := parent[w], change[w]
		n := min(len(pr), len(cr))
		if n < minPairs {
			return nil, fmt.Errorf("%s: %d parent and %d change runs; need ≥%d pairs", w, len(pr), len(cr), minPairs)
		}
		pr, cr = pr[:n], cr[:n]
		row := compareRow{workload: w}
		var pFailed, cFailed int64
		for i := 0; i < n; i++ {
			pFailed += pr[i].Failed
			cFailed += cr[i].Failed
		}
		for _, b := range bounds {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				pm, ok1 := pr[i].Metrics[b.Name]
				cm, ok2 := cr[i].Metrics[b.Name]
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("%s: pair %d lacks %s", w, i+1, b.Name)
				}
				pv[i], cv[i] = pm.Value, cm.Value
			}
			row.verdicts = append(row.verdicts, judge(b, pv, cv, cFailed > pFailed))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// judge applies the compare rule to one metric's paired runs.
func judge(b bound, pv, cv []float64, moreFailures bool) verdict {
	v := verdict{metric: b.Name, bound: b.Bound, pairs: len(pv)}
	v.parent[0], v.parent[1], v.parent[2] = quartiles(pv)
	v.change[0], v.change[1], v.change[2] = quartiles(cv)
	better := func(x, y float64) bool { // x reads better than y
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range pv {
		if better(cv[i], pv[i]) {
			v.wins++
		}
	}
	pMed, cMed := v.parent[1], v.change[1]
	if pMed != 0 {
		v.deltaPct = 100 * (cMed - pMed) / math.Abs(pMed)
	}
	worse := (cMed - pMed) / math.Abs(pMed) // share by which the change reads worse
	if b.Better == "higher" {
		worse = -worse
	}
	spread := v.parent[2] - v.parent[0]
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case spread > b.Bound*math.Abs(pMed) && !allBetter:
		v.word = "unresolved"
	case better(cMed, pMed) && 10*v.wins >= 9*v.pairs && math.Abs(cMed-pMed) > spread && !moreFailures:
		v.word = "gain"
	case worse > b.Bound:
		v.word = "regression"
	default:
		v.word = "ok"
	}
	return v
}
