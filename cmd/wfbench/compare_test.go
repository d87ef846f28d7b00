package main

import "testing"

func TestJudge(t *testing.T) {
	qps := bound{Name: "throughput_qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name         string
		parent, chg  []float64
		moreFailures bool
		want         string
	}{
		{"faster in every pair", steady, scale(steady, 1.2), false, "gain"},
		{"faster but failing more", steady, scale(steady, 1.2), true, "ok"},
		{"a little slower", steady, scale(steady, 0.95), false, "ok"},
		{"much slower", steady, scale(steady, 0.8), false, "regression"},
		{"noisy parent", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scale(steady, 0.8), false, "unresolved"},
		{"noisy parent, change better than every parent run", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scale(steady, 1.5), false, "gain"},
	}
	for _, c := range cases {
		if got := judge(qps, c.parent, c.chg, c.moreFailures).word; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	lat := bound{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	if got := judge(lat, steady, scale(steady, 0.8), false).word; got != "gain" {
		t.Errorf("lower latency in every pair: %s, want gain", got)
	}
	if got := judge(lat, steady, scale(steady, 1.2), false).word; got != "regression" {
		t.Errorf("20%% higher latency: %s, want regression", got)
	}
}

func TestCompareNeedsTenPairs(t *testing.T) {
	runs := func(n int) map[string][]result {
		var rs []result
		for i := 0; i < n; i++ {
			rs = append(rs, result{Correct: true, Attempted: 1, Metrics: map[string]metric{"throughput_qps": {Value: 100}}})
		}
		return map[string][]result{"warm-hits": rs}
	}
	bounds := []bound{{Name: "throughput_qps", Better: "higher", Bound: 0.1}}
	if _, err := compareRuns(bounds, runs(9), runs(9)); err == nil {
		t.Error("9 pairs accepted; want ≥10")
	}
	rows, err := compareRuns(bounds, runs(10), runs(12))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].verdicts[0].word != "ok" || rows[0].verdicts[0].pairs != 10 {
		t.Fatalf("rows = %+v", rows)
	}
}
