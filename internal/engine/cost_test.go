package engine

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"waitfree/internal/model"
	"waitfree/internal/solver"
	"waitfree/internal/topology"
)

// TestComplexCostMatchesGoldenTable pins the estimator against the same
// Lemma 3.3 numbers the golden table pins: the estimate for SDS^b(sⁿ) is the
// total facet count of the whole chain, Σ Fubini(n+1)^k for k ≤ b.
func TestComplexCostMatchesGoldenTable(t *testing.T) {
	cases := []struct {
		n, b int
		want int64
	}{
		{0, 3, 4},      // Fubini(1)=1: 1+1+1+1
		{1, 2, 13},     // Fubini(2)=3: 1+3+9
		{2, 2, 183},    // Fubini(3)=13: 1+13+169
		{2, 3, 2380},   // + 13³ = 2197
		{3, 3, 427576}, // Fubini(4)=75: 1+75+5625+421875 — the query the motivation names
	}
	for _, tc := range cases {
		got, err := (ComplexRequest{N: tc.n, B: tc.b}).EstimateCost()
		if err != nil || got != tc.want {
			t.Errorf("EstimateCost(n=%d,b=%d) = %d, %v; want %d", tc.n, tc.b, got, err, tc.want)
		}
	}
}

// TestSolveCostTracksActualFacets: for a real task the estimate's deepest
// term equals the facet count the engine actually materializes — the
// closed form and the construction agree, which is what makes rejecting on
// the estimate sound.
func TestSolveCostTracksActualFacets(t *testing.T) {
	req := SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: 1}
	cost, err := req.EstimateCost()
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	resp, err := e.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// cost = Σ levels; the deepest level alone is cost − cost(maxLevel−1).
	shallow, err := SolveRequest{Spec: req.Spec, MaxLevel: 0}.EstimateCost()
	if err != nil {
		t.Fatal(err)
	}
	if deepest := cost - shallow; deepest != int64(resp.SubdivisionFacets) {
		t.Errorf("estimate's deepest level = %d facets, engine materialized %d", deepest, resp.SubdivisionFacets)
	}
}

// TestCostInvalidSpec: estimation validates like the engine — an unknown
// family is ErrInvalid, never a panic or a zero estimate admitted for free.
func TestCostInvalidSpec(t *testing.T) {
	_, err := (SolveRequest{Spec: TaskSpec{Family: "nonsense"}, MaxLevel: 1}).EstimateCost()
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("got %v, want ErrInvalid", err)
	}
	if _, err := (ComplexRequest{N: -1, B: 0}).EstimateCost(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative n: got %v, want ErrInvalid", err)
	}
}

// TestCostSaturates: absurd depths saturate at CostUnbounded instead of
// wrapping into a small (admissible!) number.
func TestCostSaturates(t *testing.T) {
	if got := chainCost(1, 9, 500); got != CostUnbounded {
		t.Fatalf("chainCost(1, 9, 500) = %d, want CostUnbounded", got)
	}
}

// TestSolveRecordsSearchCounters: a computed solve query adds its chain's
// search totals to the three solver counters — every level searched, the
// one that found a map or ran out of budget included — and a certified one
// adds nothing. The oracle sums SolveAtLevelOn over the same chain; nodes
// pins its node total as well.
func TestSolveRecordsSearchCounters(t *testing.T) {
	sc := func(procs, k int) TaskSpec { return TaskSpec{Family: "set-consensus", Procs: procs, K: k} }
	cases := []struct {
		name      string
		req       SolveRequest
		certified bool
		budget    bool  // the query ends in solver.ErrBudget
		nodes     int64 // 0 + … over the levels searched
	}{
		{"solvable at b=1", SolveRequest{Spec: sc(3, 2), MaxLevel: 2, Model: "1-resilient"}, false, false, 3 + 6},
		{"budget at b=1", SolveRequest{Spec: sc(4, 2), MaxLevel: 1, Model: "3-set", MaxNodes: 50}, false, true, 3 + 51},
		{"certified", SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 3}, MaxLevel: 2}, true, false, 0},
		{"searched at every level", SolveRequest{Spec: TaskSpec{Family: "approx-agreement-n", Procs: 3, D: 4}, MaxLevel: 2}, false, false, 0 + 0 + 678},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{})
			_, err := e.Solve(context.Background(), tc.req)
			if got := errors.Is(err, solver.ErrBudget); got != tc.budget || (err != nil && !got) {
				t.Fatalf("err = %v, want budget error %v", err, tc.budget)
			}
			var want [3]int64
			if !tc.certified {
				want = chainTotals(t, tc.req)
			}
			m := e.Metrics()
			got := [3]int64{m.Counter("solver_nodes_total"), m.Counter("solver_pruned_values_total"), m.Counter("solver_components_total")}
			if got != want || got[0] != tc.nodes {
				t.Errorf("nodes, pruned values, components = %v; the chain's levels sum to %v, nodes %d", got, want, tc.nodes)
			}
		})
	}
}

// chainTotals walks R^0 … R^MaxLevel itself and sums each level's search
// telemetry, up to the first level that finds a map or fails.
func chainTotals(t *testing.T, req SolveRequest) (sum [3]int64) {
	t.Helper()
	ctx := context.Background()
	task, err := req.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := model.Parse(req.Model)
	if err != nil {
		t.Fatal(err)
	}
	opts := solver.Options{MaxNodes: req.MaxNodes, Restrict: spec.Filter()}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = DefaultMaxNodes
	}
	sub := task.Inputs
	for b := 0; b <= req.MaxLevel; b++ {
		if b > 0 {
			if sub, err = topology.Subdivide(ctx, sub, 1, opts.Restrict); err != nil {
				t.Fatal(err)
			}
		}
		res, err := solver.SolveAtLevelOn(ctx, task, b, sub, opts)
		sum[0] += res.Nodes
		sum[1] += res.Stats.PrunedValues
		sum[2] += int64(res.Stats.Components)
		if err != nil || res.Solvable {
			break
		}
	}
	return sum
}

// FuzzEstimateCost drives the admission estimate with arbitrary request
// fields — task family and parameters, levels, node budget and the model
// string — under a soft memory limit. No input may panic; each estimate is
// either an ErrInvalid refusal or a cost ≥ 0; and no call may allocate
// more than estimateAllocBound bytes, since admission prices a query
// before the query is allowed to allocate anything proportional to it.
func FuzzEstimateCost(f *testing.F) {
	f.Add("consensus", 3, 0, 0, 0, 2, int64(0), "1-resilient", 2, 3, 1, 2)
	f.Add("set-consensus", 4, 3, 0, 0, 1, int64(500000000), "3-set", 3, 1, 2, 3)
	f.Add("approx-agreement", 0, 0, 32, 0, 4, int64(-1), "", 0, 0, 0, 0)
	f.Add("renaming", 4, 0, 0, 8, 5, int64(1), "9-resilient", -1, 1<<40, -3, 1<<62)
	f.Add("wsb", 1<<40, -1, -1, -1, -1, int64(0), "-1-concurrency", 1<<62, 1<<62, 1<<62, 1<<62)
	// Levels a peer key can name: every estimate must stop as soon as
	// its total saturates, or, for one-vertex facets (n = 0), sum in
	// closed form.
	f.Add("consensus", 2, 0, 0, 0, 1, int64(0), "", 0, 1<<62, 1<<62, 1<<62)
	f.Add("consensus", 2, 0, 0, 0, 1, int64(0), "", 2, 1<<62, 1<<62, 1<<62)
	prev := debug.SetMemoryLimit(64 << 20)
	f.Cleanup(func() { debug.SetMemoryLimit(prev) })
	f.Fuzz(func(t *testing.T, family string, procs, k, d, m, maxLevel int, maxNodes int64, modelName string, n, b, target, maxK int) {
		estimates := []struct {
			name     string
			estimate func() (int64, error)
		}{
			{"solve", SolveRequest{Spec: TaskSpec{Family: family, Procs: procs, K: k, D: d, M: m}, MaxLevel: maxLevel, MaxNodes: maxNodes, Model: modelName}.EstimateCost},
			{"complex", ComplexRequest{N: n, B: b}.EstimateCost},
			{"converge", ConvergeRequest{N: n, Target: target, MaxK: maxK}.EstimateCost},
		}
		for _, e := range estimates {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cost, err := e.estimate()
			runtime.ReadMemStats(&after)
			if err != nil && !errors.Is(err, ErrInvalid) {
				t.Fatalf("%s: error %v is not ErrInvalid", e.name, err)
			}
			if err == nil && cost < 0 {
				t.Fatalf("%s: cost %d < 0", e.name, cost)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > estimateAllocBound {
				t.Fatalf("%s: estimate allocated %d bytes", e.name, grew)
			}
		}
	})
}

// estimateAllocBound bounds one estimate's allocation: counting the kept
// partitions of at most 4 processes (75 of them) is the largest work an
// estimate may do.
const estimateAllocBound = 1 << 20
