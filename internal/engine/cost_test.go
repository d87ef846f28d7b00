package engine

import (
	"context"
	"errors"
	"testing"
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

// TestSolveRecordsSearchCounters: every searched level feeds the solver
// counters. Approximate agreement at d = 4 prunes domain values before its
// search finds the level-2 map; 3-process approximate agreement at d = 4
// burns real search nodes (678) before its level-2 map. Neither has a
// Sperner certificate, which would answer before any search.
func TestSolveRecordsSearchCounters(t *testing.T) {
	e := New(Options{})
	m := e.Metrics()
	req := SolveRequest{Spec: TaskSpec{Family: "approx-agreement", D: 4}, MaxLevel: 2}
	if _, err := e.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if m.Counter("solver_pruned_values_total") <= 0 {
		t.Errorf("solver_pruned_values_total = %d, want > 0", m.Counter("solver_pruned_values_total"))
	}

	sc := SolveRequest{Spec: TaskSpec{Family: "approx-agreement-n", Procs: 3, D: 4}, MaxLevel: 2}
	if _, err := e.Solve(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if m.Counter("solver_nodes_total") <= 0 {
		t.Errorf("solver_nodes_total = %d, want > 0", m.Counter("solver_nodes_total"))
	}
}
