package engine

import (
	"context"
	"errors"
	"testing"

	"waitfree/internal/obs"
)

// TestSolveTraceSpans: a traced Solve must emit the full span tree —
// cache.lookup, flight.wait, sds.subdivide, solver.search — and the span
// attributes must equal the response's deterministic counts, per level.
// Approximate agreement has no Sperner certificate, so it is searched at
// both levels (solvable at b = 1).
func TestSolveTraceSpans(t *testing.T) {
	e := New(Options{})
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	req := SolveRequest{Spec: TaskSpec{Family: "approx-agreement", D: 2}, MaxLevel: 1}
	resp, err := e.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()

	lookups := snap.Find("cache.lookup")
	if len(lookups) == 0 || lookups[0].Ints["hit"] != 0 || lookups[0].Strs["tier"] != TierMiss {
		t.Fatalf("first cache.lookup should be a miss: %+v", lookups)
	}
	if len(snap.Find("flight.wait")) == 0 {
		t.Fatal("no flight.wait span")
	}

	searches := snap.Find("solver.search")
	if len(searches) != req.MaxLevel+1 {
		t.Fatalf("%d solver.search spans, want %d (one per level)", len(searches), req.MaxLevel+1)
	}
	last := searches[len(searches)-1]
	if last.Ints["nodes"] != resp.Nodes {
		t.Errorf("span nodes=%d, response nodes=%d", last.Ints["nodes"], resp.Nodes)
	}
	if last.Ints["facets"] != int64(resp.SubdivisionFacets) {
		t.Errorf("span facets=%d, response facets=%d", last.Ints["facets"], resp.SubdivisionFacets)
	}
	if last.Ints["vertices"] != int64(resp.SubdivisionVertices) {
		t.Errorf("span vertices=%d, response vertices=%d", last.Ints["vertices"], resp.SubdivisionVertices)
	}

	subs := snap.Find("sds.subdivide")
	if len(subs) != 1 {
		t.Fatalf("%d sds.subdivide spans, want 1 (level 1 built once)", len(subs))
	}
	if subs[0].Ints["facets_out"] != int64(resp.SubdivisionFacets) {
		t.Errorf("subdivide facets_out=%d, response facets=%d", subs[0].Ints["facets_out"], resp.SubdivisionFacets)
	}

	// A repeat of the same query answers from the cache: its trace is a
	// single memory-tier hit with no search underneath.
	tr2 := obs.NewTrace()
	if _, err := e.Solve(obs.WithTrace(context.Background(), tr2), req); err != nil {
		t.Fatal(err)
	}
	snap2 := tr2.Snapshot()
	hits := snap2.Find("cache.lookup")
	if len(hits) != 1 || hits[0].Ints["hit"] != 1 || hits[0].Strs["tier"] != TierMemory {
		t.Fatalf("cached repeat should be one memory hit: %+v", hits)
	}
	if n := len(snap2.Find("solver.search")); n != 0 {
		t.Fatalf("cached repeat ran %d searches", n)
	}
}

// TestCanceledQueryNeverObservesSuccessHistogram pins the canceled-path
// contract: a query abandoned mid-flight must record its latency in the
// <op>_error histogram and leave the success series untouched — otherwise
// every disconnect would drag the reported p99 toward the timeout.
func TestCanceledQueryNeverObservesSuccessHistogram(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the query starts: the engine must notice
	_, err := e.Solve(ctx, SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: 1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	m := e.Metrics()
	if n := m.HistCount("solve"); n != 0 {
		t.Errorf("success histogram has %d observations after a canceled query", n)
	}
	if n := m.HistCount("solve_error"); n != 1 {
		t.Errorf("error histogram has %d observations, want 1", n)
	}

	// A successful run of the same query lands in the success series only.
	if _, err := e.Solve(context.Background(), SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: 1}); err != nil {
		t.Fatal(err)
	}
	if n := m.HistCount("solve"); n != 1 {
		t.Errorf("success histogram has %d observations after one success, want 1", n)
	}
	if n := m.HistCount("solve_error"); n != 1 {
		t.Errorf("error histogram grew to %d on a success", n)
	}
}
