package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"waitfree/internal/obs"
)

func TestSolveVerdicts(t *testing.T) {
	e := New(Options{})
	cases := []struct {
		spec     TaskSpec
		maxLevel int
		solvable bool
		level    int
	}{
		{TaskSpec{Family: "identity", Procs: 3}, 0, true, 0},
		{TaskSpec{Family: "set-consensus", Procs: 3, K: 3}, 0, true, 0},
		{TaskSpec{Family: "consensus", Procs: 2}, 2, false, 2},
		{TaskSpec{Family: "approx-agreement", D: 2}, 2, true, 1},
		{TaskSpec{Family: "set-consensus", Procs: 3, K: 2}, 1, false, 1},
	}
	for _, tc := range cases {
		resp, err := e.Solve(context.Background(), SolveRequest{Spec: tc.spec, MaxLevel: tc.maxLevel})
		if err != nil {
			t.Fatalf("%v: %v", tc.spec, err)
		}
		if resp.Solvable != tc.solvable || resp.Level != tc.level {
			t.Fatalf("%v: got (solvable=%v, level=%d), want (%v, %d)",
				tc.spec, resp.Solvable, resp.Level, tc.solvable, tc.level)
		}
		if resp.Solvable && !resp.MapVerified {
			t.Fatalf("%v: solvable but map not verified", tc.spec)
		}
	}
}

func TestSolveWarmCacheHit(t *testing.T) {
	e := New(Options{})
	req := SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: 2}
	cold, err := e.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().CacheMisses.Load(); got != 1 {
		t.Fatalf("cold solve should record exactly 1 query-level miss, got %d", got)
	}
	warm, err := e.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatal("warm solve should return the cached response object")
	}
	if got := e.Metrics().CacheHits.Load(); got < 1 {
		t.Fatalf("warm solve should record a hit, got %d", got)
	}
}

func TestSingleflightDedup(t *testing.T) {
	e := New(Options{})
	req := SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: 2}
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Solve(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := e.Metrics().CacheMisses.Load(); got != 1 {
		t.Fatalf("%d identical concurrent queries should cost exactly 1 computation, got %d misses", clients, got)
	}
	hits := e.Metrics().CacheHits.Load()
	deduped := e.Metrics().Deduped.Load()
	if hits+deduped != clients-1 {
		t.Fatalf("the other %d clients should hit or share: hits=%d deduped=%d", clients-1, hits, deduped)
	}
}

func TestFlightGroup(t *testing.T) {
	var g flightGroup
	var computed int
	start := make(chan struct{})
	const n = 6
	var wg sync.WaitGroup
	shared := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, sh := g.Do(context.Background(), "k", func(context.Context) (any, error) {
				<-start
				computed++
				time.Sleep(5 * time.Millisecond)
				return 42, nil
			})
			shared[i] = sh
			if err != nil || v.(int) != 42 {
				t.Errorf("Do: %v %v", v, err)
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let all callers enqueue
	close(start)
	wg.Wait()
	if computed != 1 {
		t.Fatalf("fn ran %d times, want 1", computed)
	}
	nShared := 0
	for _, s := range shared {
		if s {
			nShared++
		}
	}
	if nShared != n-1 {
		t.Fatalf("%d callers shared, want %d", nShared, n-1)
	}
}

func TestCacheLRUAndSpill(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics()
	c := NewCache(2, dir, 0, nil, m)
	c.registerCodec("cx",
		func(v any) ([]byte, error) { return gobEncode(v.(*ComplexResponse)) },
		func(data []byte) (any, error) { var r ComplexResponse; err := gobDecode(data, &r); return &r, err })
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("cx:n=%d", i), &ComplexResponse{N: i})
	}
	if c.Len() != 2 {
		t.Fatalf("cache len %d, want 2 (LRU bound)", c.Len())
	}
	if m.CacheEvictions.Load() != 2 || m.CacheSpills.Load() != 2 {
		t.Fatalf("evictions=%d spills=%d, want 2/2", m.CacheEvictions.Load(), m.CacheSpills.Load())
	}
	// Evicted entries rehydrate from disk.
	v, ok := c.Get("cx:n=0")
	if !ok {
		t.Fatal("evicted entry should rehydrate from the spill tier")
	}
	if v.(*ComplexResponse).N != 0 {
		t.Fatalf("rehydrated wrong value: %+v", v)
	}
	if m.CacheDiskHits.Load() != 1 {
		t.Fatalf("disk hits = %d, want 1", m.CacheDiskHits.Load())
	}
}

func TestEngineSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// A 1-entry cache forces every artifact through the disk tier.
	e := New(Options{CacheSize: 1, SpillDir: dir})
	req := SolveRequest{Spec: TaskSpec{Family: "approx-agreement", D: 2}, MaxLevel: 2}
	first, err := e.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// A second, distinct query evicts the first answer to disk. Under
	// GreedyDual the cheaper entry goes, and SDS³(s²) costs tens of times
	// more to compute than the verdict; should a stall make it the cheaper
	// one, its eviction lifts the floor past the verdict for the next
	// query. The re-query must come back from disk with the identical
	// verdict.
	inMemory := func() bool {
		e.cache.mu.Lock()
		defer e.cache.mu.Unlock()
		_, ok := e.cache.items[req.Key()]
		return ok
	}
	for _, evictor := range []ComplexRequest{{N: 2, B: 3}, {N: 2, B: 2}, {N: 1, B: 3}} {
		if _, err := e.ComplexInfo(context.Background(), evictor); err != nil {
			t.Fatal(err)
		}
		if !inMemory() {
			break
		}
	}
	again, err := e.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := EncodeJSON(first)
	b, _ := EncodeJSON(again)
	if string(a) != string(b) {
		t.Fatalf("spilled verdict changed:\n%s\n%s", a, b)
	}
	if e.Metrics().CacheSpills.Load() == 0 {
		t.Fatal("expected spills with a 1-entry cache")
	}
	if got := e.Metrics().CacheDiskHits.Load(); got != 1 {
		t.Fatalf("disk hits = %d, want 1 (the re-query)", got)
	}
}

func TestComplexInfo(t *testing.T) {
	e := New(Options{})
	resp, err := e.ComplexInfo(context.Background(), ComplexRequest{N: 2, B: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SDS(s²) has 13 facets (Fubini(3)) and f-vector (12, 24, 13).
	if resp.Facets != 13 || !resp.Chromatic || !resp.Pure {
		t.Fatalf("SDS(s2): %+v", resp)
	}
	if resp.Euler != 1 {
		t.Fatalf("subdivided simplex must be contractible-like: χ=%d", resp.Euler)
	}
	if _, err := e.ComplexInfo(context.Background(), ComplexRequest{N: 3, B: 3}); err == nil {
		t.Fatal("explosive parameters must be rejected")
	}
}

func TestConverge(t *testing.T) {
	e := New(Options{})
	resp, err := e.Converge(context.Background(), ConvergeRequest{N: 1, Target: 1, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Simplicial || !resp.ColorPreserving || !resp.CarrierRespecting {
		t.Fatalf("map properties not verified: %+v", resp)
	}
	if resp.K < 1 || resp.K > 2 {
		t.Fatalf("unexpected level k=%d", resp.K)
	}
}

func TestAdversaryReplayDeterministic(t *testing.T) {
	e := New(Options{})
	req := AdversaryRequest{Algo: "commitadopt", Adversary: "random", Seed: 42, Procs: 3, Crash: []int{2, -1, -1}}
	a, err := e.Adversary(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Same triple through a fresh engine reproduces the same execution.
	b, err := New(Options{}).Adversary(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := EncodeJSON(a)
	bj, _ := EncodeJSON(b)
	if string(aj) != string(bj) {
		t.Fatalf("replay not deterministic:\n%s\n%s", aj, bj)
	}
	if a.TotalSteps == 0 || !a.WaitFree {
		t.Fatalf("unexpected replay: %+v", a)
	}
}

func TestSpecValidation(t *testing.T) {
	e := New(Options{})
	bad := []SolveRequest{
		{Spec: TaskSpec{Family: "nonsense", Procs: 2}, MaxLevel: 0},
		{Spec: TaskSpec{Family: "consensus", Procs: 99}, MaxLevel: 0},
		{Spec: TaskSpec{Family: "set-consensus", Procs: 3, K: 4}, MaxLevel: 0},
		{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: MaxSolveLevel + 1},
	}
	for _, req := range bad {
		if _, err := e.Solve(context.Background(), req); err == nil {
			t.Fatalf("request %+v should be rejected", req)
		}
	}
}

// TestWarmSolveHitBuildsNoTask: a cached solve answer is returned without
// constructing the task. renaming procs=4 m=8 builds a 1,680-facet output
// complex (about 1.3 MB); a hit that built it, in validation or anywhere
// else, would allocate that much per request.
func TestWarmSolveHitBuildsNoTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	e := New(Options{})
	ctx := context.Background()
	for _, req := range []SolveRequest{
		{Spec: TaskSpec{Family: "renaming", Procs: 4, M: 8}, MaxLevel: 0},
		{Spec: TaskSpec{Family: "consensus", Procs: 4}, MaxLevel: 2},
		{Spec: TaskSpec{Family: "approx-agreement-n", Procs: 4, D: 8}, MaxLevel: 0, Model: "3-resilient"},
	} {
		if _, err := e.Solve(ctx, req); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const hits = 50
		for i := 0; i < hits; i++ {
			if _, err := e.Solve(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / hits; per > 2048 {
			t.Errorf("%s: %d bytes allocated per warm hit, want ≤ 2 KiB (was the task built?)", req.Spec.Canonical(), per)
		}
	}
}

// TestCertifiedSolveBuildsNoLevel: a certified query builds and searches
// no level. The service's heavy query, consensus-4p at b ≤ 2, is answered
// by its Sperner certificate, and consensus-3p at b ≤ 2 under 1-resilience
// and under 2-concurrency by a path certificate. Each response carries the
// level's sizes from the closed form and 0 nodes; each trace has one
// solver.obstruct span naming its certificate and no sds.subdivide or
// solver.search span. set-consensus-3p-2 at b = 2 and set-consensus-4p-3
// at b = 1, which exceed any search budget, answer too.
func TestCertifiedSolveBuildsNoLevel(t *testing.T) {
	e := New(Options{})
	for _, tc := range []struct {
		req              SolveRequest
		vertices, facets int
		certificate      string
	}{
		{SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 4}, MaxLevel: 2}, 15048, 90000, "sperner"},
		{SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 3}, MaxLevel: 2, Model: "1-resilient"}, 126, 128, "path"},
		{SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 3}, MaxLevel: 2, Model: "2-concurrency"}, 654, 1152, "path"},
	} {
		name := tc.req.Spec.Canonical() + "/" + tc.req.Model
		tr := obs.NewTrace()
		resp, err := e.Solve(obs.WithTrace(context.Background(), tr), tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Solvable || resp.Level != 2 || resp.Nodes != 0 || resp.SubdivisionVertices != tc.vertices || resp.SubdivisionFacets != tc.facets {
			t.Fatalf("%s b≤2: %+v", name, resp)
		}
		if resp.Verdict != "UNSOLVABLE for all b ≤ 2 (proven by exhaustion)" {
			t.Errorf("%s: verdict %q", name, resp.Verdict)
		}
		snap := tr.Snapshot()
		if spans := snap.Find("solver.obstruct"); len(spans) != 1 || spans[0].Ints["certified"] != 1 || spans[0].Strs["certificate"] != tc.certificate {
			t.Fatalf("%s: solver.obstruct spans: %+v", name, spans)
		}
		for _, span := range []string{"sds.subdivide", "solver.search"} {
			if n := len(snap.Find(span)); n != 0 {
				t.Errorf("%s: certified solve recorded %d %s spans", name, n, span)
			}
		}
	}
	for _, req := range []SolveRequest{
		{Spec: TaskSpec{Family: "set-consensus", Procs: 3, K: 2}, MaxLevel: 2},
		{Spec: TaskSpec{Family: "set-consensus", Procs: 4, K: 3}, MaxLevel: 1},
		{Spec: TaskSpec{Family: "set-consensus", Procs: 3, K: 2}, MaxLevel: 2, Model: "2-resilient"},
	} {
		resp, err := e.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("%s model=%q: %v", req.Spec.Canonical(), req.Model, err)
		}
		if resp.Solvable || resp.Nodes != 0 || resp.Level != req.MaxLevel {
			t.Errorf("%s model=%q: %+v", req.Spec.Canonical(), req.Model, resp)
		}
	}
}
