package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"waitfree/internal/engine"
)

func newTestServer(t *testing.T, eo engine.Options, so Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(engine.New(eo), so)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, engine.Options{}, Options{})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m["status"] != "ok" {
		t.Fatalf("healthz body: %s", body)
	}
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, engine.Options{}, Options{})
	code, body := get(t, ts.URL+"/v1/solve?family=consensus&procs=2&maxb=1")
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, body)
	}
	var resp engine.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Solvable || resp.Level != 1 {
		t.Fatalf("consensus must be unsolvable through b=1: %+v", resp)
	}
	if !strings.Contains(resp.Verdict, "UNSOLVABLE") {
		t.Fatalf("verdict: %q", resp.Verdict)
	}
}

func TestEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, engine.Options{}, Options{})
	for _, path := range []string{
		"/v1/solve",                 // missing family
		"/v1/solve?family=nonsense", // unknown family
		"/v1/solve?family=consensus&procs=2&maxb=99",       // level out of range
		"/v1/solve?family=consensus&procs=banana",          // non-integer
		"/v1/complex?n=3&b=3",                              // explosive
		"/v1/converge?n=7",                                 // out of range
		"/v1/adversary",                                    // missing algo
		"/v1/adversary?algo=commitadopt&procs=2&crash=0,0", // all-crash vector
	} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusBadRequest {
			t.Errorf("%s: got %d (%s), want 400", path, code, body)
		}
		var m map[string]string
		if err := json.Unmarshal(body, &m); err != nil || m["error"] == "" {
			t.Errorf("%s: error body not JSON: %s", path, body)
		}
	}
}

func TestComplexConvergeAdversaryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, engine.Options{}, Options{})

	code, body := get(t, ts.URL+"/v1/complex?n=2&b=1")
	if code != http.StatusOK {
		t.Fatalf("complex: %d %s", code, body)
	}
	var cx engine.ComplexResponse
	if err := json.Unmarshal(body, &cx); err != nil {
		t.Fatal(err)
	}
	if cx.Facets != 13 || cx.Hash == "" {
		t.Fatalf("SDS(s2): %+v", cx)
	}

	code, body = get(t, ts.URL+"/v1/converge?n=1&target=1&maxk=2")
	if code != http.StatusOK {
		t.Fatalf("converge: %d %s", code, body)
	}
	var cv engine.ConvergeResponse
	if err := json.Unmarshal(body, &cv); err != nil {
		t.Fatal(err)
	}
	if !cv.Simplicial || !cv.ColorPreserving || !cv.CarrierRespecting {
		t.Fatalf("converge: %+v", cv)
	}

	code, body = get(t, ts.URL+"/v1/adversary?algo=commitadopt&adversary=random&seed=7&procs=3&crash=2,-1,-1")
	if code != http.StatusOK {
		t.Fatalf("adversary: %d %s", code, body)
	}
	var adv engine.AdversaryResponse
	if err := json.Unmarshal(body, &adv); err != nil {
		t.Fatal(err)
	}
	if !adv.WaitFree || adv.TotalSteps == 0 || len(adv.Statuses) != 3 {
		t.Fatalf("adversary: %+v", adv)
	}
}

// TestAdversaryStepBudgetIsBounded: a replay's step budget is admitted
// only inside [0, sched.DefaultMaxSteps]. A negative budget is unlimited to
// the scheduler, and a replay ignores its context, so an admitted one would
// spin a core for the life of the process after its client gave up. The
// client deadline keeps this test from hanging where the bound is missing.
func TestAdversaryStepBudgetIsBounded(t *testing.T) {
	_, ts := newTestServer(t, engine.Options{}, Options{Timeout: time.Second})
	client := &http.Client{Timeout: 5 * time.Second}
	query := ts.URL + "/v1/adversary?algo=setconsensus&adversary=solo-0&maxsteps="
	for _, steps := range []string{"-1", "1099511627776"} {
		resp, err := client.Get(query + steps)
		if err != nil {
			t.Fatalf("maxsteps=%s: %v", steps, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("maxsteps=%s: status %d, want 400", steps, resp.StatusCode)
		}
	}
	resp, err := client.Get(query + "2000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"wait_free":false`) {
		t.Fatalf("maxsteps=2000: status %d, body %s; want 200 with wait_free false", resp.StatusCode, body)
	}
}

// TestConcurrentMixedLoad is the acceptance check: 100 concurrent mixed
// queries against one server, all answers correct, dedup/caching visible in
// the metrics afterwards.
func TestConcurrentMixedLoad(t *testing.T) {
	s, ts := newTestServer(t, engine.Options{}, Options{MaxConcurrent: 16})

	type query struct {
		path string
		// check validates the body; empty verdict means skip.
		wantSolvable *bool
	}
	tru, fls := true, false
	queries := []query{
		{"/v1/solve?family=consensus&procs=2&maxb=1", &fls},
		{"/v1/solve?family=set-consensus&procs=3&k=3&maxb=0", &tru},
		{"/v1/solve?family=approx-agreement&d=2&maxb=2", &tru},
		{"/v1/complex?n=2&b=1", nil},
		{"/v1/converge?n=1&target=1&maxk=2", nil},
		{"/v1/adversary?algo=commitadopt&adversary=random&seed=42&procs=3", nil},
	}

	const total = 100
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		q := queries[i%len(queries)]
		wg.Add(1)
		go func(i int, q query) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + q.path)
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: %d %s", q.path, resp.StatusCode, body)
				return
			}
			if q.wantSolvable != nil {
				var sr engine.SolveResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					errs <- fmt.Errorf("%s: %v", q.path, err)
					return
				}
				if sr.Solvable != *q.wantSolvable {
					errs <- fmt.Errorf("%s: solvable=%v, want %v", q.path, sr.Solvable, *q.wantSolvable)
				}
			}
		}(i, q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.Engine().Metrics()
	hits, misses, deduped := m.CacheHits.Load(), m.CacheMisses.Load(), m.Deduped.Load()
	if misses != int64(len(queries)) {
		t.Errorf("each distinct query should compute once: misses=%d, want %d", misses, len(queries))
	}
	if hits+deduped != total-int64(len(queries)) {
		t.Errorf("the rest should hit or dedup: hits=%d deduped=%d, want sum %d", hits, deduped, total-len(queries))
	}
	if hits == 0 {
		t.Error("expected non-zero cache hits under repeated load")
	}

	// /metrics reflects the same counters.
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap["cache_hits"].(float64) != float64(hits) {
		t.Errorf("metrics cache_hits=%v, engine says %d", snap["cache_hits"], hits)
	}
	if _, ok := snap["latency_http_solve"]; !ok {
		t.Error("missing latency histogram for the solve endpoint")
	}
}

// TestCapacityRejection pins the limiter: with the only slot held, a caller
// that outlasts the grace period is rejected 429 — load-shedding, distinct
// from the 503s the breaker and deadline paths emit — and the slot's
// release restores service.
func TestCapacityRejection(t *testing.T) {
	s, ts := newTestServer(t, engine.Options{}, Options{MaxConcurrent: 1, Timeout: 200 * time.Millisecond})
	s.sem <- struct{}{} // occupy the only slot
	code, body := get(t, ts.URL+"/v1/complex?n=1&b=1")
	if code != http.StatusTooManyRequests {
		t.Fatalf("with the slot held, got %d %s, want 429", code, body)
	}
	if got := s.Engine().Metrics().Rejected.Load(); got != 1 {
		t.Errorf("Rejected gauge %d, want 1", got)
	}
	<-s.sem
	if code, _ := get(t, ts.URL+"/v1/complex?n=1&b=1"); code != http.StatusOK {
		t.Fatalf("after release, got %d, want 200", code)
	}
}

// TestGracefulRun exercises Run: bind :0, query it, cancel, drain.
func TestGracefulRun(t *testing.T) {
	s := NewServer(engine.New(engine.Options{}), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- Run(ctx, "127.0.0.1:0", s, ready) }()
	addr := <-ready
	code, _ := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz over Run: %d", code)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain")
	}
}
