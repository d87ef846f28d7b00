package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"waitfree/internal/engine"
)

// decodeJSON drains and closes resp.Body into v.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// fakeClock is an injectable clock the breaker tests advance by hand, so
// window expiry and cooldown recovery are exact instead of sleep-flaky.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(o BreakerOptions) (*breaker, *fakeClock) {
	b := newBreaker(o)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(BreakerOptions{Threshold: 3, Window: time.Minute, Cooldown: time.Minute})
	b.RecordFailures(2)
	if b.Degraded() {
		t.Fatal("tripped below threshold")
	}
	b.RecordFailures(1)
	if !b.Degraded() {
		t.Fatal("did not trip at threshold")
	}
	if trips, _ := b.Counts(); trips != 1 {
		t.Fatalf("trips = %d, want 1", trips)
	}
}

func TestBreakerWindowForgets(t *testing.T) {
	b, clk := newTestBreaker(BreakerOptions{Threshold: 3, Window: 10 * time.Second, Cooldown: time.Minute})
	b.RecordFailures(2)
	clk.advance(11 * time.Second) // the two fall out of the window
	b.RecordFailures(2)
	if b.Degraded() {
		t.Fatal("stale failures outside the window must not count toward the threshold")
	}
}

func TestBreakerRecoversAfterQuietCooldown(t *testing.T) {
	b, clk := newTestBreaker(BreakerOptions{Threshold: 2, Window: time.Minute, Cooldown: 10 * time.Second})
	b.RecordFailures(2)
	if !b.Degraded() {
		t.Fatal("should be tripped")
	}
	clk.advance(5 * time.Second)
	if !b.Degraded() {
		t.Fatal("recovered before the cooldown elapsed")
	}
	// A failure mid-cooldown restarts the quiet period.
	b.RecordFailures(1)
	clk.advance(7 * time.Second)
	if !b.Degraded() {
		t.Fatal("a failure during cooldown must restart the quiet period")
	}
	clk.advance(4 * time.Second) // now 11s since the last failure
	if b.Degraded() {
		t.Fatal("should have recovered after a quiet cooldown")
	}
	if _, recoveries := b.Counts(); recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", recoveries)
	}
}

func TestBreakerCooldownRemaining(t *testing.T) {
	b, clk := newTestBreaker(BreakerOptions{Threshold: 1, Window: time.Minute, Cooldown: 10 * time.Second})
	if b.CooldownRemaining() != 0 {
		t.Fatal("untripped breaker has no cooldown")
	}
	b.RecordFailures(1)
	clk.advance(4 * time.Second)
	if rem := b.CooldownRemaining(); rem != 6*time.Second {
		t.Fatalf("CooldownRemaining = %v, want 6s", rem)
	}
}

// TestOverBudgetRejected400 pins the admission contract end to end: a query
// whose Lemma 3.3 estimate exceeds -maxcost is rejected 400 with the
// estimate and the budget as machine-readable body fields, and no Retry-After
// (retrying an over-budget query will never help).
func TestOverBudgetRejected400(t *testing.T) {
	eng := engine.New(engine.Options{})
	// The (3,3) chain costs 427576 facets; budget it out.
	s := NewServer(eng, Options{MaxCost: 100_000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/complex?n=3&b=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("over-budget 400 must not carry Retry-After, got %q", ra)
	}
	var body map[string]any
	if err := decodeJSON(resp, &body); err != nil {
		t.Fatal(err)
	}
	if got := body["estimated_cost"]; got != float64(427576) {
		t.Fatalf("estimated_cost = %v, want 427576 (the golden (3,3) chain)", got)
	}
	if got := body["max_cost"]; got != float64(100_000) {
		t.Fatalf("max_cost = %v, want 100000", got)
	}

	// An under-budget query on the same server serves normally.
	ok, err := http.Get(ts.URL + "/v1/complex?n=2&b=2")
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("under-budget query got %d, want 200", ok.StatusCode)
	}
}

// TestDegradedModeShedsButServesCachedAndCheap pins degraded-mode semantics:
// with the breaker tripped, expensive uncached queries get 503 + Retry-After,
// while cache hits and under-threshold queries still serve 200 — and /healthz
// reports "degraded", then "ok" again after the cooldown.
func TestDegradedModeShedsButServesCachedAndCheap(t *testing.T) {
	eng := engine.New(engine.Options{})
	s := NewServer(eng, Options{
		DegradedMaxCost: 100, // (1,2)=13 is cheap, (2,2)=183 and (2,3)=2380 are expensive
		Breaker:         BreakerOptions{Threshold: 1, Window: time.Minute, Cooldown: 50 * time.Millisecond},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the cache with the expensive query while healthy.
	warm, err := http.Get(ts.URL + "/v1/complex?n=2&b=3")
	if err != nil {
		t.Fatal(err)
	}
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warmup got %d", warm.StatusCode)
	}

	s.breaker.RecordFailures(1) // trip

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := get("/v1/complex?n=2&b=2"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expensive uncached query in degraded mode got %d, want 503", resp.StatusCode)
	} else if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("degraded 503 Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if resp := get("/v1/complex?n=2&b=3"); resp.StatusCode != http.StatusOK {
		t.Fatalf("cached query in degraded mode got %d, want 200 (cache hits always serve)", resp.StatusCode)
	}
	if resp := get("/v1/complex?n=1&b=2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("cheap query in degraded mode got %d, want 200", resp.StatusCode)
	}

	var hz map[string]any
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeJSON(resp, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "degraded" {
		t.Fatalf("healthz status = %v, want degraded", hz["status"])
	}
	if hz["breaker_trips"] != float64(1) {
		t.Fatalf("breaker_trips = %v, want 1", hz["breaker_trips"])
	}

	// After a quiet cooldown the breaker recovers and expensive queries serve.
	time.Sleep(80 * time.Millisecond)
	if resp := get("/v1/complex?n=2&b=2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery query got %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeJSON(resp, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" {
		t.Fatalf("healthz status after cooldown = %v, want ok", hz["status"])
	}
	if hz["breaker_recoveries"] != float64(1) {
		t.Fatalf("breaker_recoveries = %v, want 1", hz["breaker_recoveries"])
	}
}

// TestConvergeNoMapIsAnAnswer: a converge query whose max_k is below its
// target is answered 200 with a proof that no map exists, cached like any
// answer, so repeating it neither recomputes it nor trips the breaker. At
// the parent each of these answered 500, and five of them tripped the
// breaker for every client.
func TestConvergeNoMapIsAnAnswer(t *testing.T) {
	s, ts := newTestServer(t, engine.Options{}, Options{})
	queries := []struct{ n, target, maxk int }{{1, 1, 0}, {2, 1, 0}, {1, 2, 0}, {2, 2, 0}, {1, 2, 1}, {2, 2, 1}}
	for _, q := range queries {
		path := fmt.Sprintf("/v1/converge?n=%d&target=%d&maxk=%d", q.n, q.target, q.maxk)
		for i := 0; i <= DefaultBreakerThreshold; i++ {
			code, body := get(t, ts.URL+path)
			var resp engine.ConvergeResponse
			if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
				t.Fatalf("%s, request %d: %d %s", path, i+1, code, body)
			}
			if !resp.NoMap || resp.K != q.maxk || resp.Simplicial {
				t.Fatalf("%s: %s; want no map up to k = %d", path, body, q.maxk)
			}
		}
	}
	var hz map[string]any
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeJSON(resp, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["breaker_trips"] != float64(0) {
		t.Errorf("healthz status = %v, breaker_trips = %v; want ok, 0", hz["status"], hz["breaker_trips"])
	}
	if misses := s.eng.Metrics().CacheMisses.Load(); misses != int64(len(queries)) {
		t.Errorf("cache_misses = %d, want one per query (%d)", misses, len(queries))
	}
}
