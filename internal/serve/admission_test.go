package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"

	"waitfree/internal/engine"
)

// TestOverBudgetAnsweredBeforeSlot pins the order of the admission step:
// the Lemma 3.3 cost check runs before the slot check, so an over-budget
// query is told 400 with its estimate at once, even while every slot is
// held, and it is not counted as a capacity rejection.
func TestOverBudgetAnsweredBeforeSlot(t *testing.T) {
	timeout := 400 * time.Millisecond
	s, ts := newTestServer(t, engine.Options{}, Options{MaxConcurrent: 1, Timeout: timeout, MaxCost: 100_000})
	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()

	began := time.Now()
	code, body := get(t, ts.URL+"/v1/complex?n=3&b=3")
	if waited := time.Since(began); waited >= timeout/2 {
		t.Errorf("over-budget query waited %v, as long as a queued one (%v)", waited, timeout/2)
	}
	if code != http.StatusBadRequest {
		t.Fatalf("over-budget query with the slot held: %d %s, want 400", code, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m["estimated_cost"] != float64(427576) {
		t.Errorf("estimated_cost = %v, want 427576 (the golden (3,3) chain)", m["estimated_cost"])
	}
	if got := s.Engine().Metrics().Rejected.Load(); got != 0 {
		t.Errorf("Rejected = %d, want 0: a 400 is not a capacity shed", got)
	}
}

// TestHealthzSkipsAdmission: /healthz is not a query, so it answers while
// every slot is held and reports the queue it cannot join.
func TestHealthzSkipsAdmission(t *testing.T) {
	s, ts := newTestServer(t, engine.Options{}, Options{MaxConcurrent: 1, Timeout: 10 * time.Second})
	s.sem <- struct{}{} // occupy the only slot
	queued := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/complex?n=1&b=1")
		if err != nil {
			queued <- 0
			return
		}
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	for wait := time.Now().Add(5 * time.Second); s.Engine().Metrics().QueueDepth.Load() == 0; {
		if time.Now().After(wait) {
			t.Fatal("the query never queued for the held slot")
		}
		time.Sleep(time.Millisecond)
	}

	code, body := get(t, ts.URL+"/healthz")
	<-s.sem // let the queued query through
	if code != http.StatusOK {
		t.Fatalf("healthz with every slot held: %d %s, want 200", code, body)
	}
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "overloaded" {
		t.Errorf("healthz status = %v, want overloaded", hz["status"])
	}
	if code := <-queued; code != http.StatusOK {
		t.Errorf("the queued query got %d once the slot freed, want 200", code)
	}
}

// TestForwardedRetryAfterVerbatim: a non-owner relays the owner's shed
// whole. The owner is degraded and sheds every uncached query, so its
// Retry-After is its breaker's remaining cooldown; the relayed response
// must carry that hint, not one the relaying node computes from its own
// (healthy) state.
func TestForwardedRetryAfterVerbatim(t *testing.T) {
	nodes := bootCluster(t, 3)
	q := clusterQueries()[3] // complex n=2 b=2, cold everywhere
	owner, others := nodeFor(t, nodes, q.key)
	owner.s.degCost = -1 // degraded = cache hits only
	owner.s.breaker.RecordFailures(DefaultBreakerThreshold)

	ceilSeconds := func(d time.Duration) int { return int(math.Ceil(d.Seconds())) }
	hi := ceilSeconds(owner.s.breaker.CooldownRemaining())
	resp, err := http.Get(others[0].url + q.path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	lo := ceilSeconds(owner.s.breaker.CooldownRemaining())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query relayed from a degraded owner: %d, want the owner's 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < lo || ra > hi {
		t.Fatalf("relayed Retry-After = %q, want the owner's cooldown hint in [%d, %d]",
			resp.Header.Get("Retry-After"), lo, hi)
	}
	if got := counter(others[0], "cluster_forwarded_total"); got != 1 {
		t.Errorf("cluster_forwarded_total = %d, want 1 (the shed must come from the owner)", got)
	}
}
