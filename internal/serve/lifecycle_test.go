package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"waitfree/internal/engine"
	"waitfree/internal/solver"
)

// expensivePath searches for seconds (2-set consensus for 4 processes under
// 3-set memory at b=1: the model keeps 23 of the 75 ordered partitions, so
// no Sperner certificate applies, and the search runs past 3M nodes) with a
// budget big enough that only cancellation or a deadline can stop it early.
const expensivePath = "/v1/solve?family=set-consensus&procs=4&k=2&model=3-set&maxb=1&maxnodes=500000000"

// TestParamValidation is the table-driven 400 sweep: negative or out-of-
// range numeric parameters on every endpoint are rejected at the door.
func TestParamValidation(t *testing.T) {
	_, ts := newTestServer(t, engine.Options{}, Options{})
	for _, path := range []string{
		"/v1/solve?family=consensus&procs=-1",
		"/v1/solve?family=consensus&procs=2&maxb=-1",
		"/v1/solve?family=consensus&procs=2&maxnodes=-5",
		"/v1/solve?family=consensus&procs=2&k=-2",
		"/v1/solve?family=consensus&procs=2&d=-1",
		"/v1/solve?family=consensus&procs=2&m=-1",
		"/v1/solve?family=consensus&procs=9999999",
		"/v1/complex?n=-1&b=-1",
		"/v1/complex?n=2&b=-3",
		"/v1/converge?n=-1",
		"/v1/converge?n=1&target=-1",
		"/v1/converge?n=1&target=1&maxk=-2",
		"/v1/adversary?algo=commitadopt&procs=-3",
		"/v1/adversary?algo=commitadopt&procs=0",
		"/v1/adversary?algo=commitadopt&procs=3&seed=banana",
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

// TestClientDisconnectCancelsSearch is the end-to-end acceptance check: a
// client that walks away mid-search stops the computation within 250ms,
// bumps the canceled counter, caches no verdict, and leaves no goroutine
// stuck in the dedup layer.
func TestClientDisconnectCancelsSearch(t *testing.T) {
	s, ts := newTestServer(t, engine.Options{}, Options{Timeout: time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+expensivePath, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	time.Sleep(100 * time.Millisecond) // let the search get going
	canceledAt := time.Now()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client request: got %v, want context.Canceled", err)
	}

	// The engine notices within one checkpoint interval: the canceled
	// counter goes up and the in-flight gauge drains.
	m := s.Engine().Metrics()
	deadline := canceledAt.Add(250 * time.Millisecond)
	for m.Canceled.Load() == 0 || m.InFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("search still running 250ms after disconnect: canceled=%d in_flight=%d",
				m.Canceled.Load(), m.InFlight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No partial verdict was cached for the abandoned query.
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap["canceled"].(float64) < 1 {
		t.Fatalf("metrics canceled=%v, want ≥ 1", snap["canceled"])
	}
	if got := s.Engine().Metrics().CacheHits.Load(); got != 0 {
		t.Fatalf("abandoned query should not produce hits, got %d", got)
	}

	// Nobody is left blocked in the dedup layer: no goroutine has a
	// flightGroup frame once the abandoned flight is reclaimed. (A raw
	// goroutine-count comparison would false-positive on idle HTTP
	// keep-alive goroutines.)
	settled := false
	for wait := time.Now().Add(2 * time.Second); time.Now().Before(wait); {
		if !strings.Contains(goroutineStacks(), "flightGroup") {
			settled = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !settled {
		t.Fatalf("a goroutine is still parked in flightGroup:\n%s", goroutineStacks())
	}
}

// goroutineStacks dumps every goroutine's stack.
func goroutineStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// TestServerTimeoutReturns503 pins the deadline path: the per-request
// timeout surfaces to the client as 503 (the server gave up, the client is
// still there) and the abandoned search is counted canceled.
func TestServerTimeoutReturns503(t *testing.T) {
	s, ts := newTestServer(t, engine.Options{}, Options{Timeout: 150 * time.Millisecond})
	resp, err := http.Get(ts.URL + expensivePath)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out query: got %d (%s), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "timed out") {
		t.Fatalf("timeout body: %s", body)
	}
	m := s.Engine().Metrics()
	for wait := time.Now().Add(2 * time.Second); ; {
		if m.Canceled.Load() >= 1 && m.InFlight.Load() == 0 {
			break
		}
		if time.Now().After(wait) {
			t.Fatalf("timed-out search not reclaimed: canceled=%d in_flight=%d",
				m.Canceled.Load(), m.InFlight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetryAfterOn503 pins the Retry-After contract: every retryable
// rejection the server emits — 429 capacity sheds from the slot check AND
// deadline 503s — carries a Retry-After header holding an integer number of
// seconds in [1, 60], derived from queue depth × recent p50. Both come from
// the outcome table, so the deadline path is checked like any other.
func TestRetryAfterOn503(t *testing.T) {
	checkRetryAfter := func(t *testing.T, resp *http.Response) {
		t.Helper()
		ra := resp.Header.Get("Retry-After")
		sec, err := strconv.Atoi(ra)
		if err != nil || sec < 1 || sec > 60 {
			t.Fatalf("503 Retry-After = %q, want an integer in [1,60]", ra)
		}
	}

	t.Run("capacity", func(t *testing.T) {
		s, ts := newTestServer(t, engine.Options{}, Options{MaxConcurrent: 1, Timeout: 200 * time.Millisecond})
		s.sem <- struct{}{} // occupy the only slot
		defer func() { <-s.sem }()
		resp, err := http.Get(ts.URL + "/v1/complex?n=1&b=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("got %d, want 429 (capacity is load-shedding, not a server fault)", resp.StatusCode)
		}
		checkRetryAfter(t, resp)
	})

	t.Run("timeout", func(t *testing.T) {
		_, ts := newTestServer(t, engine.Options{}, Options{Timeout: 150 * time.Millisecond})
		resp, err := http.Get(ts.URL + expensivePath)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("got %d, want 503", resp.StatusCode)
		}
		checkRetryAfter(t, resp)
	})

	t.Run("success has none", func(t *testing.T) {
		_, ts := newTestServer(t, engine.Options{}, Options{})
		resp, err := http.Get(ts.URL + "/v1/complex?n=1&b=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("got %d, want 200", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Fatalf("200 must not carry Retry-After, got %q", ra)
		}
	})
}

// TestStatusForTaxonomy pins the outcome table directly: for each error
// class, the status, whether the response carries Retry-After, and whether
// the failure feeds the breaker.
func TestStatusForTaxonomy(t *testing.T) {
	overBudget := &costError{estimated: 427576, budget: 100_000, err: engine.ErrOverBudget}
	shed := &costError{estimated: 183, budget: 100, err: ErrDegraded}
	cases := []struct {
		err       error
		want      int
		wantRetry bool
		wantFeed  bool
	}{
		{engine.ErrInvalid, http.StatusBadRequest, false, false},
		{overBudget, http.StatusBadRequest, false, false},
		{errAtCapacity, http.StatusTooManyRequests, true, true},
		{shed, http.StatusServiceUnavailable, true, false},
		{context.DeadlineExceeded, http.StatusServiceUnavailable, true, true},
		{errTimedOut, http.StatusServiceUnavailable, true, true},
		{engine.ErrCanceled, StatusClientClosedRequest, false, false},
		{context.Canceled, StatusClientClosedRequest, false, false},
		{fmt.Errorf("level 0: %w", solver.ErrBudget), http.StatusServiceUnavailable, true, true},
		{errors.New("mystery"), http.StatusInternalServerError, false, true},
	}
	for _, tc := range cases {
		got := statusFor(tc.err)
		if got.status != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got.status, tc.want)
		}
		if got.retryAfter != tc.wantRetry {
			t.Errorf("statusFor(%v) Retry-After = %v, want %v", tc.err, got.retryAfter, tc.wantRetry)
		}
		if got.feedsBreaker != tc.wantFeed {
			t.Errorf("statusFor(%v) feeds the breaker = %v, want %v", tc.err, got.feedsBreaker, tc.wantFeed)
		}
	}
	// A deadline wrapped by the engine's cancellation must still read as a
	// server-side timeout, not a client disconnect.
	wrapped := engine.ErrCanceled
	both := errorsJoin(wrapped, context.DeadlineExceeded)
	if got := statusFor(both); got.status != http.StatusServiceUnavailable {
		t.Errorf("statusFor(ErrCanceled+DeadlineExceeded) = %d, want 503", got.status)
	}
}

// errorsJoin keeps the test readable on one line.
func errorsJoin(errs ...error) error { return errors.Join(errs...) }

// TestRunListenError pins Run's failure path: an unbindable address returns
// the listen error instead of hanging.
func TestRunListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s := NewServer(engine.New(engine.Options{}), Options{})
	done := make(chan error, 1)
	go func() { done <- Run(context.Background(), ln.Addr().String(), s, nil) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("binding an occupied port should fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return on a listen error")
	}
}
