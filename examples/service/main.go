// The service example reproduces the E6 verdict table over HTTP: it starts
// an in-process engine server (or points at one you already launched with
// `wfrepro serve -addr ...`), asks /v1/solve for the three headline tasks —
// consensus, 2-set consensus, ε-agreement — twice each, and shows the
// content-addressed cache turning the second round of questions into hits.
//
//	go run ./examples/service            # self-hosted, ephemeral port
//	go run ./examples/service -addr localhost:8080
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"waitfree/internal/engine"
	"waitfree/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "address of a running `wfrepro serve` (empty = start one in-process)")
	flag.Parse()

	base := "http://" + *addr
	if *addr == "" {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s := serve.NewServer(engine.New(engine.Options{}), serve.Options{})
		ready := make(chan string, 1)
		go func() {
			if err := serve.Run(ctx, "127.0.0.1:0", s, ready); err != nil {
				log.Fatal(err)
			}
		}()
		base = "http://" + <-ready
		fmt.Printf("started in-process service at %s\n\n", base)
	}

	queries := []struct {
		label string
		path  string
	}{
		{"consensus (2 procs)", "/v1/solve?family=consensus&procs=2&maxb=2"},
		{"2-set consensus (3 procs)", "/v1/solve?family=set-consensus&procs=3&k=2&maxb=1"},
		{"ε-agreement (ε = 1/2)", "/v1/solve?family=approx-agreement&d=2&maxb=2"},
	}

	fmt.Println("E6 verdict table via /v1/solve (cold, then warm):")
	for round := 1; round <= 2; round++ {
		for _, q := range queries {
			start := time.Now()
			var resp engine.SolveResponse
			getJSON(base+q.path, &resp)
			fmt.Printf("  [round %d] %-28s %-46s %8s\n", round, q.label, resp.Verdict, time.Since(start).Round(time.Microsecond))
		}
	}

	var metrics map[string]any
	getJSON(base+"/metrics", &metrics)
	fmt.Printf("\ncache after both rounds: hits=%v misses=%v deduped=%v\n",
		metrics["cache_hits"], metrics["cache_misses"], metrics["deduped"])
	fmt.Println("the warm round answered every query from the content-addressed store.")
}

func getJSON(url string, v any) {
	body, err := fetchWithRetry(http.DefaultClient, url, maxAttempts,
		time.Sleep, rand.New(rand.NewSource(time.Now().UnixNano())))
	if err != nil {
		log.Fatal(err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		log.Fatalf("%s: %v", url, err)
	}
}

// Retry policy: the service sheds load with 429 (+ Retry-After) when it is
// at capacity, and with 503 (+ Retry-After) when it is in degraded mode or
// its deadline expired; those conditions clear on their own — exactly the
// failures worth retrying. 4xx (other than 429) means the query itself is
// wrong and retrying cannot help.
const (
	maxAttempts = 5
	baseDelay   = 100 * time.Millisecond
	maxDelay    = 5 * time.Second
)

// fetchWithRetry GETs url, retrying 429/503 responses and transport errors
// with full-jitter exponential backoff, honoring the server's Retry-After
// hint when present. sleep and rng are parameters so tests can observe the
// chosen delays without waiting them out.
func fetchWithRetry(c *http.Client, url string, attempts int, sleep func(time.Duration), rng *rand.Rand) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			sleep(backoffDelay(attempt-1, lastErr, rng))
		}
		resp, err := c.Get(url)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return body, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			lastErr = &retryableError{
				status:     resp.StatusCode,
				retryAfter: resp.Header.Get("Retry-After"),
				body:       string(body),
			}
		default:
			return nil, fmt.Errorf("%s: %d %s", url, resp.StatusCode, body)
		}
	}
	return nil, fmt.Errorf("%s: giving up after %d attempts: %w", url, attempts, lastErr)
}

// retryableError carries the pieces of a 429/503 the backoff needs.
type retryableError struct {
	status     int
	retryAfter string
	body       string
}

func (e *retryableError) Error() string {
	return fmt.Sprintf("%d %s", e.status, e.body)
}

// backoffDelay picks the wait before retry number attempt+1. A Retry-After
// hint from the server wins (it knows its queue and cooldown); otherwise
// full-jitter exponential backoff — uniform in (0, base·2^attempt] — so a
// herd of rejected clients decorrelates instead of returning in lockstep.
// Either way the delay is capped at maxDelay.
func backoffDelay(attempt int, lastErr error, rng *rand.Rand) time.Duration {
	if re, ok := lastErr.(*retryableError); ok {
		if s, err := strconv.Atoi(re.retryAfter); err == nil && s > 0 {
			d := time.Duration(s) * time.Second
			if d > maxDelay {
				d = maxDelay
			}
			return d
		}
	}
	ceil := baseDelay
	for i := 0; i < attempt && ceil < maxDelay; i++ {
		ceil *= 2
	}
	if ceil > maxDelay {
		ceil = maxDelay
	}
	return time.Duration(rng.Int63n(int64(ceil))) + time.Millisecond
}
