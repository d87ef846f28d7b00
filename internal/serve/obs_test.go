package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"waitfree/internal/engine"
	"waitfree/internal/obs"
)

// TestTraceHeaderAndRegistry pins the end-to-end tracing contract: every
// /v1/* response carries an X-Trace-Id whose span tree is retrievable from
// /debug/traces, has at least four spans, and whose solver.search /
// sds.subdivide attributes equal the deterministic counts in the JSON
// response body — the trace is checkable against the answer, not merely
// decorative.
func TestTraceHeaderAndRegistry(t *testing.T) {
	_, ts := newTestServer(t, engine.Options{}, Options{})

	// Approximate agreement has no Sperner certificate, so both levels are
	// built and searched.
	resp, err := http.Get(ts.URL + "/v1/solve?family=approx-agreement&d=2&maxb=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-Trace-Id header on /v1/solve response")
	}
	var sr engine.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	status, tbody := get(t, ts.URL+"/debug/traces?id="+traceID)
	if status != http.StatusOK {
		t.Fatalf("/debug/traces?id=%s: status %d: %s", traceID, status, tbody)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal(tbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != traceID {
		t.Fatalf("registry returned trace %q, asked for %q", snap.ID, traceID)
	}
	if len(snap.Spans) < 4 {
		t.Fatalf("trace has %d spans, want >= 4: %+v", len(snap.Spans), snap.Spans)
	}

	root := snap.Spans[0]
	if root.Name != "http.solve" || root.Parent != -1 {
		t.Fatalf("first span should be the http.solve root, got %+v", root)
	}
	if root.Ints["status"] != http.StatusOK {
		t.Errorf("root status attr = %d, want 200", root.Ints["status"])
	}

	searches := snap.Find("solver.search")
	if len(searches) != sr.MaxLevel+1 {
		t.Fatalf("%d solver.search spans, want %d (levels 0..maxb)", len(searches), sr.MaxLevel+1)
	}
	last := searches[len(searches)-1]
	if last.Ints["nodes"] != sr.Nodes {
		t.Errorf("solver.search nodes attr = %d, response nodes = %d", last.Ints["nodes"], sr.Nodes)
	}
	if last.Ints["facets"] != int64(sr.SubdivisionFacets) {
		t.Errorf("solver.search facets attr = %d, response facets = %d", last.Ints["facets"], sr.SubdivisionFacets)
	}

	subs := snap.Find("sds.subdivide")
	if len(subs) != 1 {
		t.Fatalf("%d sds.subdivide spans, want 1", len(subs))
	}
	if subs[0].Ints["facets_out"] != int64(sr.SubdivisionFacets) ||
		subs[0].Ints["vertices_out"] != int64(sr.SubdivisionVertices) {
		t.Errorf("sds.subdivide reports facets=%d vertices=%d, response says %d/%d",
			subs[0].Ints["facets_out"], subs[0].Ints["vertices_out"],
			sr.SubdivisionFacets, sr.SubdivisionVertices)
	}

	// The list view surfaces the same trace; an unknown id is a 404.
	status, lbody := get(t, ts.URL+"/debug/traces")
	if status != http.StatusOK || !bytes.Contains(lbody, []byte(traceID)) {
		t.Errorf("/debug/traces list (status %d) does not mention %s", status, traceID)
	}
	if status, _ := get(t, ts.URL+"/debug/traces?id=doesnotexist"); status != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", status)
	}
}

// TestMetricsContract pins the instrument() invariant on every outcome
// class: each /v1/* request increments exactly one requests_total_<endpoint>
// counter, exactly one http_status_<endpoint>_<code> counter, and exactly
// one latency observation — in the success histogram for 200s and in the
// _error histogram for everything else. Admission rejections count too.
func TestMetricsContract(t *testing.T) {
	// A 1 s deadline keeps the capacity row's slot wait (Timeout/2) short.
	s, ts := newTestServer(t, engine.Options{}, Options{Timeout: time.Second})
	m := s.Engine().Metrics()

	cases := []struct {
		name       string
		endpoint   string
		path       string // empty → direct dispatch with canceled context
		wantStatus int    // 429 → every worker slot is held while the request runs
	}{
		{"complex ok", "complex", "/v1/complex?n=1&b=1", http.StatusOK},
		{"adversary ok", "adversary", "/v1/adversary?algo=commitadopt&procs=3&seed=42", http.StatusOK},
		{"converge ok", "converge", "/v1/converge?n=1&target=1&maxk=2", http.StatusOK},
		{"bad param", "complex", "/v1/complex?n=99", http.StatusBadRequest},
		// Consensus and wait-free set consensus no longer work here: a
		// Sperner certificate answers them before any search, so no budget
		// can be exhausted. Under 3-set memory the certificate does not
		// apply, and 2-set consensus for 4 processes burns nodes at level 0.
		{"budget exhausted", "solve", "/v1/solve?family=set-consensus&procs=4&k=2&model=3-set&maxb=0&maxnodes=1", http.StatusServiceUnavailable},
		{"client gone", "solve", "", StatusClientClosedRequest},
		{"capacity", "complex", "/v1/complex?n=1&b=1", http.StatusTooManyRequests},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep := tc.endpoint
			beforeTotal := m.Counter("requests_total_" + ep)
			beforeStatus := m.Counter(fmt.Sprintf("http_status_%s_%d", ep, tc.wantStatus))
			beforeOK := m.HistCount("http_" + ep)
			beforeErr := m.HistCount("http_" + ep + "_error")

			if tc.wantStatus == http.StatusTooManyRequests {
				for i := 0; i < cap(s.sem); i++ {
					s.sem <- struct{}{}
				}
				defer func() {
					for i := 0; i < cap(s.sem); i++ {
						<-s.sem
					}
				}()
			}
			var gotStatus int
			if tc.path != "" {
				gotStatus, _ = get(t, ts.URL+tc.path)
			} else {
				// The 499 path: a request whose client has already gone away.
				// Dispatch straight into the handler so the run is synchronous
				// and the metrics are settled when we read them.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				r := httptest.NewRequest("GET", "/v1/solve?family=consensus&procs=2&maxb=1", nil).WithContext(ctx)
				w := httptest.NewRecorder()
				s.handleSolve(w, r)
				gotStatus = w.Code
			}
			if gotStatus != tc.wantStatus {
				t.Fatalf("status %d, want %d", gotStatus, tc.wantStatus)
			}

			if d := m.Counter("requests_total_"+ep) - beforeTotal; d != 1 {
				t.Errorf("requests_total_%s moved by %d, want 1", ep, d)
			}
			if d := m.Counter(fmt.Sprintf("http_status_%s_%d", ep, tc.wantStatus)) - beforeStatus; d != 1 {
				t.Errorf("http_status_%s_%d moved by %d, want 1", ep, tc.wantStatus, d)
			}
			dOK := m.HistCount("http_"+ep) - beforeOK
			dErr := m.HistCount("http_"+ep+"_error") - beforeErr
			if dOK+dErr != 1 {
				t.Errorf("histogram observations moved by %d (ok %d, error %d), want exactly 1", dOK+dErr, dOK, dErr)
			}
			if tc.wantStatus == http.StatusOK && dOK != 1 {
				t.Errorf("success request observed ok=%d error=%d, want the success histogram", dOK, dErr)
			}
			if tc.wantStatus != http.StatusOK && dErr != 1 {
				t.Errorf("failed request observed ok=%d error=%d, want the error histogram", dOK, dErr)
			}
		})
	}
}

// TestSlowLogEmitsReproLine: with a zero-ish threshold every request is
// "slow"; the record must carry the trace id and the exact wfrepro CLI line
// that replays the query.
func TestSlowLogEmitsReproLine(t *testing.T) {
	var buf bytes.Buffer
	s, _ := newTestServer(t, engine.Options{}, Options{
		SlowLog: time.Nanosecond,
		Logger:  slog.New(slog.NewTextHandler(&buf, nil)),
	})

	r := httptest.NewRequest("GET", "/v1/solve?family=consensus&procs=2&maxb=1", nil)
	w := httptest.NewRecorder()
	s.handleSolve(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}

	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query record emitted:\n%s", out)
	}
	if id := w.Header().Get("X-Trace-Id"); id == "" || !strings.Contains(out, id) {
		t.Errorf("record does not carry the trace id %q:\n%s", id, out)
	}
	// Flags are sorted by query-parameter name, so the line is deterministic.
	want := "wfrepro solve -json -family=consensus -maxb=1 -procs=2"
	if !strings.Contains(out, want) {
		t.Errorf("record lacks repro line %q:\n%s", want, out)
	}
}

// TestReproCommandRenames: the adversary endpoint's HTTP parameter names
// differ from the CLI flag names (adversary→adv, procs→n); the repro line
// must speak CLI.
func TestReproCommandRenames(t *testing.T) {
	r := httptest.NewRequest("GET", "/v1/adversary?algo=commitadopt&adversary=random&procs=3&seed=42&crash=2,-1,-1", nil)
	got := reproCommand("adversary", r)
	want := "wfrepro adversary -json -adv=random -algo=commitadopt -crash=2,-1,-1 -n=3 -seed=42"
	if got != want {
		t.Errorf("reproCommand:\n got %q\nwant %q", got, want)
	}
}

// TestPprofGate: /debug/pprof is absent by default and mounted only when
// EnablePprof is set.
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, engine.Options{}, Options{})
	if status, _ := get(t, off.URL+"/debug/pprof/"); status != http.StatusNotFound {
		t.Errorf("pprof reachable without the flag: status %d", status)
	}
	_, on := newTestServer(t, engine.Options{}, Options{EnablePprof: true})
	if status, _ := get(t, on.URL+"/debug/pprof/"); status != http.StatusOK {
		t.Errorf("pprof index with the flag on: status %d, want 200", status)
	}
}
