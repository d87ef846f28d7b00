// Package serve is the HTTP layer over the engine: a stdlib-only JSON API
// exposing the solvability checker, subdivision enumerator, Theorem 5.1
// convergence search, and deterministic adversary replays, plus health and
// metrics endpoints. All handlers are GET with query parameters, so every
// query is a curl-able, cache-addressable URL.
//
//	GET /v1/solve?family=consensus&procs=2&maxb=2
//	GET /v1/complex?n=2&b=1
//	GET /v1/converge?n=1&target=1&maxk=2
//	GET /v1/adversary?algo=commitadopt&adversary=random&seed=42&procs=3&crash=2,-1,-1
//	GET /v1/peer/artifact/{key}     (cluster mode: peers fetch finished artifacts)
//	GET /healthz
//	GET /metrics
//	GET /debug/traces[?id=<trace-id>]
//	GET /debug/pprof/*          (behind Options.EnablePprof)
//
// Every /v1/* response carries an X-Trace-Id header; the corresponding span
// tree (cache.lookup, flight.wait, sds.subdivide, solver.search,
// converge.map — see DESIGN §10) is retrievable from /debug/traces while it
// remains in the bounded registry.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"waitfree/internal/cluster"
	"waitfree/internal/engine"
	"waitfree/internal/netfault"
	"waitfree/internal/obs"
	"waitfree/internal/solver"
)

// Options configures a Server.
type Options struct {
	// MaxConcurrent bounds the /v1 queries that hold a worker slot at once;
	// an excess query waits up to Timeout/2 for a slot and is then rejected
	// 429 + Retry-After. 0 = DefaultMaxConcurrent (32).
	MaxConcurrent int
	// Timeout is the per-query deadline, counted from arrival, so time spent
	// waiting for a slot counts against it; 0 = 30s.
	Timeout time.Duration
	// SlowLog, when > 0, logs any /v1/* request slower than this threshold
	// via Logger, together with the exact wfrepro CLI line that reproduces
	// the query offline.
	SlowLog time.Duration
	// Logger receives slow-query records; nil = slog.Default().
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose internals and cost CPU, so production turns it on
	// deliberately via the -pprof flag.
	EnablePprof bool
	// TraceBuffer bounds the /debug/traces registry; 0 = obs default (256).
	TraceBuffer int
	// MaxCost is the admission budget in Lemma 3.3 facets: a query whose
	// closed-form estimate exceeds it is rejected 400 with the estimate in
	// the body, before a worker slot is committed. 0 = unlimited.
	MaxCost int64
	// DegradedMaxCost is the (much tighter) budget applied while the breaker
	// is tripped: only cache hits and queries at or under it are served;
	// everything else is rejected 503 + Retry-After. 0 = the default;
	// negative = cache hits only.
	DegradedMaxCost int64
	// Breaker configures the failure-rate breaker behind degraded mode.
	Breaker BreakerOptions
	// Cluster, when set, makes this server a shard of a hash-ring cluster:
	// non-owned keys are peer-filled or forwarded one hop to their owner,
	// the /v1/peer/* endpoints (artifact, gossip, probe, keys) serve peers,
	// and /healthz gains a cluster section. Nil = single-node mode, no change.
	Cluster *cluster.Cluster
	// NetFault, when set, mounts the dev-only /debug/netfault control
	// surface for the deterministic network adversary (set/heal partitions,
	// pause the fault plan, read the injection state). Nil in production.
	NetFault *netfault.Transport
}

// DefaultMaxConcurrent is the default number of worker slots for /v1 queries.
const DefaultMaxConcurrent = 32

// DefaultTimeout is the default per-query deadline.
const DefaultTimeout = 30 * time.Second

// DefaultDegradedMaxCost is the degraded-mode admission budget: generous
// enough for every interactive-sized query (the (2,2) chain is 183 facets,
// (2,3) is 2380), tight enough to shed the 400k-facet class that turns a
// sick spill tier into a memory amplifier.
const DefaultDegradedMaxCost = int64(100_000)

// ErrDegraded marks queries shed in degraded mode: the breaker tripped on
// spill faults or sustained 5xx, and this query is neither cached nor under
// the degraded cost budget. Mapped to 503 + Retry-After — the query is fine,
// the server is not; retry after the cooldown.
var ErrDegraded = errors.New("serve: degraded mode, expensive uncached queries refused")

// Server routes HTTP requests into an engine.
type Server struct {
	eng      *engine.Engine
	sem      chan struct{}
	timeout  time.Duration
	slow     time.Duration
	logger   *slog.Logger
	pprofOn  bool
	traces   *obs.Registry
	maxCost  int64
	degCost  int64
	breaker  *breaker
	cluster  *cluster.Cluster    // nil in single-node mode
	netfault *netfault.Transport // nil unless the adversary is armed
	spillSum atomic.Int64        // last observed SpillFaults(), for delta polling
}

// NewServer builds a Server over eng.
func NewServer(eng *engine.Engine, o Options) *Server {
	maxConc := o.MaxConcurrent
	if maxConc <= 0 {
		maxConc = DefaultMaxConcurrent
	}
	timeout := o.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	logger := o.Logger
	if logger == nil {
		logger = slog.Default()
	}
	degCost := o.DegradedMaxCost
	if degCost == 0 {
		degCost = DefaultDegradedMaxCost
	}
	return &Server{
		eng:      eng,
		sem:      make(chan struct{}, maxConc),
		timeout:  timeout,
		slow:     o.SlowLog,
		logger:   logger,
		pprofOn:  o.EnablePprof,
		traces:   obs.NewRegistry(o.TraceBuffer),
		maxCost:  o.MaxCost,
		degCost:  degCost,
		breaker:  newBreaker(o.Breaker),
		cluster:  o.Cluster,
		netfault: o.NetFault,
	}
}

// Engine exposes the underlying engine (tests, metrics wiring).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Handler returns the route table. The four /v1 query endpoints run the
// admission step inside instrument; the control plane (/healthz, /metrics,
// /debug/*, /v1/peer/*) is not a query and skips it, so a probe reads the
// server's state even while every worker slot is held.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/complex", s.handleComplex)
	mux.HandleFunc("/v1/converge", s.handleConverge)
	mux.HandleFunc("/v1/adversary", s.handleAdversary)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.cluster != nil {
		mux.HandleFunc("GET /v1/peer/artifact/{key}", s.handlePeerArtifact)
		mux.HandleFunc("POST "+cluster.GossipPath, s.handleGossip)
		mux.HandleFunc("GET "+cluster.ProbePath, s.handlePeerProbe)
		mux.HandleFunc("GET "+cluster.KeysPath, s.handlePeerKeys)
	}
	if s.netfault != nil {
		mux.HandleFunc("/debug/netfault", s.handleNetfault)
	}
	mux.HandleFunc("/debug/traces", s.handleTraces)
	if s.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// retryAfterSeconds estimates when a retry is worth attempting: the queue
// ahead of the caller times the recent p50 service time, or the breaker's
// remaining cooldown when degraded mode is what rejected the request —
// whichever is later, clamped to [1, 60] seconds.
func (s *Server) retryAfterSeconds() int {
	m := s.eng.Metrics()
	p50 := m.MaxQuantile("http_", 0.5) // milliseconds
	sec := int(math.Ceil(float64(m.QueueDepth.Load()+1) * p50 / 1000))
	if rem := s.breaker.CooldownRemaining(); rem > 0 {
		if c := int(math.Ceil(rem.Seconds())); c > sec {
			sec = c
		}
	}
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// instrument is the spine of every /v1 query: parse, admit, route, answer,
// and write the one response. For each request it:
//
//   - starts a trace, sets X-Trace-Id before anything runs, and records the
//     finished span tree into the /debug/traces registry;
//   - parses the query string, runs the admission step (admit) once, routes
//     the query (maybeForward), and calls the engine only if the query is
//     admitted and not forwarded;
//   - increments exactly one requests_total_<endpoint> counter and exactly
//     one http_status_<endpoint>_<code> counter, on every path — admission
//     rejections included;
//   - records exactly one latency observation: into the http_<endpoint>
//     histogram on success, timed from the slot grant, or
//     http_<endpoint>_error on failure, so canceled and failed queries never
//     pollute the success percentiles;
//   - answers a failure by its row of the outcome table (statusFor): status,
//     Retry-After, and whether it feeds the breaker;
//   - when the request exceeds the slowlog threshold, logs it with the
//     exact `wfrepro <cmd> -json ...` line that reproduces the query.
func instrument[R costedRequest, V any](s *Server, name string, w http.ResponseWriter, r *http.Request,
	parse func(url.Values) (R, error), run func(context.Context, R) (V, error)) {
	m := s.eng.Metrics()
	s.pollSpillFaults()
	state := s.healthState()
	tr := obs.NewTrace()
	// The deadline counts from arrival: time spent queued for a slot is
	// time the query no longer has to compute in.
	ctx, cancel := context.WithTimeout(obs.WithTrace(r.Context(), tr), s.timeout)
	defer cancel()
	ctx, root := obs.StartSpan(ctx, "http."+name)
	w.Header().Set("X-Trace-Id", tr.ID)
	m.Inc("requests_total_" + name)
	m.Inc("requests_state_" + state)
	start := time.Now()
	var (
		v   V
		fwd *forwardResult
	)
	req, err := parse(r.URL.Query())
	if err == nil {
		err = s.admit(ctx, req)
	}
	if err == nil {
		defer func() { <-s.sem }()
		// retryAfterSeconds multiplies the success p50 by the queue depth,
		// so the success series must not count time spent in the queue.
		start = time.Now()
		if fwd = s.maybeForward(ctx, r, req.Key()); fwd == nil {
			v, err = run(ctx, req)
		}
	}
	elapsed := time.Since(start)
	status := http.StatusOK
	var o outcome
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = errTimedOut
		}
		o = statusFor(err)
		status = o.status
		if o.feedsBreaker {
			s.breaker.RecordFailures(1)
		}
	} else if fwd != nil {
		// The owning peer answered; its status is this request's status, and
		// the route is recorded on the root span so a trace shows the hop.
		status = fwd.status
		root.SetStr("cluster.owner", fwd.owner)
		root.SetInt("cluster.hop", 1)
		root.SetInt("cluster.epoch", int64(s.cluster.Epoch()))
	}
	root.SetStr("health_state", state)
	root.SetInt("status", int64(status))
	root.Finish()
	s.traces.Record(tr)
	m.Inc(fmt.Sprintf("http_status_%s_%d", name, status))
	if status >= 400 {
		// Forwarded failures land in the error series too: a peer's 503
		// must not pollute the local success percentiles Retry-After uses.
		m.Observe("http_"+name+"_error", elapsed)
	} else {
		m.Observe("http_"+name, elapsed)
	}
	if s.slow > 0 && elapsed >= s.slow {
		args := []any{
			"endpoint", name,
			"trace_id", tr.ID,
			"status", status,
			"duration_ms", float64(elapsed) / float64(time.Millisecond),
			"repro", reproCommand(name, r),
		}
		if s.cluster != nil {
			// The epoch the route was chosen under: pairs with the owner to
			// make a misrouted slow query attributable to a stale ring view.
			args = append(args, "epoch", s.cluster.Epoch())
		}
		if fwd != nil {
			// Forwarded queries pin the route: the repro line replays the
			// computation anywhere, "owner" says which node served this one.
			args = append(args, "owner", fwd.owner)
		}
		s.logger.Warn("slow query", args...)
	}
	switch {
	case err != nil:
		if o.retryAfter {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		writeError(w, status, err)
	case fwd != nil:
		// Relayed verbatim: the owner's status, body and Retry-After.
		if fwd.contentType != "" {
			w.Header().Set("Content-Type", fwd.contentType)
		}
		if fwd.retryAfter != "" {
			w.Header().Set("Retry-After", fwd.retryAfter)
		}
		w.WriteHeader(fwd.status)
		if _, err := w.Write(fwd.body); err != nil {
			m.Inc("http_write_errors")
		}
	default:
		w.Header().Set("Content-Type", "application/json")
		if err := engine.WriteJSON(w, v); err != nil {
			// Headers are gone; nothing to do but record it.
			m.Inc("http_write_errors")
		}
	}
}

// pollSpillFaults feeds the spill tier's failure counters into the breaker
// as deltas. Polling on the request path (rather than a background ticker)
// means zero goroutines and a breaker that is exactly as fresh as it needs
// to be: spill faults only matter when there is traffic to shed.
func (s *Server) pollSpillFaults() {
	cur := s.eng.Metrics().SpillFaults()
	if prev := s.spillSum.Swap(cur); cur > prev {
		s.breaker.RecordFailures(cur - prev)
	}
}

// healthState is the server's one-word self-assessment, surfaced on
// /healthz, as a span attribute, and as requests_state_* counters:
//
//	degraded   — the breaker tripped; only cache hits and cheap queries serve
//	overloaded — queries are queued for a worker slot
//	ok         — neither
//
// Degraded wins over overloaded: shedding is the stronger statement, and the
// queue usually drains precisely because degraded mode is shedding.
func (s *Server) healthState() string {
	if s.breaker.Degraded() {
		return "degraded"
	}
	if s.eng.Metrics().QueueDepth.Load() > 0 {
		return "overloaded"
	}
	return "ok"
}

// costedRequest is what admission needs from a request: its closed-form
// Lemma 3.3 estimate and its cache key. All four engine request types
// satisfy it.
type costedRequest interface {
	EstimateCost() (int64, error)
	Key() string
}

// admit is the admission step. instrument runs it once per /v1 query,
// after parsing and before routing or any engine work. Its checks run in
// this order:
//
//  1. Cost. The Lemma 3.3 closed form prices the query in microseconds and
//     builds nothing. Over MaxCost is 400 ErrOverBudget with the estimate in
//     the body: the query will never fit, so resize it instead of retrying.
//     This check does no I/O and takes no slot, so it answers at once even
//     while every slot is held.
//  2. Slot. The query waits up to Timeout/2 for one of MaxConcurrent
//     slots, then is shed 429. A query whose client leaves while queued
//     ends 499.
//  3. Degraded shed. With the breaker tripped, a query over DegradedMaxCost
//     that is not already cached is 503 ErrDegraded: the query is fine, the
//     server is not. This check sits behind the slot because HasCached may
//     read the spill tier that degraded mode protects. Cached answers always
//     serve: a hit costs no facets whatever the estimate says.
//  4. Deadline. The query's context carries the Timeout deadline, set at
//     arrival; every layer below stops on it, and it ends 503.
//
// On a nil return the caller holds a slot and releases it with <-s.sem.
func (s *Server) admit(ctx context.Context, req costedRequest) error {
	cost, err := req.EstimateCost()
	if err != nil {
		return err
	}
	if s.maxCost > 0 && cost > s.maxCost {
		return &costError{estimated: cost, budget: s.maxCost, err: engine.ErrOverBudget}
	}
	select {
	case s.sem <- struct{}{}:
	default:
		m := s.eng.Metrics()
		m.QueueDepth.Add(1)
		t := time.NewTimer(s.timeout / 2)
		select {
		case s.sem <- struct{}{}:
		case <-t.C:
			m.Rejected.Add(1)
			err = errAtCapacity
		case <-ctx.Done():
			err = ctx.Err()
		}
		t.Stop()
		m.QueueDepth.Add(-1)
		if err != nil {
			return err
		}
	}
	if cost > s.degCost && s.breaker.Degraded() && !s.eng.HasCached(req.Key()) {
		<-s.sem
		return &costError{estimated: cost, budget: s.degCost, err: ErrDegraded}
	}
	return nil
}

// costError carries the admission verdict's numbers so writeError can put
// machine-readable estimated_cost / max_cost fields in the response body.
// It wraps engine.ErrOverBudget or ErrDegraded for errors.Is classification.
type costError struct {
	estimated, budget int64
	err               error
}

func (e *costError) Error() string {
	return fmt.Sprintf("%v: estimated cost %d facets exceeds budget %d", e.err, e.estimated, e.budget)
}

func (e *costError) Unwrap() error { return e.err }

// reproCommand renders the wfrepro CLI line that replays an HTTP query
// offline: the -json subcommands share the engine (and encoder) with the
// service, so the line reproduces the exact bytes — and, with -trace, the
// exact span tree — of the slow request. Query parameters map 1:1 onto CLI
// flags except for the few whose names differ between the two surfaces.
func reproCommand(endpoint string, r *http.Request) string {
	// HTTP parameter → CLI flag renames, per endpoint.
	renames := map[string]map[string]string{
		"adversary": {"adversary": "adv", "procs": "n"},
	}
	parts := []string{"wfrepro", endpoint, "-json"}
	q := r.URL.Query()
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := q.Get(k)
		if v == "" {
			continue
		}
		flag := k
		if ren := renames[endpoint][k]; ren != "" {
			flag = ren
		}
		parts = append(parts, "-"+flag+"="+v)
	}
	return strings.Join(parts, " ")
}

// StatusClientClosedRequest is the (nginx-conventional) status recorded
// when the client disconnected before the answer was computed. Nobody
// receives the response body, but the status lands in metrics and logs.
const StatusClientClosedRequest = 499

var (
	// errAtCapacity is the slot check's verdict: no slot freed up within
	// Timeout/2.
	errAtCapacity = errors.New("server at capacity")
	// errTimedOut replaces any error the query's deadline caused, so a
	// deadline reads the same whichever layer noticed it.
	errTimedOut = fmt.Errorf("request timed out: %w", context.DeadlineExceeded)
)

// outcome is one row of the outcome table: how a /v1 query that failed
// with an error of the row's class is answered.
type outcome struct {
	class        error // matched with errors.Is
	status       int
	retryAfter   bool // the response carries Retry-After (retryAfterSeconds)
	feedsBreaker bool // the failure counts toward tripping the breaker
}

// outcomes is the one outcome table for /v1 queries, matched top to bottom
// with errors.Is — no message matching. Every 429 and 503 carries
// Retry-After. 429s feed the breaker, so a stampede that outlasts the slot
// wait pushes the server toward shedding expensive work too. 5xx feed it
// as well, except degraded-mode sheds: those are the breaker's own output,
// and counting them would hold it tripped forever under retry traffic.
// 429 rather than 503 tells a client the server is healthy, only busy.
// DeadlineExceeded is matched before ErrCanceled because the engine wraps
// every cancellation, timeouts included, in ErrCanceled, and a deadline is
// the server giving up, not the client.
var outcomes = []outcome{
	{engine.ErrInvalid, http.StatusBadRequest, false, false},              // the request was never attempted
	{engine.ErrOverBudget, http.StatusBadRequest, false, false},           // admission: the query will never fit
	{errAtCapacity, http.StatusTooManyRequests, true, true},               // admission: the server is busy; back off
	{ErrDegraded, http.StatusServiceUnavailable, true, false},             // admission: the server is sick; retry
	{context.DeadlineExceeded, http.StatusServiceUnavailable, true, true}, // the server's deadline expired
	{engine.ErrCanceled, StatusClientClosedRequest, false, false},         // the client went away
	{context.Canceled, StatusClientClosedRequest, false, false},
	{solver.ErrBudget, http.StatusServiceUnavailable, true, true}, // no verdict within the node budget
}

// statusFor returns err's row of the outcome table; an error no row
// classifies is a bug: 500, fed to the breaker.
func statusFor(err error) outcome {
	for _, o := range outcomes {
		if errors.Is(err, o.class) {
			return o
		}
	}
	return outcome{status: http.StatusInternalServerError, feedsBreaker: true}
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]any{"error": err.Error()}
	var ce *costError
	if errors.As(err, &ce) {
		// Machine-readable admission verdict: the client can resize the
		// query (ErrOverBudget) or back off (ErrDegraded) without parsing
		// the message.
		body["estimated_cost"] = ce.estimated
		body["max_cost"] = ce.budget
	}
	engine.WriteJSON(w, body)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	instrument(s, "solve", w, r, parseSolve, s.eng.Solve)
}

func (s *Server) handleComplex(w http.ResponseWriter, r *http.Request) {
	instrument(s, "complex", w, r, parseComplex, s.eng.ComplexInfo)
}

func (s *Server) handleConverge(w http.ResponseWriter, r *http.Request) {
	instrument(s, "converge", w, r, parseConverge, s.eng.Converge)
}

func (s *Server) handleAdversary(w http.ResponseWriter, r *http.Request) {
	instrument(s, "adversary", w, r, parseAdversary, s.eng.Adversary)
}

// handleTraces serves the bounded trace registry: the full span tree for
// ?id=<trace-id>, or summaries of the recent traces without an id.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if id := r.URL.Query().Get("id"); id != "" {
		snap, ok := s.traces.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("trace %q not found (evicted or never recorded)", id))
			return
		}
		engine.WriteJSON(w, snap)
		return
	}
	engine.WriteJSON(w, map[string]any{"traces": s.traces.Recent()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.pollSpillFaults() // health probes see spill faults even with no traffic
	state := s.healthState()
	// Counts after healthState: the state check is where time-based recovery
	// happens, so a probe that reads "ok" also sees the recovery counted.
	trips, recoveries := s.breaker.Counts()
	w.Header().Set("Content-Type", "application/json")
	body := map[string]any{
		"status":             state,
		"cache_entries":      s.eng.CacheLen(),
		"breaker_trips":      trips,
		"breaker_recoveries": recoveries,
	}
	if s.cluster != nil {
		// Peer health, membership, and ring size — the liveness loop's view,
		// so a kill/heal cycle is observable from any surviving node.
		body["cluster"] = s.cluster.Snapshot()
	}
	engine.WriteJSON(w, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	engine.WriteJSON(w, s.eng.Metrics().Snapshot())
}

// parseSolve reads a SolveRequest from query parameters. Defaults mirror
// the CLI: maxb=2, engine-default node budget.
func parseSolve(q url.Values) (engine.SolveRequest, error) {
	var req engine.SolveRequest
	req.Spec.Family = q.Get("family")
	if req.Spec.Family == "" {
		return req, fmt.Errorf("%w: family is required (one of %v)", engine.ErrInvalid, engine.Families())
	}
	var err error
	if req.Spec.Procs, err = intParamRange(q, "procs", 0, 0, 64); err != nil {
		return req, err
	}
	if req.Spec.K, err = intParamRange(q, "k", 0, 0, 64); err != nil {
		return req, err
	}
	if req.Spec.D, err = intParamRange(q, "d", 0, 0, 1<<20); err != nil {
		return req, err
	}
	if req.Spec.M, err = intParamRange(q, "m", 0, 0, 64); err != nil {
		return req, err
	}
	if req.MaxLevel, err = intParamRange(q, "maxb", 2, 0, engine.MaxSolveLevel); err != nil {
		return req, err
	}
	maxNodes, err := intParamRange(q, "maxnodes", 0, 0, 1<<62)
	if err != nil {
		return req, err
	}
	req.MaxNodes = int64(maxNodes)
	// Affine model, canonical surface syntax; absent = wait-free. Passed
	// through verbatim: admission (EstimateCost) and the engine both reject
	// unknown or out-of-range models with ErrInvalid → 400, and the repro
	// line maps it 1:1 onto the CLI's -model flag.
	req.Model = q.Get("model")
	return req, nil
}

// parseComplex reads a ComplexRequest from query parameters.
func parseComplex(q url.Values) (req engine.ComplexRequest, err error) {
	if req.N, err = intParamRange(q, "n", 2, 0, 8); err != nil {
		return req, err
	}
	req.B, err = intParamRange(q, "b", 1, 0, 8)
	return req, err
}

// parseConverge reads a ConvergeRequest from query parameters.
func parseConverge(q url.Values) (req engine.ConvergeRequest, err error) {
	if req.N, err = intParamRange(q, "n", 1, 0, 8); err != nil {
		return req, err
	}
	if req.Target, err = intParamRange(q, "target", 1, 0, 8); err != nil {
		return req, err
	}
	req.MaxK, err = intParamRange(q, "maxk", 3, 0, 8)
	return req, err
}

// parseAdversary reads an AdversaryRequest from query parameters.
func parseAdversary(q url.Values) (engine.AdversaryRequest, error) {
	var req engine.AdversaryRequest
	req.Algo = q.Get("algo")
	if req.Algo == "" {
		return req, fmt.Errorf("%w: algo is required (one of %v)", engine.ErrInvalid, engine.AdversaryAlgos())
	}
	req.Adversary = q.Get("adversary")
	if req.Adversary == "" {
		req.Adversary = "round-robin"
	}
	var err error
	if req.Procs, err = intParamRange(q, "procs", 3, 1, 8); err != nil {
		return req, err
	}
	seed, err := intParam(q, "seed", 1)
	if err != nil {
		return req, err
	}
	req.Seed = int64(seed)
	// The engine bounds maxsteps to [0, sched.DefaultMaxSteps]; only the
	// CLI, which calls RunAdversary directly, may run a replay unlimited.
	if req.MaxSteps, err = intParam(q, "maxsteps", 0); err != nil {
		return req, err
	}
	if cs := q.Get("crash"); cs != "" {
		req.Crash, err = engine.ParseCrashVector(cs, req.Procs)
		if err != nil {
			return req, err
		}
	}
	return req, nil
}

// intParam reads an integer query parameter, def when it is absent or
// empty. Callers parse the query string once and pass its values.
func intParam(q url.Values, name string, def int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q is not an integer", engine.ErrInvalid, name, s)
	}
	return v, nil
}

// intParamRange is intParam plus a [min, max] sanity window, so negative or
// absurd values are rejected at the door instead of reaching the engine
// raw. The engine still applies its own (tighter, per-family) bounds.
func intParamRange(q url.Values, name string, def, min, max int) (int, error) {
	v, err := intParam(q, name, def)
	if err != nil {
		return 0, err
	}
	if v < min || v > max {
		return 0, fmt.Errorf("%w: %s=%d out of range [%d,%d]", engine.ErrInvalid, name, v, min, max)
	}
	return v, nil
}

// Run serves s on addr until ctx is cancelled, then drains gracefully.
// ready, when non-nil, receives the bound address (useful with ":0") once
// the listener is up.
func Run(ctx context.Context, addr string, s *Server, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr := srv.Shutdown(shutCtx)
		// Shutdown makes srv.Serve return promptly; drain its error so the
		// goroutine is never abandoned and a real serve failure (anything
		// but the expected ErrServerClosed) is surfaced.
		serveErr := <-errc
		if shutErr != nil {
			return shutErr
		}
		if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			return serveErr
		}
		return nil
	}
}
