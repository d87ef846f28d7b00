package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"waitfree/internal/converge"
	"waitfree/internal/faultfs"
	"waitfree/internal/model"
	"waitfree/internal/obs"
	"waitfree/internal/solver"
	"waitfree/internal/topology"
)

// DefaultCacheSize is the default in-memory entry bound of the store.
const DefaultCacheSize = 512

// costRetained lists the ops whose computed answers enter the store at
// their compute time as GreedyDual cost (Cache.PutCost): the queries that
// build a subdivision chain and can take a second, and whose answers are a
// few hundred bytes. Replays are stored at cost 0 and keep LRU order: they
// are always cheap (AdversaryRequest.EstimateCost) and make up most of a
// busy store's churn.
var costRetained = map[string]bool{"solve": true, "complex": true, "converge": true}

// DefaultMaxNodes is the engine's per-level search budget — deliberately
// tighter than the solver library default so a hostile query cannot pin a
// serving process for minutes.
const DefaultMaxNodes = 5_000_000

// Options configures an Engine.
type Options struct {
	// CacheSize bounds the in-memory store (entries); 0 = DefaultCacheSize.
	CacheSize int
	// SpillDir, when set, enables the gob spill-to-disk tier for evicted
	// answers (verdicts, complex shapes, convergence maps, replays).
	SpillDir string
	// SpillMaxBytes bounds the spill directory's total size; old files are
	// swept oldest-first past the budget. 0 = DefaultSpillMaxBytes.
	SpillMaxBytes int64
	// SpillFS is the filesystem the spill tier talks to; nil = the real one.
	// The chaos soak (and the dev-only -faultseed flag) pass a seeded
	// faultfs.Faulty here to run the storage adversary against a live engine.
	SpillFS faultfs.FS
	// MaxNodes is the default per-level solver budget for requests that do
	// not set one; 0 = DefaultMaxNodes.
	MaxNodes int64
}

// Engine is the concurrent query engine. All methods are safe for
// concurrent use; identical in-flight queries are deduplicated so they cost
// one computation, and every answer is content-addressed in the store for
// reuse across queries. Subdivision levels are values: the query that needs
// one builds it with topology.Subdivide and drops it, so a level never
// enters the store, the spill tier or a peer's inventory.
//
// Every query method takes a context and honors it end-to-end: the solver's
// backtracking loop, the subdivision, and the converge search all
// checkpoint cooperatively, so a canceled or timed-out caller stops burning
// CPU within one checkpoint interval. Cancellation surfaces as ErrCanceled;
// abandoned partial work is never cached as a verdict.
type Engine struct {
	cache    *Cache
	flights  flightGroup
	maxNodes int64
	metrics  *Metrics
	// peerFill, when set (SetPeerFiller, cluster mode), is consulted on a
	// cache miss before computing: a non-owned key may already be answered
	// byte-identically in the owning peer's cache.
	peerFill PeerFiller
}

// New builds an engine.
func New(o Options) *Engine {
	m := NewMetrics()
	e := &Engine{
		cache:    NewCache(o.CacheSize, o.SpillDir, o.SpillMaxBytes, o.SpillFS, m),
		maxNodes: o.MaxNodes,
		metrics:  m,
	}
	if e.maxNodes == 0 {
		e.maxNodes = DefaultMaxNodes
	}
	// Spill codecs: every stored answer rehydrates as itself.
	e.cache.registerCodec("solve",
		func(v any) ([]byte, error) { return gobEncode(v.(*SolveResponse)) },
		func(data []byte) (any, error) { var r SolveResponse; err := gobDecode(data, &r); return &r, err })
	e.cache.registerCodec("cx",
		func(v any) ([]byte, error) { return gobEncode(v.(*ComplexResponse)) },
		func(data []byte) (any, error) { var r ComplexResponse; err := gobDecode(data, &r); return &r, err })
	e.cache.registerCodec("conv",
		func(v any) ([]byte, error) { return gobEncode(v.(*ConvergeResponse)) },
		func(data []byte) (any, error) { var r ConvergeResponse; err := gobDecode(data, &r); return &r, err })
	e.cache.registerCodec("adv",
		func(v any) ([]byte, error) { return gobEncode(v.(*AdversaryResponse)) },
		func(data []byte) (any, error) { var r AdversaryResponse; err := gobDecode(data, &r); return &r, err })
	return e
}

// Metrics exposes the engine's counters (shared with the serving layer).
func (e *Engine) Metrics() *Metrics { return e.metrics }

// CacheLen returns the number of in-memory cache entries.
func (e *Engine) CacheLen() int { return e.cache.Len() }

// HasCached reports whether the store (memory or disk tier) already holds an
// answer for the given request key. The serving layer uses it in degraded
// mode: a cache hit is always admissible because answering it costs no
// computation and no spill write. A disk-tier hit rehydrates the entry, so a
// positive answer means the follow-up query is a memory hit.
func (e *Engine) HasCached(key string) bool {
	_, ok := e.cache.Get(key)
	return ok
}

// canceledErr counts and wraps a cancellation so callers can
// errors.Is(err, ErrCanceled) regardless of which layer the context error
// surfaced from.
func (e *Engine) canceledErr(err error) error {
	e.metrics.Canceled.Add(1)
	if errors.Is(err, ErrCanceled) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCanceled, err)
}

// do is the query spine: cache lookup, singleflight dedup of concurrent
// misses, compute, store. Every call is one client query, so N clients
// asking one question read as exactly one miss. op names the latency
// histogram; successful queries observe into the "op" histogram, failed
// ones (cancellations included — a canceled search's partial latency would
// poison the success percentiles) into "op_error".
//
// When ctx carries an obs trace, the spine emits a cache.lookup span (with
// the answering tier) and, on a miss, a flight.wait span around the
// singleflight; the compute runs under the flight's Background-rooted
// context with the starter's trace transplanted onto it, so the deeper
// sds.subdivide / solver.search / converge.map spans land in the starter's
// tree while shared subscribers see only their flight.wait.
//
// ctx is the caller's; compute receives the flight's context, which stays
// live while any subscriber remains and is canceled once all have
// detached, so abandoned searches stop instead of running out their node
// budgets. Errors — including a detaching caller's own ctx.Err() — are
// never cached.
func (e *Engine) do(ctx context.Context, op, key string, compute func(ctx context.Context) (any, error)) (any, error) {
	e.metrics.InFlight.Add(1)
	start := time.Now()
	v, err := e.doInner(ctx, op, key, compute)
	e.metrics.InFlight.Add(-1)
	if err != nil {
		e.metrics.Observe(op+"_error", time.Since(start))
	} else {
		e.metrics.Observe(op, time.Since(start))
	}
	return v, err
}

func (e *Engine) doInner(ctx context.Context, op, key string, compute func(ctx context.Context) (any, error)) (any, error) {
	hit := func(tier string) {
		e.metrics.CacheHits.Add(1)
		if tier == TierDisk {
			e.metrics.Inc(op + "_disk_hit")
		}
	}
	_, lookup := obs.StartSpan(ctx, "cache.lookup")
	lookup.SetStr("op", op)
	if v, tier, ok := e.cache.GetTier(key); ok {
		lookup.SetStr("tier", tier)
		lookup.SetInt("hit", 1)
		lookup.Finish()
		hit(tier)
		return v, nil
	}
	lookup.SetStr("tier", TierMiss)
	lookup.SetInt("hit", 0)
	lookup.Finish()
	if err := ctx.Err(); err != nil {
		return nil, e.canceledErr(err)
	}
	wctx, wait := obs.StartSpan(ctx, "flight.wait")
	wait.SetStr("op", op)
	v, err, shared := e.flights.Do(ctx, key, func(cctx context.Context) (any, error) {
		cctx = obs.Transplant(wctx, cctx)
		if v, tier, ok := e.cache.GetTier(key); ok {
			hit(tier)
			return v, nil
		}
		e.metrics.CacheMisses.Add(1)
		// Peer cache-fill: before computing a missed key, try fetching the
		// finished artifact from its ring owner. Inside the flight, so all
		// local waiters share one fetch; any failure falls through to
		// compute.
		if v, ok := e.tryPeerFill(cctx, op, key); ok {
			return v, nil
		}
		began := time.Now()
		v, err := compute(cctx)
		if err != nil {
			return nil, err
		}
		var cost time.Duration
		if costRetained[op] {
			cost = time.Since(began)
		}
		e.cache.PutCost(key, v, cost)
		return v, nil
	})
	wait.SetInt("shared", boolInt(shared))
	wait.Finish()
	if shared {
		e.metrics.Deduped.Add(1)
	}
	if err != nil && isCancellation(err) {
		return nil, e.canceledErr(err)
	}
	return v, err
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Solve answers a solvability query, reusing cached verdicts.
func (e *Engine) Solve(ctx context.Context, req SolveRequest) (*SolveResponse, error) {
	if req.MaxLevel < 0 || req.MaxLevel > MaxSolveLevel {
		return nil, fmt.Errorf("%w: max_level=%d out of range [0,%d]", ErrInvalid, req.MaxLevel, MaxSolveLevel)
	}
	if req.MaxNodes < 0 {
		return nil, fmt.Errorf("%w: max_nodes=%d must be non-negative", ErrInvalid, req.MaxNodes)
	}
	// Validate before hashing the query, building nothing: a hit answers
	// from the store, and a miss builds the task once, inside the flight.
	if err := req.Spec.Check(); err != nil {
		return nil, err
	}
	spec, err := model.Parse(req.Model)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	_, procs := req.Spec.inputShape()
	if err := spec.Validate(procs); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	e.metrics.Inc("solve_model_" + metricName(spec))
	v, err := e.do(ctx, "solve", req.Key(), func(cctx context.Context) (any, error) { return e.computeSolve(cctx, req, spec) })
	if err != nil {
		return nil, err
	}
	return v.(*SolveResponse), nil
}

// metricName renders a model spec as a counter-name segment ("wait_free",
// "1_resilient", …).
func metricName(spec model.Spec) string {
	out := []byte(spec.Canonical())
	for i, c := range out {
		if c == '-' {
			out[i] = '_'
		}
	}
	return string(out)
}

func (e *Engine) computeSolve(ctx context.Context, req SolveRequest, spec model.Spec) (*SolveResponse, error) {
	task, err := req.Spec.Build()
	if err != nil {
		return nil, err
	}
	maxNodes := req.MaxNodes
	if maxNodes == 0 {
		maxNodes = e.maxNodes
	}
	opts := solver.Options{MaxNodes: maxNodes, Restrict: spec.Filter()}
	if !spec.IsWaitFree() {
		opts.Model = spec.Canonical()
	}
	res, err := solver.SolveUpToCtx(ctx, task, req.MaxLevel, opts)
	e.recordSolve(res)
	if err != nil {
		return nil, err // solver.ErrBudget, solver.ErrCanceled or a failed subdivision step
	}
	verdict := fmt.Sprintf("UNSOLVABLE for all b ≤ %d (proven by exhaustion)", res.Level)
	if res.Solvable {
		if err := solver.VerifyDecisionMap(task, res); err != nil {
			return nil, fmt.Errorf("engine: found map fails verification: %w", err)
		}
		verdict = fmt.Sprintf("SOLVABLE at b = %d", res.Level)
	}
	return &SolveResponse{
		Task:                res.Task.Name,
		Spec:                req.Spec,
		MaxLevel:            req.MaxLevel,
		Level:               res.Level,
		Solvable:            res.Solvable,
		Verdict:             verdict,
		Nodes:               res.Nodes,
		SubdivisionVertices: res.Vertices,
		SubdivisionFacets:   res.Facets,
		MapVerified:         res.Solvable, // a found map was verified above
		Model:               opts.Model,
	}, nil
}

// validate bounds a complex query to the levels the engine enumerates.
func (r ComplexRequest) validate() error {
	if r.N < 0 || r.N > 3 || r.B < 0 || r.B > 3 || (r.N >= 3 && r.B >= 2) {
		return fmt.Errorf("%w: complex enumeration is exponential; need 0 ≤ n ≤ 3, 0 ≤ b ≤ 3, n·b small", ErrInvalid)
	}
	return nil
}

// ComplexInfo answers a subdivision-shape query over the standard simplex.
func (e *Engine) ComplexInfo(ctx context.Context, req ComplexRequest) (*ComplexResponse, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	v, err := e.do(ctx, "complex", req.Key(), func(cctx context.Context) (any, error) {
		sub, err := topology.Subdivide(cctx, topology.Simplex(req.N), req.B, nil)
		if err != nil {
			return nil, err
		}
		// The shape comes from the closed form that answersKey checks peer
		// answers against; the built level gives the rest.
		fv, err := topology.SDSFVector(topology.SimplexFVector(req.N), req.B)
		if err != nil {
			return nil, err
		}
		return &ComplexResponse{
			N:         req.N,
			B:         req.B,
			Vertices:  sub.NumVertices(),
			Facets:    len(sub.Facets()),
			FVector:   fv,
			Euler:     topology.Euler(fv),
			Chromatic: sub.IsChromatic(),
			Pure:      sub.IsPure(),
			Hash:      sub.CanonicalHash(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ComplexResponse), nil
}

// validate bounds a converge query to the grid the engine answers.
func (r ConvergeRequest) validate() error {
	if r.N < 1 || r.N > 2 {
		return fmt.Errorf("%w: converge needs 1 ≤ n ≤ 2, got %d", ErrInvalid, r.N)
	}
	if r.Target < 1 || r.Target > 2 {
		return fmt.Errorf("%w: converge needs 1 ≤ target ≤ 2, got %d", ErrInvalid, r.Target)
	}
	if r.MaxK < 0 || r.MaxK > 4 {
		return fmt.Errorf("%w: converge needs 0 ≤ max_k ≤ 4, got %d", ErrInvalid, r.MaxK)
	}
	return nil
}

// Converge answers a Theorem 5.1 query: the smallest k ≤ MaxK with a color-
// and carrier-preserving simplicial map SDS^k(sⁿ) → SDS^target(sⁿ). When
// no k ≤ MaxK has one, the proof is the answer (NoMap), cached like any
// other.
func (e *Engine) Converge(ctx context.Context, req ConvergeRequest) (*ConvergeResponse, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	v, err := e.do(ctx, "converge", req.Key(), func(cctx context.Context) (any, error) {
		base := topology.Simplex(req.N)
		a, err := topology.Subdivide(cctx, base, req.Target, nil)
		if err != nil {
			return nil, err
		}
		resp := &ConvergeResponse{N: req.N, Target: req.Target, MaxK: req.MaxK, TargetVertices: a.NumVertices()}
		phi, k, err := converge.FindChromaticMapCtx(cctx, base, a, req.MaxK)
		if errors.Is(err, converge.ErrNotFound) {
			resp.K, resp.NoMap = req.MaxK, true
			resp.DomainVertices, _, err = topology.SDSLevelSize(base, req.MaxK)
			return resp, err
		}
		if err != nil {
			return nil, err
		}
		resp.K = k
		resp.Simplicial = phi.Validate() == nil
		resp.ColorPreserving = phi.ColorPreserving()
		resp.CarrierRespecting = phi.CarrierRespecting()
		resp.DomainVertices = phi.From.NumVertices()
		return resp, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ConvergeResponse), nil
}

// Adversary replays a deterministic schedule (cached — the replay is a pure
// function of the request).
func (e *Engine) Adversary(ctx context.Context, req AdversaryRequest) (*AdversaryResponse, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	v, err := e.do(ctx, "adversary", req.Key(), func(cctx context.Context) (any, error) {
		if err := cctx.Err(); err != nil {
			return nil, err
		}
		return RunAdversary(req)
	})
	if err != nil {
		return nil, err
	}
	return v.(*AdversaryResponse), nil
}
