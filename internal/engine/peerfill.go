package engine

import (
	"context"
	"fmt"
	"slices"

	"waitfree/internal/obs"
	"waitfree/internal/topology"
)

// PeerFiller fetches finished, encoded artifacts from the peer that owns
// their cache key on the cluster's hash ring. internal/cluster implements
// it; the engine stays ignorant of rings, HTTP, and membership — it only
// knows that some keys may already be answered elsewhere.
type PeerFiller interface {
	// Fetch returns the encoded artifact for key and a short source label
	// (the owning peer's address).
	//
	// A (nil, "", nil) return means peer fill does not apply to this key —
	// it is locally owned, or no cluster is configured — and is not counted
	// as a fill miss. Any error is a fill miss: the caller computes locally.
	// The payload must already be verified against its SHA-256 content
	// address by the implementation; the engine still treats it as
	// untrusted input (a decode failure is a miss, never a crash).
	Fetch(ctx context.Context, key string) (payload []byte, source string, err error)
}

// SetPeerFiller installs the cluster's peer cache-fill hook. Call once,
// before the engine starts serving queries — the field is read without
// synchronization on the query path.
func (e *Engine) SetPeerFiller(f PeerFiller) { e.peerFill = f }

// tryPeerFill attempts to answer a missed key from the owning peer's cache
// instead of computing: fetch the encoded artifact (content-address
// verified by the filler), decode it with the key kind's spill codec, and
// admit it to the local store. Runs inside the singleflight compute, so N
// local waiters on one key cost one peer fetch — and with every node
// forwarding cold non-owned queries to the owner, one search cluster-wide.
//
// Every failure path returns (nil, false) and the caller computes locally:
// peer fill is an optimization with the same trust model as the spill tier —
// best-effort, verified, and never load-bearing for correctness.
func (e *Engine) tryPeerFill(ctx context.Context, op, key string) (any, bool) {
	pf := e.peerFill
	if pf == nil {
		return nil, false
	}
	codec, ok := e.cache.codecs[kindOf(key)]
	if !ok {
		return nil, false
	}
	_, span := obs.StartSpan(ctx, "cluster.fill")
	span.SetStr("op", op)
	defer span.Finish()
	payload, source, err := pf.Fetch(ctx, key)
	if err == nil && payload == nil && source == "" {
		span.SetStr("cluster.fill_source", "skip") // locally owned key
		return nil, false
	}
	if err != nil {
		e.metrics.Inc("cluster_peer_fill_miss")
		span.SetStr("cluster.fill_source", "miss")
		return nil, false
	}
	v, err := codec.decode(payload)
	if err != nil {
		e.metrics.Inc("cluster_peer_fill_miss")
		e.metrics.Inc("cluster_peer_fill_decode_errors")
		span.SetStr("cluster.fill_source", "decode_error")
		return nil, false
	}
	if !answersKey(key, v) {
		e.metrics.Inc("cluster_peer_fill_miss")
		e.metrics.Inc("cluster_peer_fill_rejected")
		span.SetStr("cluster.fill_source", "rejected")
		return nil, false
	}
	e.cache.Put(key, v)
	e.metrics.Inc("cluster_peer_fill_hit")
	span.SetStr("cluster.fill_source", source)
	return v, true
}

// TryPeerFill is the serving layer's routing probe: before forwarding a
// non-owned query, ask the owner for the finished artifact — a repeated
// query landing on a non-owner becomes one small artifact fetch plus a
// local cache hit, no forward and no recompute. Returns whether the key is
// now answerable from the local store.
func (e *Engine) TryPeerFill(ctx context.Context, key string) bool {
	_, ok := e.tryPeerFill(ctx, "route", key)
	return ok
}

// AdmitEncoded decodes a content-address-verified encoded artifact and
// admits it to the local store: the anti-entropy half of peer fill, where
// the new owner pulls instead of a querier fetching. Same trust model as
// tryPeerFill — the payload is untrusted input, a decode failure is a
// rejection, never a crash.
func (e *Engine) AdmitEncoded(key string, payload []byte) bool {
	codec, ok := e.cache.codecs[kindOf(key)]
	if !ok {
		return false
	}
	v, err := codec.decode(payload)
	if err != nil {
		e.metrics.Inc("cluster_peer_fill_decode_errors")
		return false
	}
	if !answersKey(key, v) {
		e.metrics.Inc("cluster_peer_fill_rejected")
		return false
	}
	e.cache.Put(key, v)
	return true
}

// answersKey reports whether a decoded peer artifact answers its key, as
// far as that can be checked without computing it. A cx: answer is checked
// in full against the closed form (topology.SDSLevelSize, SDSFVector): it
// must echo the key's n and b and have the vertex, facet and f-vector
// counts of SDS^b(sⁿ), Euler characteristic 1 (a subdivided simplex is
// contractible), and be chromatic and pure. Its hash is not recomputed and
// stays trusted-peer (DESIGN §13). A conv: answer must equal its closed
// form field for field (convergeClosedForm). Both key kinds parse strictly
// and must lie in the box the engine answers, so an alias such as
// "cx:n=2:b=1:junk" answers nothing. Other kinds pass unchecked.
func answersKey(key string, v any) bool {
	switch r := v.(type) {
	case *ComplexResponse:
		req, ok := parseComplexKey(key)
		if !ok || req.validate() != nil || r.N != req.N || r.B != req.B {
			return false
		}
		base := topology.Simplex(req.N)
		vertices, facets, err := topology.SDSLevelSize(base, req.B)
		if err != nil {
			return false
		}
		fv, err := topology.SDSFVector(topology.SimplexFVector(req.N), req.B)
		return err == nil && r.Vertices == vertices && r.Facets == facets && slices.Equal(r.FVector, fv) &&
			r.Euler == 1 && r.Chromatic && r.Pure
	case *ConvergeResponse:
		req, ok := parseConvergeKey(key)
		if !ok || req.validate() != nil {
			return false
		}
		want, err := convergeClosedForm(req)
		return err == nil && *r == *want
	}
	return true
}

// convergeClosedForm is the answer to every converge query the engine
// admits: SDS^target(sⁿ) is first reached at k = target, by the identity,
// so a map is found at k = target when MaxK reaches it and at no k ≤ MaxK
// otherwise (converge's TestAdmittedQueries pins both).
func convergeClosedForm(req ConvergeRequest) (*ConvergeResponse, error) {
	base, found := topology.Simplex(req.N), req.MaxK >= req.Target
	r := &ConvergeResponse{N: req.N, Target: req.Target, MaxK: req.MaxK, K: min(req.Target, req.MaxK),
		Simplicial: found, ColorPreserving: found, CarrierRespecting: found, NoMap: !found}
	var err error
	if r.DomainVertices, _, err = topology.SDSLevelSize(base, r.K); err != nil {
		return nil, err
	}
	r.TargetVertices, _, err = topology.SDSLevelSize(base, req.Target)
	return r, err
}

// parseComplexKey parses a cx: key strictly: the key must be exactly what
// ComplexRequest.Key renders for the parameters read from it, so signs,
// leading zeros and trailing text are refused rather than aliased.
func parseComplexKey(key string) (ComplexRequest, bool) {
	var r ComplexRequest
	if _, err := fmt.Sscanf(key, "cx:n=%d:b=%d", &r.N, &r.B); err != nil || r.Key() != key {
		return ComplexRequest{}, false
	}
	return r, true
}

// parseConvergeKey parses a conv: key as strictly as parseComplexKey.
func parseConvergeKey(key string) (ConvergeRequest, bool) {
	var r ConvergeRequest
	if _, err := fmt.Sscanf(key, "conv:n=%d:target=%d:maxk=%d", &r.N, &r.Target, &r.MaxK); err != nil || r.Key() != key {
		return ConvergeRequest{}, false
	}
	return r, true
}

// CachedKeys lists up to max finished memory-tier cache keys, MRU first —
// the inventory a rebalancing peer walks to find keys it now owns. Bounded
// so the peer-internal listing stays one small response even on a node
// whose cache has grown large.
func (e *Engine) CachedKeys(max int) []string {
	keys := e.cache.Keys()
	if max > 0 && len(keys) > max {
		keys = keys[:max]
	}
	return keys
}

// Cost-to-bytes scaling for FetchByteLimit. Artifacts are DTO encodings
// whose size grows with the answer's combinatorics, not the search cost, so
// the per-cost-unit allowance is deliberately generous — the bound exists to
// stop a malicious peer streaming gigabytes, not to be tight.
const (
	fetchLimitBase    = 1 << 20  // floor: any artifact may be up to 1 MiB
	fetchLimitMax     = 64 << 20 // ceiling, even for unbounded estimates
	fetchBytesPerCost = 64
)

// FetchByteLimit bounds the acceptable encoded-artifact size for a cache
// key, derived from the same closed-form cost estimate that prices
// admission: keys whose parameters are recoverable from the key string
// (cx:, conv:, parsed strictly by parseComplexKey and parseConvergeKey)
// scale with their Lemma 3.3 facet count; opaque and malformed keys
// (solve: carries a spec hash, adv: an algorithm name) get the flat floor,
// which comfortably covers their small fixed-shape DTOs.
func (e *Engine) FetchByteLimit(key string) int64 {
	var cost int64
	switch kindOf(key) {
	case "cx":
		if req, ok := parseComplexKey(key); ok {
			if c, err := req.EstimateCost(); err == nil {
				cost = c
			}
		}
	case "conv":
		if req, ok := parseConvergeKey(key); ok {
			if c, err := req.EstimateCost(); err == nil {
				cost = c
			}
		}
	}
	limit := int64(fetchLimitBase)
	if cost > 0 {
		limit = satAdd(limit, satMul(cost, fetchBytesPerCost))
	}
	if limit > fetchLimitMax {
		limit = fetchLimitMax
	}
	return limit
}

// EncodedArtifact returns the spill-codec encoding of the artifact cached
// under key (memory or disk tier), for serving to peers. The encoding is
// deterministic for a given artifact, so every node serves byte-identical
// payloads — which is what makes the SHA-256 the artifact's content address
// rather than a per-node checksum.
func (e *Engine) EncodedArtifact(key string) (payload []byte, tier string, ok bool) {
	codec, hasCodec := e.cache.codecs[kindOf(key)]
	if !hasCodec {
		return nil, "", false
	}
	v, tier, ok := e.cache.GetTier(key)
	if !ok {
		return nil, "", false
	}
	data, err := codec.encode(v)
	if err != nil {
		return nil, "", false
	}
	return data, tier, true
}
