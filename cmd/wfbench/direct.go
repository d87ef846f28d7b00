package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"waitfree/internal/converge"
	"waitfree/internal/engine"
	"waitfree/internal/model"
	"waitfree/internal/solver"
	"waitfree/internal/topology"
)

// directOut is what the direct phase timed. The compute layers behind the
// engine's cache — subdivision, solver, converge, replay — have no seam the
// running stack exposes, so the direct phase calls them itself on the
// workload's distinct inputs, the way one cold pass of the engine would:
// each subdivision level is built once and shared by every query over the
// same input complex and model.
type directOut struct {
	subdivideMs, solveMs, convergeMs float64 // one pass over the distinct inputs
	heavySubdivideMs, heavySolveMs   float64 // the heavy query's share
	facets, nodes                    int64
	replayUs                         []float64 // per replay
	hitUs, admitUs, encodeUs         []float64 // per distinct query
	decodeUs                         []float64 // per cached artifact
}

// costReps is how many times each sub-microsecond call is repeated, so the
// per-call time is above the clock's resolution.
const costReps = 100

// maxDecodeBytes skips artifacts above the cluster's fetch bound for keys
// whose size is not priced (engine.FetchByteLimit's 1 MiB floor): a peer
// never decodes a larger one.
const maxDecodeBytes = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// direct times the layers on qs, using eng — an engine that served the
// workload — for the cache-hit, encode and decode paths.
func direct(qs []query, heavyKey string, eng *engine.Engine) (*directOut, error) {
	// Queries sharing a cache key (a matrix row that repeats an E6 row) are
	// one computation to the engine, so they are one here.
	seen := map[string]bool{}
	var distinct []query
	for _, q := range qs {
		if !seen[q.key] {
			seen[q.key] = true
			distinct = append(distinct, q)
		}
	}
	qs = distinct
	ctx := context.Background()
	out := &directOut{}
	workers := runtime.NumCPU() // the engine's default
	type chainKey struct{ base, model string }
	chains := map[chainKey][]*topology.Complex{}
	level := func(base *topology.Complex, hash string, spec model.Spec, b int, heavy bool) (*topology.Complex, error) {
		ck := chainKey{hash, spec.Canonical()}
		ch := chains[ck]
		if ch == nil {
			ch = []*topology.Complex{base}
		}
		for len(ch) <= b {
			t0 := time.Now()
			sub, err := topology.SDSParallelCtx(ctx, ch[len(ch)-1], workers)
			if err != nil {
				return nil, err
			}
			if f := spec.Filter(); f != nil {
				if sub, err = topology.RestrictSDS(sub, f); err != nil {
					return nil, err
				}
			}
			d := ms(time.Since(t0))
			out.subdivideMs += d
			out.facets += int64(len(sub.Facets()))
			if heavy {
				out.heavySubdivideMs += d
			}
			ch = append(ch, sub)
		}
		chains[ck] = ch
		return ch[b], nil
	}
	for _, q := range qs {
		heavy := q.key == heavyKey
		switch req := q.req.(type) {
		case engine.SolveRequest:
			task, err := req.Spec.Build()
			if err != nil {
				return nil, err
			}
			spec, err := model.Parse(req.Model)
			if err != nil {
				return nil, err
			}
			opts := solver.Options{MaxNodes: engine.DefaultMaxNodes, Workers: workers}
			if !spec.IsWaitFree() {
				opts.Model = spec.Canonical()
			}
			hash := task.Inputs.CanonicalHash()
			for b := 0; b <= req.MaxLevel; b++ {
				sub, err := level(task.Inputs, hash, spec, b, heavy)
				if err != nil {
					return nil, err
				}
				t0 := time.Now()
				res, err := solver.SolveAtLevelOn(ctx, task, b, sub, opts)
				if err == nil && res.Solvable {
					err = solver.VerifyDecisionMap(task, res)
				}
				d := ms(time.Since(t0))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", q.path, err)
				}
				out.solveMs += d
				out.nodes += res.Nodes
				if heavy {
					out.heavySolveMs += d
				}
				if res.Solvable {
					break
				}
			}
		case engine.ComplexRequest:
			base := topology.Simplex(req.N)
			if _, err := level(base, base.CanonicalHash(), model.WaitFree(), req.B, heavy); err != nil {
				return nil, err
			}
		case engine.ConvergeRequest:
			base := topology.Simplex(req.N)
			a, err := level(base, base.CanonicalHash(), model.WaitFree(), req.Target, heavy)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			if _, _, err := converge.FindChromaticMapCtx(ctx, a.Base(), a, req.MaxK); err != nil {
				return nil, fmt.Errorf("%s: %w", q.path, err)
			}
			out.convergeMs += ms(time.Since(t0))
		case engine.AdversaryRequest:
			t0 := time.Now()
			if _, err := engine.RunAdversary(req); err != nil {
				return nil, fmt.Errorf("%s: %w", q.path, err)
			}
			out.replayUs = append(out.replayUs, us(time.Since(t0)))
		}
	}
	for _, q := range qs {
		// The first call makes the answer a memory hit; the second is timed.
		if _, err := callEngine(ctx, eng, q.req); err != nil {
			return nil, fmt.Errorf("%s: %w", q.path, err)
		}
		t0 := time.Now()
		resp, err := callEngine(ctx, eng, q.req)
		out.hitUs = append(out.hitUs, us(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.path, err)
		}
		cr := q.req.(interface{ EstimateCost() (int64, error) })
		t0 = time.Now()
		for i := 0; i < costReps; i++ {
			if _, err := cr.EstimateCost(); err != nil {
				return nil, fmt.Errorf("%s: %w", q.path, err)
			}
		}
		out.admitUs = append(out.admitUs, us(time.Since(t0))/costReps)
		t0 = time.Now()
		for i := 0; i < costReps; i++ {
			if err := engine.WriteJSON(io.Discard, resp); err != nil {
				return nil, err
			}
		}
		out.encodeUs = append(out.encodeUs, us(time.Since(t0))/costReps)
	}
	keys := make([]string, 0, len(qs))
	for _, q := range qs {
		keys = append(keys, q.key)
	}
	for _, k := range eng.CachedKeys(0) {
		if strings.HasPrefix(k, "sds:") {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		payload, _, ok := eng.EncodedArtifact(k)
		if !ok || len(payload) > maxDecodeBytes {
			continue
		}
		t0 := time.Now()
		if err := decodeArtifact(k, payload); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", k, err)
		}
		out.decodeUs = append(out.decodeUs, us(time.Since(t0)))
	}
	return out, nil
}

// callEngine sends a typed request to the engine method that serves it.
func callEngine(ctx context.Context, eng *engine.Engine, req any) (any, error) {
	switch r := req.(type) {
	case engine.SolveRequest:
		return eng.Solve(ctx, r)
	case engine.ComplexRequest:
		return eng.ComplexInfo(ctx, r)
	case engine.ConvergeRequest:
		return eng.Converge(ctx, r)
	case engine.AdversaryRequest:
		return eng.Adversary(ctx, r)
	}
	return nil, fmt.Errorf("unknown request type %T", req)
}

// decodeArtifact decodes an encoded cache artifact the way peer fill and
// the spill tier do: complexes with DecodeComplexGob, answers with gob.
func decodeArtifact(key string, payload []byte) error {
	var v any
	switch key[:strings.IndexByte(key, ':')] {
	case "sds":
		_, err := engine.DecodeComplexGob(payload)
		return err
	case "solve":
		v = new(engine.SolveResponse)
	case "cx":
		v = new(engine.ComplexResponse)
	case "conv":
		v = new(engine.ConvergeResponse)
	case "adv":
		v = new(engine.AdversaryResponse)
	default:
		return fmt.Errorf("no codec for key %q", key)
	}
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}
