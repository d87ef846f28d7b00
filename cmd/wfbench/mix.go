package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"strconv"

	"waitfree/internal/engine"
)

// query is one distinct request of a workload. The typed engine request
// fixes both the URL the client sends and the cache key the engine files
// the answer under; golden, when set, checks the answer against theory.
type query struct {
	path   string
	key    string
	req    any // engine.SolveRequest | ComplexRequest | ConvergeRequest | AdversaryRequest
	golden func(body []byte) error
}

// solveRow is one pinned verdict: the E6 table of EXPERIMENTS.md and the
// 14-row model matrix of internal/solver's TestModelMatrix, as the service
// must answer them.
type solveRow struct {
	spec     engine.TaskSpec
	maxb     int
	model    string // "" = no model parameter on the URL
	solvable bool
	level    int // checked when solvable
}

func consensus(p int) engine.TaskSpec { return engine.TaskSpec{Family: "consensus", Procs: p} }
func setConsensus(p, k int) engine.TaskSpec {
	return engine.TaskSpec{Family: "set-consensus", Procs: p, K: k}
}
func approx(d int) engine.TaskSpec { return engine.TaskSpec{Family: "approx-agreement", D: d} }

// e6Rows is the E6 verdict table (EXPERIMENTS.md E6, TestE6VerdictTable).
var e6Rows = []solveRow{
	{engine.TaskSpec{Family: "identity", Procs: 3}, 0, "", true, 0},
	{setConsensus(3, 3), 0, "", true, 0},
	{engine.TaskSpec{Family: "renaming", Procs: 2, M: 3}, 0, "", true, 0},
	{approx(2), 2, "", true, 1},
	{approx(4), 2, "", true, 2},
	{consensus(2), 3, "", false, 0},
	{consensus(3), 1, "", false, 0},
	{setConsensus(3, 2), 1, "", false, 0},
}

// matrixRows is the model matrix (TestModelMatrix): FLP, Chaudhuri–BG,
// Gafni–Guerraoui, DLPSW and Herlihy verdicts under affine models.
var matrixRows = []solveRow{
	{consensus(3), 2, "wait-free", false, 0},
	{consensus(3), 2, "1-resilient", false, 0},
	{consensus(3), 2, "2-concurrency", false, 0},
	{setConsensus(3, 2), 1, "wait-free", false, 0},
	{setConsensus(3, 2), 2, "1-resilient", true, 1},
	{setConsensus(3, 2), 2, "2-concurrency", true, 1},
	{approx(2), 2, "wait-free", true, 1},
	{approx(2), 2, "1-resilient", true, 1},
	{approx(2), 2, "2-concurrency", true, 1},
	{consensus(2), 2, "0-resilient", true, 1},
	{consensus(3), 2, "0-resilient", true, 1},
	{consensus(2), 2, "1-resilient", false, 0},
	{consensus(2), 2, "1-concurrency", true, 1},
	{consensus(3), 2, "1-set", true, 1},
}

// heavyRow is the mix's one expensive query: 4-process consensus, decided
// unsolvable at b ≤ 2 by propagation alone (0 search nodes) over 90,000
// facets. It is where a cold pass spends most of its time.
var heavyRow = solveRow{consensus(4), 2, "", false, 0}

// complexGolden is the Lemma 3.3 size table of SDS^b(sⁿ) for every (n, b)
// the service admits (n ≤ 3, b ≤ 3, not n = 3 with b ≥ 2): facets are
// Fubini(n+1)^b, vertices as pinned by internal/topology's golden test.
var complexGolden = []struct{ n, b, vertices, facets int }{
	{0, 0, 1, 1}, {0, 1, 1, 1}, {0, 2, 1, 1}, {0, 3, 1, 1},
	{1, 0, 2, 1}, {1, 1, 4, 3}, {1, 2, 10, 9}, {1, 3, 28, 27},
	{2, 0, 3, 1}, {2, 1, 12, 13}, {2, 2, 99, 169}, {2, 3, 1140, 2197},
	{3, 0, 4, 1}, {3, 1, 32, 75},
}

// convergeGolden pins Theorem 5.1's level: the smallest k with a chromatic,
// carrier-respecting map SDS^k(sⁿ) → SDS^target(sⁿ) is the target itself.
var convergeGolden = []struct{ n, target, maxk, k int }{
	{1, 2, 3, 2},
	{2, 1, 2, 1},
}

// mixReplay is the mix's one adversary replay (a deterministic schedule).
var mixReplay = engine.AdversaryRequest{Algo: "renaming", Adversary: "random", Seed: 42, Procs: 3}

// queryMix returns the ≈40-query mix: the heavy query, the E6 table, the
// model matrix, the complex grid, the converge queries and one replay.
func queryMix() []query {
	qs := []query{solveQuery(heavyRow)}
	for _, r := range e6Rows {
		qs = append(qs, solveQuery(r))
	}
	for _, r := range matrixRows {
		qs = append(qs, solveQuery(r))
	}
	for _, g := range complexGolden {
		g := g
		req := engine.ComplexRequest{N: g.n, B: g.b}
		qs = append(qs, query{
			path: "/v1/complex?" + url.Values{"n": {strconv.Itoa(g.n)}, "b": {strconv.Itoa(g.b)}}.Encode(),
			key:  req.Key(),
			req:  req,
			golden: func(body []byte) error {
				var r engine.ComplexResponse
				if err := json.Unmarshal(body, &r); err != nil {
					return err
				}
				if r.Facets != g.facets || r.Vertices != g.vertices || !r.Chromatic || !r.Pure {
					return fmt.Errorf("SDS^%d(s%d): %d facets, %d vertices, chromatic=%v pure=%v; Lemma 3.3 says %d facets, %d vertices",
						g.b, g.n, r.Facets, r.Vertices, r.Chromatic, r.Pure, g.facets, g.vertices)
				}
				return nil
			},
		})
	}
	for _, g := range convergeGolden {
		g := g
		req := engine.ConvergeRequest{N: g.n, Target: g.target, MaxK: g.maxk}
		qs = append(qs, query{
			path: "/v1/converge?" + url.Values{
				"n": {strconv.Itoa(g.n)}, "target": {strconv.Itoa(g.target)}, "maxk": {strconv.Itoa(g.maxk)},
			}.Encode(),
			key: req.Key(),
			req: req,
			golden: func(body []byte) error {
				var r engine.ConvergeResponse
				if err := json.Unmarshal(body, &r); err != nil {
					return err
				}
				if r.K != g.k || !r.Simplicial || !r.ColorPreserving || !r.CarrierRespecting {
					return fmt.Errorf("converge n=%d target=%d: k=%d simplicial=%v color=%v carrier=%v; want k=%d and a valid map",
						g.n, g.target, r.K, r.Simplicial, r.ColorPreserving, r.CarrierRespecting, g.k)
				}
				return nil
			},
		})
	}
	return append(qs, adversaryQuery(mixReplay))
}

func solveQuery(r solveRow) query {
	req := engine.SolveRequest{Spec: r.spec, MaxLevel: r.maxb, Model: r.model}
	v := url.Values{"family": {r.spec.Family}, "maxb": {strconv.Itoa(r.maxb)}}
	for name, x := range map[string]int{"procs": r.spec.Procs, "k": r.spec.K, "d": r.spec.D, "m": r.spec.M} {
		if x != 0 {
			v.Set(name, strconv.Itoa(x))
		}
	}
	if r.model != "" {
		v.Set("model", r.model)
	}
	return query{
		path: "/v1/solve?" + v.Encode(),
		key:  req.Key(),
		req:  req,
		golden: func(body []byte) error {
			var s engine.SolveResponse
			if err := json.Unmarshal(body, &s); err != nil {
				return err
			}
			if s.Solvable != r.solvable || (r.solvable && (s.Level != r.level || !s.MapVerified)) {
				return fmt.Errorf("%s model=%q maxb=%d: solvable=%v level=%d verified=%v; want solvable=%v level=%d",
					r.spec.Canonical(), r.model, r.maxb, s.Solvable, s.Level, s.MapVerified, r.solvable, r.level)
			}
			return nil
		},
	}
}

// adversaryQuery builds a replay query. Its golden only checks that the
// answer echoes the request: the replay's bytes are pinned by comparing
// every later answer to the first and by recomputing a sample afresh.
func adversaryQuery(req engine.AdversaryRequest) query {
	return query{
		path: "/v1/adversary?" + url.Values{
			"algo": {req.Algo}, "adversary": {req.Adversary},
			"seed": {strconv.FormatInt(req.Seed, 10)}, "procs": {strconv.Itoa(req.Procs)},
		}.Encode(),
		key: req.Key(),
		req: req,
		golden: func(body []byte) error {
			var r engine.AdversaryResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if r.Algo != req.Algo || r.Seed != req.Seed || r.Procs != req.Procs || len(r.Statuses) != req.Procs {
				return fmt.Errorf("replay %s seed=%d: answer echoes algo=%s seed=%d procs=%d", req.Algo, req.Seed, r.Algo, r.Seed, r.Procs)
			}
			return nil
		},
	}
}

// replayAlgos are the runtimes the replay key spaces cycle through.
var replayAlgos = []string{"commitadopt", "setconsensus", "renaming"}

// replayKeys returns n adversary replays, key i replaying the random
// adversary with seed i over one of replayAlgos.
func replayKeys(n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = adversaryQuery(engine.AdversaryRequest{
			Algo: replayAlgos[i%len(replayAlgos)], Adversary: "random", Seed: int64(i), Procs: 3,
		})
	}
	return qs
}

// seqLen is the length of a generated request sequence; longer runs cycle
// it. 2^17 entries cover every churn-spill run without repeating and keep
// the sequence (4 bytes an entry) out of the heap measurement's way.
const seqLen = 1 << 17

// nodeShift splits a sequence entry into the target node (high bits) and
// the query index (low bits).
const nodeShift = 28

// sequence is a workload's request order, generated from the seed alone.
type sequence []uint32

func (s sequence) at(i int) (node, key int) {
	e := s[i%len(s)]
	return int(e >> nodeShift), int(e & (1<<nodeShift - 1))
}

// workloadRand returns the workload's generator for seed: distinct
// workloads draw independent streams from one seed.
func workloadRand(name string, seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// uniformSeq draws n requests uniformly over nkeys queries, all to node 0.
func uniformSeq(r *rand.Rand, n, nkeys int) sequence {
	s := make(sequence, n)
	for i := range s {
		s[i] = uint32(r.Intn(nkeys))
	}
	return s
}

// passSeq concatenates passes seeded permutations of nkeys queries: pass p
// is positions p·nkeys … (p+1)·nkeys−1.
func passSeq(r *rand.Rand, passes, nkeys int) sequence {
	s := make(sequence, 0, passes*nkeys)
	for p := 0; p < passes; p++ {
		for _, k := range r.Perm(nkeys) {
			s = append(s, uint32(k))
		}
	}
	return s
}

// zipfSeq draws n requests Zipf(s=1.1) over nkeys queries and sends each to
// one of nodes nodes at random. Popularity ranks are a seeded permutation of
// the queries, except that the first head queries always hold the head
// ranks: the query mix stays the popular core and the replays are the long
// tail. Within the head, query 0 — the mix's heavy query — is always the
// most popular, so no cache ever evicts it and it is computed once, in
// set-up; a recomputation would stall a client for most of a second at a
// seed-dependent moment.
func zipfSeq(r *rand.Rand, n, nkeys, head, nodes int) sequence {
	rank := make([]int, nkeys)
	if head > 0 {
		for i, p := range r.Perm(head - 1) {
			rank[1+i] = 1 + p
		}
	}
	for i, p := range r.Perm(nkeys - head) {
		rank[head+i] = head + p
	}
	z := rand.NewZipf(r, 1.1, 1, uint64(nkeys-1))
	s := make(sequence, n)
	for i := range s {
		s[i] = uint32(rank[z.Uint64()]) | uint32(r.Intn(nodes))<<nodeShift
	}
	return s
}
