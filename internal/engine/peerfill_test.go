package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"waitfree/internal/topology"
)

// fakeFiller is a canned PeerFiller: returns the same (payload, source, err)
// on every Fetch and counts calls.
type fakeFiller struct {
	payload []byte
	source  string
	err     error
	calls   atomic.Int32
}

func (f *fakeFiller) Fetch(ctx context.Context, key string) ([]byte, string, error) {
	f.calls.Add(1)
	return f.payload, f.source, f.err
}

// fillSolveReq is a cheap solve query used across the fill tests.
var fillSolveReq = SolveRequest{Spec: TaskSpec{Family: "identity", Procs: 2}, MaxLevel: 0}

// TestPeerFillHit proves a fill-answered query never computes: the filler
// serves an artifact with a sentinel verdict no local computation would
// produce, and that sentinel comes back to the caller.
func TestPeerFillHit(t *testing.T) {
	sentinel := &SolveResponse{Task: "identity", Spec: fillSolveReq.Spec, Verdict: "FILLED FROM PEER", Solvable: true}
	payload, err := gobEncode(sentinel)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	f := &fakeFiller{payload: payload, source: "http://peer-1"}
	e.SetPeerFiller(f)

	resp, err := e.Solve(context.Background(), fillSolveReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != "FILLED FROM PEER" {
		t.Fatalf("verdict %q — the engine computed instead of filling", resp.Verdict)
	}
	if got := e.Metrics().Counter("cluster_peer_fill_hit"); got != 1 {
		t.Fatalf("cluster_peer_fill_hit = %d, want 1", got)
	}
	if got := f.calls.Load(); got != 1 {
		t.Fatalf("filler called %d times, want 1", got)
	}

	// The filled artifact is admitted to the local cache: the repeat query
	// is a memory hit, no second fetch.
	if _, err := e.Solve(context.Background(), fillSolveReq); err != nil {
		t.Fatal(err)
	}
	if got := f.calls.Load(); got != 1 {
		t.Fatalf("repeat query re-fetched (calls=%d); want a local cache hit", got)
	}
	if got := e.Metrics().CacheHits.Load(); got != 1 {
		t.Fatalf("cache_hits = %d, want 1 for the repeat query", got)
	}
}

// TestPeerFillBadPayloadFallsBack pins the trust model: a payload that fails
// to decode is a miss and a local compute, never an error to the caller.
func TestPeerFillBadPayloadFallsBack(t *testing.T) {
	e := New(Options{})
	e.SetPeerFiller(&fakeFiller{payload: []byte("not a gob"), source: "http://peer-1"})
	resp, err := e.Solve(context.Background(), fillSolveReq)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Solvable || resp.Level != 0 {
		t.Fatalf("fallback compute produced a wrong verdict: %+v", resp)
	}
	m := e.Metrics()
	if m.Counter("cluster_peer_fill_miss") != 1 || m.Counter("cluster_peer_fill_decode_errors") != 1 {
		t.Fatalf("want 1 fill miss + 1 decode error, got miss=%d decode=%d",
			m.Counter("cluster_peer_fill_miss"), m.Counter("cluster_peer_fill_decode_errors"))
	}
	if m.Counter("cluster_peer_fill_hit") != 0 {
		t.Fatal("bad payload must not count as a fill hit")
	}
}

// TestPeerFillErrorFallsBack: a fetch error (owner down, 404, checksum
// mismatch — all surface as errors) means local compute.
func TestPeerFillErrorFallsBack(t *testing.T) {
	e := New(Options{})
	e.SetPeerFiller(&fakeFiller{err: errors.New("owner is down")})
	resp, err := e.Solve(context.Background(), fillSolveReq)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Solvable {
		t.Fatalf("fallback compute produced a wrong verdict: %+v", resp)
	}
	if got := e.Metrics().Counter("cluster_peer_fill_miss"); got != 1 {
		t.Fatalf("cluster_peer_fill_miss = %d, want 1", got)
	}
}

// TestPeerFillSkip: the (nil, "", nil) return — locally owned key — computes
// without counting a fill miss.
func TestPeerFillSkip(t *testing.T) {
	e := New(Options{})
	f := &fakeFiller{}
	e.SetPeerFiller(f)
	if _, err := e.Solve(context.Background(), fillSolveReq); err != nil {
		t.Fatal(err)
	}
	if f.calls.Load() == 0 {
		t.Fatal("filler was never consulted")
	}
	m := e.Metrics()
	if m.Counter("cluster_peer_fill_miss") != 0 || m.Counter("cluster_peer_fill_hit") != 0 {
		t.Fatalf("skip must count neither hit nor miss: hit=%d miss=%d",
			m.Counter("cluster_peer_fill_hit"), m.Counter("cluster_peer_fill_miss"))
	}
}

// TestEncodedArtifactRoundTrip pins the peer-serving side: the encoded
// artifact decodes back to the cached response, and the encoding is
// deterministic (two calls, identical bytes) — the property that makes its
// SHA-256 a content address.
func TestEncodedArtifactRoundTrip(t *testing.T) {
	e := New(Options{})
	req := ComplexRequest{N: 1, B: 1}
	want, err := e.ComplexInfo(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	payload, tier, ok := e.EncodedArtifact(req.Key())
	if !ok {
		t.Fatal("EncodedArtifact missed a just-computed key")
	}
	if tier != TierMemory {
		t.Fatalf("tier %q, want memory", tier)
	}
	var got ComplexResponse
	if err := gobDecode(payload, &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := EncodeJSON(&got)
	wantJSON, _ := EncodeJSON(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("artifact round-trip diverged: %s vs %s", gotJSON, wantJSON)
	}
	again, _, _ := e.EncodedArtifact(req.Key())
	if string(again) != string(payload) {
		t.Fatal("encoding is not deterministic — SHA-256 cannot be its content address")
	}
	if _, _, ok := e.EncodedArtifact("cx:n=3:b=3"); ok {
		t.Fatal("EncodedArtifact invented an uncached artifact")
	}
	if _, _, ok := e.EncodedArtifact("nokind:whatever"); ok {
		t.Fatal("EncodedArtifact served a key kind with no codec")
	}
}

// TestAdmitEncodedRoundTrip pins the anti-entropy admission half: the bytes
// EncodedArtifact serves on one node, AdmitEncoded accepts on another, and
// the admitted key answers from cache without recomputing.
func TestAdmitEncodedRoundTrip(t *testing.T) {
	src := New(Options{})
	req := ComplexRequest{N: 1, B: 1}
	want, err := src.ComplexInfo(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, ok := src.EncodedArtifact(req.Key())
	if !ok {
		t.Fatal("source artifact missing")
	}

	dst := New(Options{})
	if dst.HasCached(req.Key()) {
		t.Fatal("fresh engine already has the key")
	}
	if !dst.AdmitEncoded(req.Key(), payload) {
		t.Fatal("valid artifact rejected")
	}
	if !dst.HasCached(req.Key()) {
		t.Fatal("admitted key not cached")
	}
	got, err := dst.ComplexInfo(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := EncodeJSON(got)
	wantJSON, _ := EncodeJSON(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("admitted artifact diverged: %s vs %s", gotJSON, wantJSON)
	}

	// Untrusted input: garbage and codec-less kinds are rejections, never
	// panics, and a decode failure is counted.
	if dst.AdmitEncoded(req.Key(), []byte("not a gob")) {
		t.Fatal("garbage admitted")
	}
	if dst.Metrics().Counter("cluster_peer_fill_decode_errors") != 1 {
		t.Fatal("decode rejection not counted")
	}
	if dst.AdmitEncoded("nokind:whatever", payload) {
		t.Fatal("codec-less kind admitted")
	}
}

// TestCachedKeys: the inventory is MRU-first and bounded.
func TestCachedKeys(t *testing.T) {
	e := New(Options{})
	for _, req := range []ComplexRequest{{N: 1, B: 1}, {N: 2, B: 1}, {N: 1, B: 2}} {
		if _, err := e.ComplexInfo(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	keys := e.CachedKeys(0)
	if len(keys) < 3 {
		t.Fatalf("CachedKeys returned %d keys, want >= 3", len(keys))
	}
	if keys[0] != (ComplexRequest{N: 1, B: 2}).Key() {
		t.Fatalf("MRU key = %q, want the most recent query's", keys[0])
	}
	if got := e.CachedKeys(2); len(got) != 2 {
		t.Fatalf("bounded listing returned %d keys, want 2", len(got))
	}
}

// TestFetchByteLimit pins the cost-derived fetch bound: parseable keys scale
// with their facet-count estimate, opaque and malformed keys get the flat
// floor, and nothing escapes the ceiling.
func TestFetchByteLimit(t *testing.T) {
	e := New(Options{})
	small := e.FetchByteLimit("cx:n=1:b=1")
	big := e.FetchByteLimit("cx:n=3:b=3")
	if small < fetchLimitBase {
		t.Fatalf("limit %d below the floor", small)
	}
	if big <= small {
		t.Fatalf("cost scaling inverted: cx(3,3)=%d <= cx(1,1)=%d", big, small)
	}
	if big > fetchLimitMax {
		t.Fatalf("limit %d above the ceiling", big)
	}
	// A hostile key claiming absurd parameters saturates at the ceiling
	// instead of overflowing into a tiny or negative bound.
	absurd := "cx:n=2000000000:b=2000000000"
	if got := e.FetchByteLimit(absurd); got != fetchLimitMax {
		t.Fatalf("absurd parameters → %d, want the %d ceiling", got, fetchLimitMax)
	}
	// Pricing that key must not allocate anything proportional to n: a
	// peer's key inventory reaches this path, and the Fubini table for
	// n = 2e9 alone would be 16 GB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.FetchByteLimit(absurd)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("pricing %q allocated %d bytes, want < 1 MiB", absurd, grew)
	}
	for _, opaque := range []string{
		"solve:deadbeef:maxb=1:maxnodes=0",
		"adv:algo=x",
		"cx:garbage",
		"nokind",
	} {
		if got := e.FetchByteLimit(opaque); got != fetchLimitBase {
			t.Fatalf("FetchByteLimit(%q) = %d, want the flat %d floor", opaque, got, fetchLimitBase)
		}
	}
	if got := e.FetchByteLimit("conv:n=2:target=1:maxk=3"); got < fetchLimitBase {
		t.Fatalf("conv limit %d below floor", got)
	}
}

// TestPeerFillRejectsWrongComplex: a peer serving cx:n=2:b=2's answer under
// the key cx:n=2:b=1 is refused — the answer does not echo its key — and the
// engine computes the level itself. At the parent the substitute was
// admitted and served.
func TestPeerFillRejectsWrongComplex(t *testing.T) {
	src := New(Options{})
	deeper, err := src.ComplexInfo(context.Background(), ComplexRequest{N: 2, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := gobEncode(deeper)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	f := &fakeFiller{payload: payload, source: "http://peer-1"}
	e.SetPeerFiller(f)
	got, err := e.ComplexInfo(context.Background(), ComplexRequest{N: 2, B: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.B != 1 || got.Vertices != 12 || got.Facets != 13 {
		t.Fatalf("served %+v, want the locally computed SDS(s²)", got)
	}
	// The filler is asked once, for the answer: the local compute builds
	// its level in place and asks no peer for it.
	m := e.Metrics()
	if m.Counter("cluster_peer_fill_rejected") != 1 || m.Counter("cluster_peer_fill_hit") != 0 || f.calls.Load() != 1 {
		t.Fatalf("rejected=%d hit=%d calls=%d; want 1, 0, 1",
			m.Counter("cluster_peer_fill_rejected"), m.Counter("cluster_peer_fill_hit"), f.calls.Load())
	}
}

// TestAdmitEncodedChecksComplexAnswers: anti-entropy admission applies the
// same check. The true answer is admitted under its own key; every
// tampered field, a mismatched key, and keys that only parse loosely are
// refused and counted.
func TestAdmitEncodedChecksComplexAnswers(t *testing.T) {
	src := New(Options{})
	truth, err := src.ComplexInfo(context.Background(), ComplexRequest{N: 2, B: 1})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(r ComplexResponse) []byte {
		data, err := gobEncode(&r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	tamper := map[string]func(r *ComplexResponse){
		"vertices":  func(r *ComplexResponse) { r.Vertices++ },
		"facets":    func(r *ComplexResponse) { r.Facets-- },
		"f_vector":  func(r *ComplexResponse) { r.FVector = []int{12, 24, 14} },
		"euler":     func(r *ComplexResponse) { r.Euler = 2 },
		"chromatic": func(r *ComplexResponse) { r.Chromatic = false },
		"pure":      func(r *ComplexResponse) { r.Pure = false },
		"n":         func(r *ComplexResponse) { r.N = 1 },
	}
	e := New(Options{})
	rejected := int64(0)
	for field, f := range tamper {
		r := *truth
		r.FVector = append([]int(nil), truth.FVector...)
		f(&r)
		if e.AdmitEncoded("cx:n=2:b=1", encode(r)) {
			t.Errorf("answer with tampered %s admitted", field)
		}
		rejected++
	}
	for _, key := range []string{"cx:n=2:b=1:junk", "cx:n=+2:b=01", "cx:n=2:b=2", "cx:n=3:b=3"} {
		if e.AdmitEncoded(key, encode(*truth)) {
			t.Errorf("SDS(s²) admitted under %q", key)
		}
		rejected++
	}
	if got := e.Metrics().Counter("cluster_peer_fill_rejected"); got != rejected {
		t.Errorf("cluster_peer_fill_rejected = %d, want %d", got, rejected)
	}
	if !e.AdmitEncoded("cx:n=2:b=1", encode(*truth)) {
		t.Fatal("true answer refused")
	}
}

// TestConvergeAnswersMatchClosedForm: on every converge query the engine
// admits, the computed answer is the closed form that answersKey holds peer
// answers to, the six no-map answers included, and the encoded answer is
// admitted under its own key on another node.
func TestConvergeAnswersMatchClosedForm(t *testing.T) {
	e := New(Options{})
	noMap := 0
	for n := 1; n <= 2; n++ {
		for target := 1; target <= 2; target++ {
			for maxK := 0; maxK <= 4; maxK++ {
				req := ConvergeRequest{N: n, Target: target, MaxK: maxK}
				got, err := e.Converge(context.Background(), req)
				if err != nil {
					t.Fatalf("%+v: %v", req, err)
				}
				want, err := convergeClosedForm(req)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Errorf("%+v: computed %+v, closed form %+v", req, *got, *want)
				}
				if got.NoMap {
					noMap++
				}
				payload, _, ok := e.EncodedArtifact(req.Key())
				if !ok || !New(Options{}).AdmitEncoded(req.Key(), payload) {
					t.Errorf("%+v: own answer not admitted by a peer", req)
				}
			}
		}
	}
	if noMap != 6 {
		t.Errorf("%d no-map answers, want the 6 with max_k < target", noMap)
	}
}

// TestPeerFillRejectsWrongConvergeAnswers: a peer that answers a conv: key
// with "no map" where a map exists, or with a map found at the wrong k, is
// refused by anti-entropy and by fill, counted, and the node computes the
// true answer. At the parent both wrong answers echo their key's
// parameters and were admitted.
func TestPeerFillRejectsWrongConvergeAnswers(t *testing.T) {
	req := ConvergeRequest{N: 2, Target: 1, MaxK: 2}
	truth, err := convergeClosedForm(req)
	if err != nil {
		t.Fatal(err)
	}
	noMap := *truth
	noMap.K, noMap.NoMap = req.MaxK, true
	noMap.Simplicial, noMap.ColorPreserving, noMap.CarrierRespecting = false, false, false
	wrongK := *truth
	wrongK.K = 2
	for name, lie := range map[string]ConvergeResponse{"no map": noMap, "wrong k": wrongK} {
		t.Run(name, func(t *testing.T) {
			payload, err := gobEncode(&lie)
			if err != nil {
				t.Fatal(err)
			}
			e := New(Options{})
			if e.AdmitEncoded(req.Key(), payload) {
				t.Error("AdmitEncoded admitted the lie")
			}
			e.SetPeerFiller(&fakeFiller{payload: payload, source: "http://liar"})
			got, err := e.Converge(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *truth {
				t.Errorf("served %+v, want %+v", *got, *truth)
			}
			m := e.Metrics()
			if m.Counter("cluster_peer_fill_rejected") != 2 || m.Counter("cluster_peer_fill_hit") != 0 {
				t.Errorf("rejected=%d hit=%d; want 2, 0", m.Counter("cluster_peer_fill_rejected"), m.Counter("cluster_peer_fill_hit"))
			}
		})
	}
}

// TestFetchByteLimitStrictKeys: keys that only resemble a cx: or conv: key
// get the flat floor, not the bound of the key they resemble.
func TestFetchByteLimitStrictKeys(t *testing.T) {
	e := New(Options{})
	if e.FetchByteLimit("cx:n=2:b=1") == fetchLimitBase {
		t.Fatal("cx:n=2:b=1 should be priced")
	}
	for _, key := range []string{"cx:n=2:b=1:junk", "cx:n=+2:b=01", "cx:n=02:b=1", "conv:n=2:target=1:maxk=3x", "conv:n=2:target=+1:maxk=3"} {
		if got := e.FetchByteLimit(key); got != fetchLimitBase {
			t.Errorf("FetchByteLimit(%q) = %d, want the %d floor", key, got, fetchLimitBase)
		}
	}
}

// levelFiller answers every sds: key with a fixed payload and skips every
// other key, counting the sds: keys it is asked for: a peer that lies about
// subdivision levels and nothing else.
type levelFiller struct {
	payload []byte
	asked   atomic.Int32
}

func (f *levelFiller) Fetch(ctx context.Context, key string) ([]byte, string, error) {
	if !strings.HasPrefix(key, "sds:") {
		return nil, "", nil
	}
	f.asked.Add(1)
	return f.payload, "http://liar", nil
}

// TestLyingLevelFillerCannotChangeVerdict: a peer that answers every level
// with the task's input complex cannot change a verdict, because no query
// asks a peer for a level. approx-agreement d=2 is solvable at b = 1 over
// SDS(I)'s 12 facets. When levels were filled from peers, the node took
// the input complex as SDS(I) and answered "UNSOLVABLE for all b ≤ 2" over
// 4 facets.
func TestLyingLevelFillerCannotChangeVerdict(t *testing.T) {
	spec := TaskSpec{Family: "approx-agreement", D: 2}
	task, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeComplexGob(task.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	f := &levelFiller{payload: payload}
	e.SetPeerFiller(f)
	resp, err := e.Solve(context.Background(), SolveRequest{Spec: spec, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != "SOLVABLE at b = 1" || resp.SubdivisionFacets != 12 || !resp.MapVerified {
		t.Errorf("verdict %q over %d facets (map verified %v), want SOLVABLE at b = 1 over 12",
			resp.Verdict, resp.SubdivisionFacets, resp.MapVerified)
	}
	if n := f.asked.Load(); n != 0 {
		t.Errorf("the filler was asked for %d sds: keys, want 0", n)
	}
}

// TestAdmitEncodedRefusesLevels: anti-entropy admits no subdivision level,
// not even a true one, since no key kind stores a complex.
func TestAdmitEncodedRefusesLevels(t *testing.T) {
	base := topology.Simplex(2)
	for name, c := range map[string]*topology.Complex{"base": base, "SDS(s²)": topology.SDS(base)} {
		payload, err := EncodeComplexGob(c)
		if err != nil {
			t.Fatal(err)
		}
		e := New(Options{})
		if e.AdmitEncoded("sds:"+base.CanonicalHash()+":b=1", payload) {
			t.Errorf("%s admitted as a level", name)
		}
		if n := e.CacheLen(); n != 0 {
			t.Errorf("%s: store holds %d entries after a refusal", name, n)
		}
	}
}

// FuzzAdmitEncoded drives the peer-admission surface — the key parsers,
// the byte bound and the artifact check — with arbitrary keys and
// payloads. Neither AdmitEncoded nor FetchByteLimit may panic, the bound
// stays within [fetchLimitBase, fetchLimitMax], an admitted cx: or conv:
// key re-renders byte for byte from the parameters parsed out of it, and no
// sds: key is admitted.
func FuzzAdmitEncoded(f *testing.F) {
	truth, err := New(Options{}).ComplexInfo(context.Background(), ComplexRequest{N: 2, B: 1})
	if err != nil {
		f.Fatal(err)
	}
	answer, err := gobEncode(truth)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("cx:n=2:b=1", answer)
	for _, key := range []string{
		"cx:n=2000000000:b=2000000000",
		"solve:deadbeef:maxb=1:maxnodes=0",
		"adv:algo=x",
		"cx:garbage",
		"nokind",
	} {
		f.Add(key, answer)
	}
	base := topology.Simplex(2)
	level, err := EncodeComplexGob(topology.SDS(base))
	if err != nil {
		f.Fatal(err)
	}
	f.Add("sds:"+base.CanonicalHash()+":b=1", level)
	f.Fuzz(func(t *testing.T, key string, payload []byte) {
		e := New(Options{})
		if limit := e.FetchByteLimit(key); limit < fetchLimitBase || limit > fetchLimitMax {
			t.Fatalf("FetchByteLimit(%q) = %d, outside [%d, %d]", key, limit, fetchLimitBase, fetchLimitMax)
		}
		if !e.AdmitEncoded(key, payload) {
			return
		}
		switch kindOf(key) {
		case "sds":
			t.Fatalf("level key %q admitted", key)
		case "cx":
			if r, ok := parseComplexKey(key); !ok || r.Key() != key {
				t.Fatalf("admitted cx: key %q does not re-render", key)
			}
		case "conv":
			if r, ok := parseConvergeKey(key); !ok || r.Key() != key {
				t.Fatalf("admitted conv: key %q does not re-render", key)
			}
		}
	})
}
