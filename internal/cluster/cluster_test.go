package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waitfree/internal/engine"
)

func TestNormalizeAddr(t *testing.T) {
	cases := map[string]string{
		"localhost:9101":          "http://localhost:9101",
		"http://localhost:9101":   "http://localhost:9101",
		"http://localhost:9101/":  "http://localhost:9101",
		"  10.0.0.1:9100 ":        "http://10.0.0.1:9100",
		"https://node.internal:4": "https://node.internal:4",
		"":                        "",
		"   ":                     "",
	}
	for in, want := range cases {
		if got := NormalizeAddr(in); got != want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

// twoNode builds a cluster of self + one peer and returns it with a key the
// peer owns (found by scanning synthetic keys, since ownership is a hash).
func twoNode(t *testing.T, peerURL string, m *engine.Metrics) (*Cluster, string) {
	t.Helper()
	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{peerURL}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("solve:%016x:maxb=1", i)
		if owner, self := c.Owner(key); !self {
			if owner != NormalizeAddr(peerURL) {
				t.Fatalf("non-self owner %q is not the peer %q", owner, peerURL)
			}
			return c, key
		}
	}
	t.Fatal("no key owned by the peer in 4096 tries — the ring is broken")
	return nil, ""
}

// TestFetchVerifiesContentAddress pins the trust model: the fetcher admits a
// peer artifact only when the payload's SHA-256 matches the X-WFR-Sha256
// header. A peer serving corrupt bytes (or no header at all) becomes a fill
// miss, never a wrong artifact.
func TestFetchVerifiesContentAddress(t *testing.T) {
	payload := []byte("encoded artifact bytes")
	sum := sha256.Sum256(payload)
	goodSha := hex.EncodeToString(sum[:])

	var mode string // switched per subtest
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, ArtifactPath) {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		switch mode {
		case "good":
			w.Header().Set(HeaderSha256, goodSha)
			w.Header().Set(HeaderTier, "memory")
			w.Write(payload)
		case "corrupt": // valid-looking header, different bytes
			w.Header().Set(HeaderSha256, goodSha)
			w.Write([]byte("bitrot has happened to this artifact"))
		case "noheader":
			w.Write(payload)
		case "missing":
			http.Error(w, "no such artifact", http.StatusNotFound)
		}
	}))
	defer ts.Close()

	m := engine.NewMetrics()
	c, key := twoNode(t, ts.URL, m)
	ctx := context.Background()

	mode = "good"
	body, source, err := c.Fetch(ctx, key)
	if err != nil {
		t.Fatalf("verified fetch failed: %v", err)
	}
	if string(body) != string(payload) || source != NormalizeAddr(ts.URL) {
		t.Fatalf("fetch returned (%q, %q)", body, source)
	}

	for _, bad := range []string{"corrupt", "noheader"} {
		mode = bad
		before := m.Counter("cluster_peer_fill_sha_mismatch")
		if _, _, err := c.Fetch(ctx, key); err == nil {
			t.Fatalf("mode=%s: fetch must refuse a payload that fails verification", bad)
		}
		if got := m.Counter("cluster_peer_fill_sha_mismatch"); got != before+1 {
			t.Fatalf("mode=%s: sha mismatch counter %d, want %d", bad, got, before+1)
		}
	}

	mode = "missing"
	if _, _, err := c.Fetch(ctx, key); err == nil {
		t.Fatal("a 404 from the owner must be a fill miss")
	}
	// The peer answered every time — HTTP-level misses must not mark it sick.
	if st := c.State(NormalizeAddr(ts.URL)); st != PeerUp {
		t.Fatalf("peer state after HTTP-level misses = %s, want up", st)
	}
}

// TestFetchSelfOwnedSkips: keys this node owns return (nil, "", nil) — the
// no-op that tells the engine "you are the owner, compute".
func TestFetchSelfOwnedSkips(t *testing.T) {
	c, err := New(Options{Self: "http://self.invalid:1"})
	if err != nil {
		t.Fatal(err)
	}
	body, source, err := c.Fetch(context.Background(), "solve:abc:maxb=1")
	if body != nil || source != "" || err != nil {
		t.Fatalf("self-owned fetch = (%v, %q, %v), want (nil, \"\", nil)", body, source, err)
	}
}

// TestFetchDownOwnerFailsFast: a down owner is never dialed — the fetch
// errors immediately so the engine's local-compute fallback starts without
// burning a connect timeout per query.
func TestFetchDownOwnerFailsFast(t *testing.T) {
	m := engine.NewMetrics()
	c, key := twoNode(t, "http://192.0.2.1:9", m) // TEST-NET, never routable
	owner, _ := c.Owner(key)
	c.MarkFailure(owner)
	c.MarkFailure(owner)
	if st := c.State(owner); st != PeerDown {
		t.Fatalf("after two failures, state = %s, want down", st)
	}
	start := time.Now()
	if _, _, err := c.Fetch(context.Background(), key); err == nil {
		t.Fatal("fetch from a down owner must error")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("down-owner fetch took %s; it must not touch the network", elapsed)
	}
}

// TestPeerStateTransitions walks the health state machine: up → suspect on
// one failure, → down on the second (counted once), → up again on success.
func TestPeerStateTransitions(t *testing.T) {
	m := engine.NewMetrics()
	c, err := New(Options{
		Self:    "http://a:1",
		Peers:   []string{"http://b:1"},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	peer := "http://b:1"

	if st := c.State(peer); st != PeerUp {
		t.Fatalf("peers start optimistically up, got %s", st)
	}
	c.MarkFailure(peer)
	if st := c.State(peer); st != PeerSuspect {
		t.Fatalf("one failure → %s, want suspect", st)
	}
	if !c.Available(peer) {
		t.Fatal("suspect peers are still routed to")
	}
	c.MarkFailure(peer)
	if st := c.State(peer); st != PeerDown {
		t.Fatalf("two failures → %s, want down", st)
	}
	if c.Available(peer) {
		t.Fatal("down peers must not be routed to")
	}
	c.MarkFailure(peer) // further failures must not re-count the transition
	if got := m.Counter("cluster_peer_down_total"); got != 1 {
		t.Fatalf("cluster_peer_down_total = %d, want exactly 1 per up→down transition", got)
	}
	c.MarkSuccess(peer)
	if st := c.State(peer); st != PeerUp {
		t.Fatalf("success must recover the peer, got %s", st)
	}
	c.MarkFailure(peer)
	c.MarkFailure(peer)
	if got := m.Counter("cluster_peer_down_total"); got != 2 {
		t.Fatalf("second down transition must count again, got %d", got)
	}

	// Self and unknown nodes are inert.
	if st := c.State("http://a:1"); st != PeerUp {
		t.Fatalf("self is always up, got %s", st)
	}
	c.MarkFailure("http://nobody:1") // must not panic
	if st := c.State("http://nobody:1"); st != PeerDown {
		t.Fatalf("unknown nodes read down, got %s", st)
	}
}

// TestProberConvergesOnDeadPeer runs the real liveness loop against a port
// with nothing listening: the peer must converge to down within a few
// protocol periods, and a live listener appearing later must bring it back up
// (down members stay in the round-robin).
func TestProberConvergesOnDeadPeer(t *testing.T) {
	// Reserve an address, then free it so nothing is listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	m := engine.NewMetrics()
	c, err := New(Options{
		Self:           "http://self.invalid:1",
		Peers:          []string{addr},
		GossipInterval: 20 * time.Millisecond,
		ProbeTimeout:   100 * time.Millisecond,
		Metrics:        m,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)

	peer := NormalizeAddr(addr)
	deadline := time.Now().Add(5 * time.Second)
	for c.State(peer) != PeerDown {
		if time.Now().After(deadline) {
			t.Fatalf("liveness loop never marked the dead peer down (state=%s)", c.State(peer))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.Counter("cluster_peer_down_total") < 1 {
		t.Fatal("down transition not counted")
	}

	// Resurrect the address; the loop must recover the peer. Binding the
	// same port can race with the OS briefly, so retry.
	var ln2 net.Listener
	for i := 0; i < 50; i++ {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("re-binding %s: %v", addr, err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})}
	go hs.Serve(ln2)
	defer hs.Close()

	for c.State(peer) != PeerUp {
		if time.Now().After(deadline) {
			t.Fatalf("liveness loop never recovered the healed peer (state=%s)", c.State(peer))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// freeAddr reserves a local port and frees it, so nothing listens there and a
// dial fails at once.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return NormalizeAddr(addr)
}

// TestLoopProbesIndirectlyBeforeDown pins when the liveness loop may condemn
// a peer: a first failed exchange only makes it suspect; a failure while it
// is suspect asks an up helper first, and a helper that reaches it keeps it
// up. Only a failure the helper confirms marks it down.
func TestLoopProbesIndirectlyBeforeDown(t *testing.T) {
	target := freeAddr(t)
	var reach atomic.Bool
	reach.Store(true)
	helper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == GossipPath:
			w.Write([]byte(`{}`)) // alive but mute
		case r.URL.Path == ProbePath && r.URL.Query().Get("target") == target && reach.Load():
			w.WriteHeader(http.StatusNoContent)
		case r.URL.Path == ProbePath:
			w.WriteHeader(http.StatusBadGateway)
		default:
			http.NotFound(w, r)
		}
	}))
	defer helper.Close()

	m := engine.NewMetrics()
	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{helper.URL, target}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pass := func() { // two members, so one pass is two periods
		c.protocolPeriod(ctx)
		c.protocolPeriod(ctx)
	}

	pass()
	if st := c.State(target); st != PeerSuspect {
		t.Fatalf("after one failed exchange the target is %s, want suspect", st)
	}
	pass()
	if st := c.State(target); st != PeerUp {
		t.Fatalf("a helper reached the target, yet it is %s, want up", st)
	}
	if got := m.Counter("cluster_probe_indirect_ok"); got != 1 {
		t.Fatalf("cluster_probe_indirect_ok = %d, want 1", got)
	}

	reach.Store(false)
	pass()
	pass()
	if st := c.State(target); st != PeerDown {
		t.Fatalf("the helper failed too, yet the target is %s, want down", st)
	}
	if got := m.Counter("cluster_peer_down_total"); got != 1 {
		t.Fatalf("cluster_peer_down_total = %d, want 1", got)
	}
}

// recordingTransport records the method, path and destination of every
// request a node sends, then sends it.
type recordingTransport struct {
	inner *http.Transport
	mu    sync.Mutex
	sent  []string // "METHOD http://host/path"
}

func (rt *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	rt.sent = append(rt.sent, r.Method+" http://"+r.URL.Host+r.URL.Path)
	rt.mu.Unlock()
	return rt.inner.RoundTrip(r)
}

func (rt *recordingTransport) count() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.sent)
}

// TestLivenessLoopShape drives 20 protocol periods on an idle 3-node cluster
// whose views also hold a down member and a left one. Every period each node
// sends exactly one request, a gossip exchange, and never a /healthz probe;
// every pass of the round-robin contacts each member that has not left, the
// down one included, exactly once.
func TestLivenessLoopShape(t *testing.T) {
	down := freeAddr(t)
	const left = "http://left.invalid:1"
	const size, periods = 3, 20

	nodes := make([]*Cluster, size)
	urls := make([]string, size)
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var msg GossipMsg
			if r.URL.Path != GossipPath || json.NewDecoder(r.Body).Decode(&msg) != nil {
				http.NotFound(w, r)
				return
			}
			json.NewEncoder(w).Encode(nodes[i].HandleGossip(msg))
		}))
		defer ts.Close()
		urls[i] = ts.URL
	}
	rts := make([]*recordingTransport, size)
	for i := range nodes {
		rts[i] = &recordingTransport{inner: &http.Transport{}}
		defer rts[i].inner.CloseIdleConnections()
		nodes[i] = mustNew(t, Options{Self: urls[i], Peers: urls, Incarnation: 1,
			Client: &http.Client{Transport: rts[i]}})
		nodes[i].Merge([]Member{
			{Addr: down, Incarnation: 1, State: PeerDown},
			{Addr: left, Incarnation: 1, State: PeerLeft},
		})
	}

	ctx := context.Background()
	for p := 0; p < periods; p++ {
		for i, n := range nodes {
			before := rts[i].count()
			n.protocolPeriod(ctx)
			if sent := rts[i].count() - before; sent != 1 {
				t.Fatalf("period %d: node %d sent %d requests, want exactly one exchange", p, i, sent)
			}
		}
	}
	for i := range nodes {
		// Everyone but self and the left member: a pass is 3 periods.
		want := map[string]bool{"POST " + down + GossipPath: true}
		for j, u := range urls {
			if j != i {
				want["POST "+u+GossipPath] = true
			}
		}
		sent := rts[i].sent
		for p, req := range sent {
			if !want[req] {
				t.Fatalf("node %d, period %d sent %q; want only exchanges with %v", i, p, req, want)
			}
		}
		for start := 0; start+len(want) <= len(sent); start += len(want) {
			seen := make(map[string]bool)
			for _, req := range sent[start : start+len(want)] {
				if seen[req] {
					t.Fatalf("node %d, pass from period %d: %v contacts a member twice", i, start, sent[start:start+len(want)])
				}
				seen[req] = true
			}
		}
		if st := nodes[i].State(down); st != PeerDown {
			t.Fatalf("node %d: unreachable member is %s, want down", i, st)
		}
	}
}

// TestSnapshotShape pins the /healthz cluster section contract.
func TestSnapshotShape(t *testing.T) {
	c, err := New(Options{Self: "node-a:1", Peers: []string{"node-b:1", "node-c:1"}, VNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap["self"] != "http://node-a:1" {
		t.Fatalf("self = %v", snap["self"])
	}
	if snap["peer_count"] != 2 || snap["ring_nodes"] != 3 || snap["vnodes"] != 16 {
		t.Fatalf("snapshot: %v", snap)
	}
	if snap["ring_points"] != 48 {
		t.Fatalf("ring_points = %v, want 48", snap["ring_points"])
	}
	peers := snap["peers"].(map[string]string)
	if peers["http://node-b:1"] != "up" || peers["http://node-c:1"] != "up" {
		t.Fatalf("peers: %v", peers)
	}
}
