package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"waitfree/internal/engine"
)

func mustNew(t *testing.T, o Options) *Cluster {
	t.Helper()
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMergePrecedence pins the SWIM merge rules: higher incarnation always
// wins; at equal incarnations the worse state wins; everything else is
// ignored. These two rules are the whole convergence argument.
func TestMergePrecedence(t *testing.T) {
	c := mustNew(t, Options{Self: "http://a:1", Peers: []string{"http://b:1"}})
	b := "http://b:1"

	// Same incarnation, worse state: adopted.
	c.Merge([]Member{{Addr: b, Incarnation: 0, State: PeerSuspect}})
	if st := c.State(b); st != PeerSuspect {
		t.Fatalf("equal-incarnation suspect must win over up, got %s", st)
	}
	// Same incarnation, better state: ignored — only b can refute.
	c.Merge([]Member{{Addr: b, Incarnation: 0, State: PeerUp}})
	if st := c.State(b); st != PeerSuspect {
		t.Fatalf("equal-incarnation up must not beat suspect, got %s", st)
	}
	// Higher incarnation, better state: the refutation path.
	c.Merge([]Member{{Addr: b, Incarnation: 1, State: PeerUp}})
	if st := c.State(b); st != PeerUp {
		t.Fatalf("higher incarnation up must refute the suspicion, got %s", st)
	}
	// Lower incarnation: stale, ignored.
	c.Merge([]Member{{Addr: b, Incarnation: 0, State: PeerDown}})
	if st := c.State(b); st != PeerUp {
		t.Fatalf("stale lower-incarnation down must be ignored, got %s", st)
	}
	// Higher incarnation down: adopted, and the ring drops b.
	before := c.Epoch()
	c.Merge([]Member{{Addr: b, Incarnation: 2, State: PeerDown}})
	if st := c.State(b); st != PeerDown {
		t.Fatalf("higher-incarnation down must be adopted, got %s", st)
	}
	if c.Epoch() <= before {
		t.Fatal("dropping an eligible member must advance the epoch")
	}
	if nodes := c.Ring().Nodes(); len(nodes) != 1 || nodes[0] != "http://a:1" {
		t.Fatalf("ring after down = %v, want self only", nodes)
	}
}

// TestMergeDiscoversMembers: a record about an unknown node joins the
// membership — and the ring — without any static configuration. This is the
// join path: one seed tells the cluster about the newcomer and vice versa.
func TestMergeDiscoversMembers(t *testing.T) {
	c := mustNew(t, Options{Self: "http://a:1"})
	if n := len(c.Ring().Nodes()); n != 1 {
		t.Fatalf("fresh single node ring size %d", n)
	}
	e0 := c.Epoch()
	c.Merge([]Member{{Addr: "http://b:1", Incarnation: 7, State: PeerUp}})
	if st := c.State("http://b:1"); st != PeerUp {
		t.Fatalf("discovered member state %s", st)
	}
	if n := len(c.Ring().Nodes()); n != 2 {
		t.Fatalf("ring after discovery has %d nodes, want 2", n)
	}
	if c.Epoch() <= e0 {
		t.Fatal("discovering an eligible member must advance the epoch")
	}
	// Discovering an already-departed node must not touch the ring.
	e1 := c.Epoch()
	c.Merge([]Member{{Addr: "http://c:1", Incarnation: 3, State: PeerLeft}})
	if n := len(c.Ring().Nodes()); n != 2 || c.Epoch() != e1 {
		t.Fatalf("left record changed placement: %d nodes, epoch %d→%d", n, e1, c.Epoch())
	}
}

// TestSelfRefutation: hearing yourself called down bumps your incarnation
// past the rumor, so the next gossip round clears your name everywhere.
func TestSelfRefutation(t *testing.T) {
	m := engine.NewMetrics()
	c := mustNew(t, Options{Self: "http://a:1", Incarnation: 5, Metrics: m})
	c.Merge([]Member{{Addr: "http://a:1", Incarnation: 9, State: PeerDown}})
	view := c.GossipView()
	var selfRec *Member
	for i := range view.Members {
		if view.Members[i].Addr == "http://a:1" {
			selfRec = &view.Members[i]
		}
	}
	if selfRec == nil || selfRec.State != PeerUp || selfRec.Incarnation != 10 {
		t.Fatalf("self record after refutation = %+v, want up at incarnation 10", selfRec)
	}
	if m.Counter("cluster_refute_total") != 1 {
		t.Fatal("refutation not counted")
	}
	// A stale rumor at a lower incarnation must not bump again.
	c.Merge([]Member{{Addr: "http://a:1", Incarnation: 4, State: PeerSuspect}})
	if got := c.GossipView(); got.Members[0].Incarnation != 10 {
		t.Fatalf("stale rumor bumped incarnation to %d", got.Members[0].Incarnation)
	}
}

// TestGossipExchangeConverges runs two real cluster instances against live
// HTTP gossip endpoints: a joins via seed b, b learns a, and both converge
// to the same members hash — the invariant the partition-heal CI asserts.
func TestGossipExchangeConverges(t *testing.T) {
	var a, b *Cluster
	serveGossip := func(c **Cluster) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var msg GossipMsg
			if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			json.NewEncoder(w).Encode((*c).HandleGossip(msg))
		}))
	}
	tsA := serveGossip(&a)
	defer tsA.Close()
	tsB := serveGossip(&b)
	defer tsB.Close()

	a = mustNew(t, Options{Self: tsA.URL, Peers: []string{tsB.URL}, Incarnation: 1})
	b = mustNew(t, Options{Self: tsB.URL, Incarnation: 1}) // b has never heard of a

	if b.MembersHash() == a.MembersHash() {
		t.Fatal("views must differ before the exchange")
	}
	if err := a.Exchange(context.Background(), NormalizeAddr(tsB.URL)); err != nil {
		t.Fatalf("exchange with a live seed: %v", err)
	}
	if got, want := b.State(NormalizeAddr(tsA.URL)), PeerUp; got != want {
		t.Fatalf("b's view of a after join gossip = %s, want %s", got, want)
	}
	if a.MembersHash() != b.MembersHash() {
		t.Fatalf("members hash diverged after exchange: %s vs %s", a.MembersHash(), b.MembersHash())
	}
	if got := b.metrics.Counter("cluster_gossip_rx_total"); got != 1 {
		t.Fatalf("cluster_gossip_rx_total = %d, want 1", got)
	}
}

// TestLeave: a graceful leave marks self left at a bumped incarnation,
// drops self from the ring, and pushes the announcement to live peers.
func TestLeave(t *testing.T) {
	var got GossipMsg
	received := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewDecoder(r.Body).Decode(&got)
		close(received)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := mustNew(t, Options{Self: "http://a:1", Peers: []string{ts.URL}, Incarnation: 3})
	e0 := c.Epoch()
	c.Leave(context.Background())
	select {
	case <-received:
	case <-time.After(5 * time.Second):
		t.Fatal("leave never reached the peer")
	}
	var selfRec *Member
	for i := range got.Members {
		if got.Members[i].Addr == "http://a:1" {
			selfRec = &got.Members[i]
		}
	}
	if selfRec == nil || selfRec.State != PeerLeft || selfRec.Incarnation != 4 {
		t.Fatalf("announced self record = %+v, want left at incarnation 4", selfRec)
	}
	if c.Epoch() <= e0 {
		t.Fatal("leaving must advance the epoch")
	}
	for _, n := range c.Ring().Nodes() {
		if n == "http://a:1" {
			t.Fatal("departed self still on the ring")
		}
	}
	// And the departure is sticky: an exchange success cannot resurrect it.
	c.MarkSuccess("http://a:1")
	if st := c.State("http://a:1"); st != PeerLeft {
		t.Fatalf("left must be terminal for the incarnation, got %s", st)
	}
}

// TestAntiEntropyConcurrentWithMerge runs anti-entropy passes while gossip
// merges add members: the pass must read the membership under the lock, so
// this fails under -race if it does not.
func TestAntiEntropyConcurrentWithMerge(t *testing.T) {
	c := mustNew(t, Options{Self: "http://a:1"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			// Down members: anti-entropy skips them, so no pass dials anyone.
			c.Merge([]Member{{Addr: fmt.Sprintf("http://n%d:1", i), Incarnation: 1, State: PeerDown}})
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			c.antiEntropy(context.Background())
		}
	}
}

// TestHandoffWindow pins the two-ring fetch fallback: after an epoch change
// remaps a key, FetchCandidates offers the new owner first and the previous
// owner second — but only inside the handoff window.
func TestHandoffWindow(t *testing.T) {
	c := mustNew(t, Options{
		Self:  "http://a:1",
		Peers: []string{"http://b:1", "http://c:1"},
	})
	base := time.Unix(1000, 0)
	c.now = func() time.Time { return base }

	// Find a key owned by b now and not owned by a after b goes down.
	var key string
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("solve:%016x:maxb=1", i)
		if owner, _ := c.Owner(k); owner == "http://b:1" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by b")
	}
	c.MarkFailure("http://b:1")
	c.MarkFailure("http://b:1") // down → epoch bump, prev ring retained

	cands := c.FetchCandidates(key)
	switch {
	case len(cands) == 0:
		// a inherited the key: the previous owner must be the one candidate.
		t.Fatal("remapped key lost its handoff candidate")
	case cands[len(cands)-1] != "http://b:1":
		// Wherever the key landed, the previous owner rides last.
		t.Fatalf("candidates %v must end with the previous owner", cands)
	}

	// Outside the window the previous ring is forgotten.
	c.now = func() time.Time { return base.Add(HandoffWindow + time.Second) }
	for _, cand := range c.FetchCandidates(key) {
		if cand == "http://b:1" {
			t.Fatal("handoff window expired but the previous owner is still offered")
		}
	}

	snap := c.Snapshot()
	if snap["epoch"].(uint64) < 2 {
		t.Fatalf("epoch after a membership change = %v", snap["epoch"])
	}
	if _, ok := snap["members_hash"].(string); !ok {
		t.Fatal("snapshot missing members_hash")
	}
	det := snap["members"].(map[string]map[string]any)
	if det["http://b:1"]["state"] != "down" {
		t.Fatalf("snapshot member detail: %v", det["http://b:1"])
	}
}

// TestFetchLimitBounds: a peer streaming more than the key's cost-based
// bound is a fill miss (counted), never an admitted artifact or an OOM.
func TestFetchLimitBounds(t *testing.T) {
	big := make([]byte, 4096)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(big)
	}))
	defer ts.Close()

	m := engine.NewMetrics()
	c := mustNew(t, Options{
		Self:       "http://self.invalid:1",
		Peers:      []string{ts.URL},
		Metrics:    m,
		FetchLimit: func(key string) int64 { return 1024 },
	})
	var key string
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("solve:%016x:maxb=1", i)
		if _, self := c.Owner(k); !self {
			key = k
			break
		}
	}
	if _, _, err := c.Fetch(context.Background(), key); err == nil {
		t.Fatal("over-limit artifact must be a fill miss")
	}
	if m.Counter("cluster_peer_fill_over_limit") != 1 {
		t.Fatal("over-limit miss not counted")
	}
	// The peer answered: HTTP-level misses must not mark it sick.
	if st := c.State(NormalizeAddr(ts.URL)); st != PeerUp {
		t.Fatalf("peer state after over-limit = %s, want up", st)
	}
}

// GossipView returns this node's current membership view (tests, debug).
func (c *Cluster) GossipView() GossipMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gossipMsgLocked()
}
