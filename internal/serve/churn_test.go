package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"waitfree/internal/cluster"
	"waitfree/internal/engine"
	"waitfree/internal/netfault"
)

// waitRingSize polls until the node's own ring has exactly want members.
func waitRingSize(t *testing.T, n *clusterNode, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if got := len(n.s.cluster.Ring().Nodes()); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s ring stuck at %v, want %d nodes", n.url, n.s.cluster.Ring().Nodes(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitConverged polls until every node agrees on a want-member ring: same
// MembersHash everywhere, same size. This is the membership-convergence
// assertion — epochs are local counters, the hash is what must agree.
func waitConverged(t *testing.T, nodes []*clusterNode, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		h0 := nodes[0].s.cluster.MembersHash()
		for _, n := range nodes {
			if n.s.cluster.MembersHash() != h0 || len(n.s.cluster.Ring().Nodes()) != want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("%s: hash=%s ring=%v epoch=%d", n.url,
					n.s.cluster.MembersHash(), n.s.cluster.Ring().Nodes(), n.s.cluster.Epoch())
			}
			t.Fatalf("membership never converged on a %d-node ring", want)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// settleGoroutines asserts the goroutine count returns to (near) baseline
// after the cluster is torn down — the leak check every churn scenario ends
// with, same contract as the storage chaos soak's.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); {
		if !strings.Contains(goroutineStacks(), "flightGroup") &&
			runtime.NumGoroutine() <= baseline+3 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline=%d now=%d\n%s",
		baseline, runtime.NumGoroutine(), goroutineStacks())
}

// rebindListener re-binds addr, retrying while the OS reclaims the port.
func rebindListener(t *testing.T, addr string) net.Listener {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); ; {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(end) {
			t.Fatalf("re-binding %s: %v", addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterChurnSoak is the tentpole's acceptance test: a 3-node cluster
// under a seeded network adversary survives the full churn repertoire —
// scheduled drops/delays/blackholes/truncations, a total partition, a heal,
// a crash, a rejoin through a single seed peer, and a graceful leave — while
// holding the paper-grade invariants:
//
//   - every 200 is byte-identical to a fault-free single-node reference
//     (faults degrade to local compute, never to wrong bytes);
//   - a fully partitioned cluster degrades to N independent nodes, each
//     still answering everything;
//   - after the heal, membership converges: every node reports the same
//     MembersHash over the same ring;
//   - a node that rejoins with an empty cache is re-warmed by anti-entropy
//     handoff, not by recomputing;
//   - goroutines return to baseline when the cluster is torn down.
//
// The fault schedule is a pure function of the seed in the subtest name, so
// any failure is replayable with CHAOS_SEED=<n>.
func TestClusterChurnSoak(t *testing.T) {
	queries := clusterQueries()
	ref := referenceBodies(t, queries)
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			const size = 3
			lns := make([]net.Listener, size)
			urls := make([]string, size)
			for i := range lns {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				lns[i] = ln
				urls[i] = "http://" + ln.Addr().String()
			}
			nfts := make([]*netfault.Transport, size)
			nodes := make([]*clusterNode, size)
			for i := range nodes {
				nfts[i] = netfault.New(nil, urls[i], netfault.Options{Seed: seed*100 + int64(i), Rate: 0.12})
				nodes[i] = bootNodeCfg(t, lns[i], urls[i], urls, nodeConfig{
					gossipInterval: 50 * time.Millisecond,
					clientTimeout:  1500 * time.Millisecond,
					transport:      nfts[i],
				})
			}

			// Phase 1: mixed load through every node with the scheduled
			// adversary live on all cluster-internal traffic.
			clusterLoad(t, nodes, queries, ref, 4, 10)

			// Phase 2: total partition — every node alone. Each ring must
			// shrink to one node and each node must still answer the whole
			// query set by itself: the cluster degrades to N independent
			// nodes, exactly the wait-free degradation story.
			spec := urls[0] + "|" + urls[1] + "|" + urls[2]
			for _, nft := range nfts {
				if err := nft.SetPartition(spec); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range nodes {
				waitRingSize(t, n, 1)
			}
			for _, n := range nodes {
				clusterLoad(t, []*clusterNode{n}, queries, ref, 2, 8)
			}

			// Phase 3: heal. Members re-probe, gossip reconciles the
			// down-at-old-incarnation records (each node refutes with a
			// bumped incarnation), and all three views converge.
			for _, nft := range nfts {
				nft.SetPartition("")
			}
			waitConverged(t, nodes, size)
			clusterLoad(t, nodes, queries, ref, 4, 8)

			var injected int64
			for _, nft := range nfts {
				injected += nft.Injected()
			}
			if injected == 0 {
				t.Fatalf("the adversary injected nothing; the soak proved nothing\n%s",
					nfts[0].PlanString(urls[0], urls[1], 16))
			}

			// Recovery acts run fault-free: the scheduled plan pauses (without
			// consuming entries — the schedule stays replayable) so the
			// remaining assertions are about the membership machinery, not
			// about racing one more random drop.
			for _, nft := range nfts {
				nft.SetEnabled(false)
			}

			// Phase 4: crash — no goodbye. Survivors must converge on a
			// two-node ring and keep serving everything.
			victim := nodes[1]
			victim.kill()
			survivors := []*clusterNode{nodes[0], nodes[2]}
			waitConverged(t, survivors, size-1)
			clusterLoad(t, survivors, queries, ref, 4, 8)

			// Phase 5: rejoin through a single seed peer — gossip must
			// discover the rest of the membership, not a static list.
			ln := rebindListener(t, victim.addr)
			rnft := netfault.New(nil, victim.url, netfault.Options{Seed: seed, Rate: 0})
			restarted := bootNodeCfg(t, ln, victim.url, []string{nodes[0].url}, nodeConfig{
				gossipInterval: 50 * time.Millisecond,
				clientTimeout:  1500 * time.Millisecond,
				transport:      rnft,
			})
			live := []*clusterNode{nodes[0], restarted, nodes[2]}
			waitConverged(t, live, size)

			// Anti-entropy warmth: the rejoined node owns a slice of the
			// keyspace it has never computed. Every key it owns must appear
			// in its cache via handoff — zero local computes.
			var owned []clusterQuery
			for _, q := range queries {
				if _, self := restarted.s.cluster.Owner(q.key); self {
					owned = append(owned, q)
				}
			}
			for deadline := time.Now().Add(15 * time.Second); len(owned) > 0; {
				warm := 0
				for _, q := range owned {
					if restarted.s.Engine().HasCached(q.key) {
						warm++
					}
				}
				if warm == len(owned) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("anti-entropy warmed %d/%d owned keys (handoff=%d)",
						warm, len(owned), counter(restarted, "cluster_handoff_keys_total"))
				}
				time.Sleep(25 * time.Millisecond)
			}
			if len(owned) > 0 && counter(restarted, "cluster_handoff_keys_total") < 1 {
				t.Fatal("owned keys appeared without a counted handoff")
			}
			if got := restarted.s.Engine().Metrics().CacheMisses.Load(); got != 0 {
				t.Fatalf("rejoined node computed %d keys; warmth must come from handoff, not recompute", got)
			}
			// Handoff can exceed the top-level count: solve artifacts have
			// nested sub-keys the rejoiner may own too.
			t.Logf("rejoin warmth: %d keys pulled via handoff for %d owned query keys, 0 local computes",
				counter(restarted, "cluster_handoff_keys_total"), len(owned))

			// Phase 6: graceful leave. The departing node announces at a
			// bumped incarnation; peers drop it from the ring immediately and
			// permanently — no suspicion timeout, no resurrection by a stray
			// probe success.
			leaver := nodes[2]
			leaver.s.cluster.Leave(context.Background())
			if got := counter(leaver, "cluster_leave_total"); got != 1 {
				t.Fatalf("cluster_leave_total = %d, want 1", got)
			}
			leaver.kill()
			remaining := []*clusterNode{nodes[0], restarted}
			for _, n := range remaining {
				waitPeerState(t, n, leaver.url, "left")
			}
			waitConverged(t, remaining, size-1)
			clusterLoad(t, remaining, queries, ref, 4, 8)

			// The soak must actually have routed across nodes at some point.
			var forwards, fills int64
			for _, n := range []*clusterNode{nodes[0], victim, leaver, restarted} {
				forwards += counter(n, "cluster_forwarded_total")
				fills += counter(n, "cluster_peer_fill_hit")
			}
			if forwards+fills == 0 {
				t.Fatal("no cluster traffic at all — the soak never exercised routing")
			}

			for _, n := range live {
				n.kill()
			}
			settleGoroutines(t, baseline)
		})
	}
}

// degenQueries is clusterQueries plus cheap adversary-replay variants, so a
// two-node ring virtually always hands the fake peer at least one key.
func degenQueries() []clusterQuery {
	qs := clusterQueries()
	for seed := int64(8); seed <= 13; seed++ {
		qs = append(qs, clusterQuery{
			fmt.Sprintf("/v1/adversary?algo=commitadopt&adversary=random&seed=%d&procs=3", seed),
			engine.AdversaryRequest{Algo: "commitadopt", Adversary: "random", Seed: seed, Procs: 3}.Key(),
		})
	}
	return qs
}

// degenPeer is a hostile cluster member: healthy on /healthz and gossip (so
// the ring keeps routing to it), but every artifact body it serves is
// degenerate in a chosen way, and every forwarded query dies at the
// transport level. It exists to prove the fetch path absorbs framing abuse
// as a clean verified-fetch miss.
type degenPeer struct {
	mode string // "truncate", "slowloris", or "shortcl"

	mu      sync.Mutex
	payload []byte // the true artifact bytes for the target key
	sha     string // their real SHA-256 — the framing is the only defect
}

func (p *degenPeer) set(payload []byte, sha string) {
	p.mu.Lock()
	p.payload, p.sha = payload, sha
	p.mu.Unlock()
}

func (p *degenPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	case r.URL.Path == cluster.GossipPath:
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	case r.URL.Path == cluster.KeysPath:
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"keys":[]}`))
	case strings.HasPrefix(r.URL.Path, cluster.ArtifactPath):
		p.serveArtifact(w)
	default:
		// A forwarded query: tear the connection down so the relay sees a
		// transport error and computes locally.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
	}
}

// serveArtifact writes a raw, deliberately mis-framed HTTP response. Hijack
// keeps net/http from fixing our Content-Length behind our back.
func (p *degenPeer) serveArtifact(w http.ResponseWriter) {
	p.mu.Lock()
	payload, sha := p.payload, p.sha
	p.mu.Unlock()
	if len(payload) == 0 {
		// Anti-entropy probing before the test primes us: a clean 404.
		http.Error(w, "not yet", http.StatusNotFound)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	head := func(contentLength int) string {
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nConnection: close\r\n%s: %s\r\n%s: memory\r\nContent-Length: %d\r\n\r\n",
			cluster.HeaderSha256, sha, cluster.HeaderTier, contentLength)
	}
	switch p.mode {
	case "truncate":
		// Promise more than the artifact, deliver half, slam the door: the
		// reader sees an unexpected EOF mid-body.
		buf.WriteString(head(len(payload) + 512))
		buf.Write(payload[:len(payload)/2])
		buf.Flush()
	case "shortcl":
		// Right bytes, wrong framing: the Content-Length cuts the artifact
		// short, so what the client reads cannot hash to the advertised sum.
		buf.WriteString(head(10))
		buf.Write(payload)
		buf.Flush()
	case "slowloris":
		// Honest header, glacial body: one byte at a time until the fetch
		// deadline kills the connection under us.
		buf.WriteString(head(len(payload)))
		buf.Flush()
		for i := range payload {
			if _, err := conn.Write(payload[i : i+1]); err != nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// TestPeerFillDegenerateResponses pins the degenerate-peer satellite: a peer
// that serves truncated bodies, drips bytes slower than the fetch deadline,
// or lies about Content-Length produces a clean verified-fetch miss and a
// local compute — the client still gets the right bytes with a 200, the
// miss is counted, and no goroutine is left behind.
func TestPeerFillDegenerateResponses(t *testing.T) {
	for _, mode := range []string{"truncate", "slowloris", "shortcl"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			baseline := runtime.NumGoroutine()

			fakeLn, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fakeURL := "http://" + fakeLn.Addr().String()
			peer := &degenPeer{mode: mode}
			fakeSrv := &http.Server{Handler: peer}
			go fakeSrv.Serve(fakeLn)
			defer fakeSrv.Close()

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			selfURL := "http://" + ln.Addr().String()
			// The tight client timeout is the fetch deadline the slow-loris
			// body is dripping against.
			n := bootNodeCfg(t, ln, selfURL, []string{selfURL, fakeURL}, nodeConfig{
				clientTimeout: 700 * time.Millisecond,
			})

			// A key the fake peer owns — the one the real node will try to
			// fill from it.
			var q clusterQuery
			found := false
			for _, cand := range degenQueries() {
				if owner, self := n.s.cluster.Owner(cand.key); !self && owner == fakeURL {
					q, found = cand, true
					break
				}
			}
			if !found {
				t.Fatal("the fake peer owns none of the candidate keys; broaden degenQueries")
			}

			// Donor: the true artifact bytes and the fault-free reference
			// body, so the fake peer's framing is the only defect.
			donor, ds := newTestServer(t, engine.Options{}, Options{})
			code, ref := get(t, ds.URL+q.path)
			if code != http.StatusOK {
				t.Fatalf("donor query: %d %s", code, ref)
			}
			payload, _, ok := donor.Engine().EncodedArtifact(q.key)
			if !ok {
				t.Fatal("donor has no artifact for the target key")
			}
			sum := sha256.Sum256(payload)
			peer.set(payload, hex.EncodeToString(sum[:]))

			code, body := get(t, n.url+q.path)
			if code != http.StatusOK || string(body) != string(ref) {
				t.Fatalf("degenerate fill must degrade to a correct local compute: %d\n got: %s\nwant: %s", code, body, ref)
			}
			// The routing probe and the compute-path fill both miss (and any
			// dependent key the fake peer owns misses too), so the counter is
			// "at least one", never an exact pin.
			if got := counter(n, "cluster_peer_fill_miss"); got < 1 {
				t.Fatalf("cluster_peer_fill_miss = %d, want >= 1", got)
			}
			if got := counter(n, "cluster_peer_fill_hit"); got != 0 {
				t.Fatalf("a degenerate body counted as a fill hit (%d)", got)
			}
			if got := n.s.Engine().Metrics().CacheMisses.Load(); got < 1 {
				t.Fatal("the answer came from neither compute nor fill — where did it come from?")
			}
			if mode == "shortcl" {
				if got := counter(n, "cluster_peer_fill_sha_mismatch"); got < 1 {
					t.Fatalf("a short Content-Length must surface as a sha mismatch, counter = %d", got)
				}
			}

			n.kill()
			fakeSrv.Close()
			settleGoroutines(t, baseline)
		})
	}
}

// TestClusterAsymmetricLinkKeepsMember is the liveness loop's acceptance: a
// link between members A and B that fails one way, or both ways, while C
// reaches both must not take B off A's ring. Each subtest boots a fresh
// 3-node cluster, waits for convergence, cuts the link for 5 s with no client
// traffic, and samples A's view of B throughout: B is never down and A's
// epoch never moves. With both directions cut B never reaches A either, so
// only indirect probes through C can keep B up.
func TestClusterAsymmetricLinkKeepsMember(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bothWays bool
	}{{"one-way", false}, {"both-ways", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const size = 3
			lns := make([]net.Listener, size)
			urls := make([]string, size)
			for i := range lns {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				lns[i] = ln
				urls[i] = "http://" + ln.Addr().String()
			}
			nfts := make([]*netfault.Transport, size)
			nodes := make([]*clusterNode, size)
			for i := range nodes {
				nfts[i] = netfault.New(nil, urls[i], netfault.Options{Seed: 1, Rate: 0})
				nodes[i] = bootNodeCfg(t, lns[i], urls[i], urls, nodeConfig{
					gossipInterval: 50 * time.Millisecond,
					transport:      nfts[i],
				})
			}
			waitConverged(t, nodes, size)

			a, b := nodes[0], nodes[1]
			spec := a.url + "->" + b.url
			if tc.bothWays {
				spec += ";" + b.url + "->" + a.url
			}
			for _, nft := range nfts {
				if err := nft.SetPartition(spec); err != nil {
					t.Fatal(err)
				}
			}
			epoch := a.s.cluster.Epoch()
			downs, prev := 0, cluster.PeerUp
			for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
				st := a.s.cluster.State(b.url)
				if st == cluster.PeerDown && prev != cluster.PeerDown {
					downs++
				}
				prev = st
			}
			if downs > 0 {
				t.Errorf("A marked B down %d times while C could reach it", downs)
			}
			if moved := a.s.cluster.Epoch() - epoch; moved > 0 {
				t.Errorf("A's membership epoch moved %d times under a cut link", moved)
			}
			if got := counter(a, "cluster_probe_indirect_ok"); tc.bothWays && got < 1 {
				t.Errorf("cluster_probe_indirect_ok = %d; with B unable to reach A, only indirect probes keep B up", got)
			}
		})
	}
}
