// Gossip membership: SWIM-style versioned views exchanged over
// /v1/peer/gossip. Every record is (addr, incarnation, state); merges obey
// two rules that make the protocol converge without coordination:
//
//  1. a higher incarnation always wins — only the member itself ever bumps
//     its incarnation, so its own claims dominate everyone's stale ones;
//  2. at equal incarnations the worse state wins (up < suspect < down <
//     left) — a suspicion propagates until the accused refutes it.
//
// Refutation is rule 1 applied to yourself: a node that hears itself called
// suspect/down at incarnation i re-announces as up at i+1. That is what
// lets a healed or falsely-accused node rejoin the ring without a restart,
// and what makes a graceful leave (left at i+1) stick against concurrent
// suspicion.
//
// In the paper's terms (and GKM's generalized ACT, PAPERS.md): the network
// adversary picks which gossip runs are permitted, and the membership layer
// must converge in every permitted run — the churn soak drives exactly that
// quantifier with the netfault adversary's deterministic schedule.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// Member is one membership record on the wire.
type Member struct {
	Addr        string    `json:"addr"`
	Incarnation int64     `json:"incarnation"`
	State       PeerState `json:"state"`
}

// GossipMsg is one direction of a gossip exchange: the sender's full view.
// The response to a POSTed GossipMsg is the responder's GossipMsg, so one
// round trip merges both directions.
type GossipMsg struct {
	From    string   `json:"from"`
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// gossipMsgLocked renders this node's current view, self record included.
// Down and left records ride along too — they are the rumors that keep a
// dead node from flapping back in through a stale "up". Callers hold c.mu.
func (c *Cluster) gossipMsgLocked() GossipMsg {
	msg := GossipMsg{From: c.self, Epoch: c.epoch, Members: make([]Member, 0, len(c.members))}
	for _, m := range c.members {
		msg.Members = append(msg.Members, Member{Addr: m.addr, Incarnation: m.incarnation, State: m.state})
	}
	sort.Slice(msg.Members, func(i, j int) bool { return msg.Members[i].Addr < msg.Members[j].Addr })
	return msg
}

// Merge folds a remote view into the local one under SWIM precedence,
// rebuilding the ring if the eligible set changed. Records about self are
// never adopted — they are refuted (incarnation bump) when they claim
// anything but up.
func (c *Cluster) Merge(remote []Member) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range remote {
		addr := NormalizeAddr(r.Addr)
		if addr == "" || stateRank(r.State) < 0 {
			continue
		}
		if addr == c.self {
			me := c.members[c.self]
			switch {
			case r.State != PeerUp && r.Incarnation >= me.incarnation && me.state != PeerLeft:
				// Someone is telling the cluster we are suspect/down/left.
				// We are demonstrably alive: outbid the rumor. The next
				// gossip round carries the refutation everywhere.
				me.incarnation = r.Incarnation + 1
				c.metrics.Inc("cluster_refute_total")
			case r.State == PeerUp && r.Incarnation > me.incarnation:
				// Our own record echoed back from a future we forgot (can
				// only happen with an injected test incarnation); adopt it.
				me.incarnation = r.Incarnation
			}
			continue
		}
		m := c.members[addr]
		if m == nil {
			m = &member{addr: addr, incarnation: r.Incarnation, state: r.State, transition: now}
			m.fails = failsFor(r.State)
			c.members[addr] = m
			if eligible(r.State) {
				c.rebuildRingLocked()
			}
			continue
		}
		switch {
		case r.Incarnation > m.incarnation:
			m.incarnation = r.Incarnation
			m.fails = failsFor(r.State)
			c.setStateLocked(m, r.State)
		case r.Incarnation == m.incarnation && stateRank(r.State) > stateRank(m.state):
			m.fails = failsFor(r.State)
			c.setStateLocked(m, r.State)
		}
	}
}

// failsFor maps an adopted gossip state onto the local failure counter so
// passive marking and gossip agree on what the next failure means.
func failsFor(s PeerState) int {
	switch s {
	case PeerSuspect:
		return 1
	case PeerDown, PeerLeft:
		return 2
	}
	return 0
}

// HandleGossip is the server half of an exchange: merge the caller's view,
// then answer with ours — which, having just merged, already reflects any
// refutation the caller's rumors provoked. The caller demonstrably reached
// us, so it is marked alive regardless of what the rumors said.
func (c *Cluster) HandleGossip(msg GossipMsg) GossipMsg {
	c.metrics.Inc("cluster_gossip_rx_total")
	c.Merge(msg.Members)
	if from := NormalizeAddr(msg.From); from != "" && from != c.self {
		c.MarkSuccess(from)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gossipMsgLocked()
}

// Exchange runs one push-pull round with peer: POST our view, merge the
// reply. It is the liveness loop's probe, the indirect-probe relay's, and
// Leave's announcement. Any HTTP response proves peer alive and marks it so;
// a transport failure is returned unmarked, because whether it condemns the
// peer is the caller's verdict (the loop asks helpers first).
func (c *Cluster) Exchange(ctx context.Context, peer string) error {
	c.mu.Lock()
	msg := c.gossipMsgLocked()
	c.mu.Unlock()
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	pctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, peer+GossipPath, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.MarkSuccess(peer)
	var reply GossipMsg
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&reply); err != nil {
		return nil // a non-gossip 200 (old node, test stub) is alive but mute
	}
	c.Merge(reply.Members)
	return nil
}

// Leave announces a graceful departure: the self record jumps to a higher
// incarnation in state left — beating any concurrent suspicion at the old
// one — and is pushed best-effort to a few live peers so the ring remaps
// before the process exits instead of after a suspicion timeout.
func (c *Cluster) Leave(ctx context.Context) {
	c.mu.Lock()
	me := c.members[c.self]
	me.incarnation++
	c.setStateLocked(me, PeerLeft)
	c.mu.Unlock()
	c.metrics.Inc("cluster_leave_total")
	for _, peer := range c.pickPeers(3, func(m *member) bool { return eligible(m.state) }) {
		if ctx.Err() != nil {
			return
		}
		_ = c.Exchange(ctx, peer) // best effort: a peer we miss hears it by gossip
	}
}

// antiEntropyLoop restores cache warmth after ownership changes: shortly
// after boot (a restarted node pulls what it already owns from its peers)
// and after every membership epoch change (a joined node pulls the keys the
// remap just handed it), walk the live peers' finished-key lists and fetch
// the keys this node now owns. Verified fetch + engine admission — the same
// trust path as a peer fill, just initiated by the new owner.
func (c *Cluster) antiEntropyLoop(ctx context.Context) {
	if c.admit == nil {
		return
	}
	// Let the first gossip round land so the first pass sees real membership.
	select {
	case <-ctx.Done():
		return
	case <-time.After(c.gossipInterval):
	}
	c.antiEntropy(ctx)
	last := c.Epoch()
	t := time.NewTicker(c.gossipInterval * 2)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if e := c.Epoch(); e != last {
				c.antiEntropy(ctx)
				last = e
			}
		}
	}
}

// antiEntropy runs one warmth pass. Best-effort throughout: a peer whose key
// list errors is skipped without marking (the liveness loop owns liveness
// verdicts; a half-warm pass must not condemn anyone).
func (c *Cluster) antiEntropy(ctx context.Context) {
	for _, peer := range c.pickPeers(0, func(m *member) bool { return m.state == PeerUp }) {
		if ctx.Err() != nil {
			return
		}
		keys, err := c.peerKeys(ctx, peer)
		if err != nil {
			continue
		}
		for _, k := range keys {
			if ctx.Err() != nil {
				return
			}
			if _, self := c.Owner(k); !self {
				continue
			}
			if c.admit.HasCached(k) {
				continue
			}
			body, err := c.fetchFrom(ctx, peer, k)
			if err != nil {
				continue
			}
			if c.admit.AdmitEncoded(k, body) {
				c.metrics.Inc("cluster_handoff_keys_total")
			}
		}
	}
}

// peerKeys lists a peer's finished cache keys via KeysPath.
func (c *Cluster) peerKeys(ctx context.Context, peer string) ([]string, error) {
	pctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+KeysPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s%s returned %d", peer, KeysPath, resp.StatusCode)
	}
	var out struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return nil, err
	}
	return out.Keys, nil
}
