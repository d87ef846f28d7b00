package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"waitfree/internal/engine"
	"waitfree/internal/obs"
)

// Wire protocol headers shared by the serving layer and the peer clients.
const (
	// HeaderForwarded marks a query already forwarded once; a node that
	// receives it serves locally no matter what the ring says, so routing
	// never exceeds one hop even under stale membership views.
	HeaderForwarded = "X-WFR-Forwarded"
	// HeaderSha256 carries the hex SHA-256 of a peer artifact's payload;
	// the fetcher recomputes it over the received bytes and refuses the
	// artifact on mismatch — a sick peer or a torn transfer becomes a local
	// recompute, never a wrong verdict.
	HeaderSha256 = "X-WFR-Sha256"
	// HeaderTier reports which cache tier answered a peer artifact fetch.
	HeaderTier = "X-WFR-Tier"
	// HeaderTraceID propagates the originating request's trace across
	// forwards and peer fills.
	HeaderTraceID = "X-Trace-Id"
)

// Peer-internal endpoints. All of them live under /v1/peer/ so the serving
// layer can mount them together when cluster mode is on.
const (
	// ArtifactPath serves encoded artifacts by cache key; the key rides
	// path-escaped in the last segment.
	ArtifactPath = "/v1/peer/artifact/"
	// GossipPath exchanges membership views: POST a GossipMsg, receive the
	// responder's view back. One round trip merges both directions.
	GossipPath = "/v1/peer/gossip"
	// ProbePath asks a node to exchange views with a third node on the
	// caller's behalf (?target=addr) — the indirect-probe leg that keeps an
	// asymmetric partition from condemning a reachable peer.
	ProbePath = "/v1/peer/probe"
	// KeysPath lists the responder's finished cache keys, for the
	// anti-entropy pass that restores warmth after an ownership change.
	KeysPath = "/v1/peer/keys"
)

// PeerState is a member's health as seen by this node.
type PeerState string

const (
	// PeerUp: the last interaction (exchange, forward, fill) succeeded.
	PeerUp PeerState = "up"
	// PeerSuspect: exactly one consecutive failure — still routed to, so a
	// single dropped exchange costs nothing.
	PeerSuspect PeerState = "suspect"
	// PeerDown: two or more consecutive failures (when the liveness loop
	// sees the second, only after indirect probes also failed) — excluded
	// from the ring and from fills until an interaction succeeds. The loop
	// keeps visiting down members, so a healed node is found within a pass.
	PeerDown PeerState = "down"
	// PeerLeft: the member announced a graceful leave at its current
	// incarnation. Terminal for that incarnation — rejoining nodes come
	// back with a higher one.
	PeerLeft PeerState = "left"
)

// stateRank orders states for same-incarnation gossip merges: with equal
// incarnations the worse claim wins (SWIM's precedence), so a suspicion is
// never shouted down by a stale "up" — only the member itself can refute it,
// by bumping its incarnation.
func stateRank(s PeerState) int {
	switch s {
	case PeerUp:
		return 0
	case PeerSuspect:
		return 1
	case PeerDown:
		return 2
	case PeerLeft:
		return 3
	}
	return -1
}

// eligible reports whether a state keeps a member on the ring. Suspects stay:
// one failed exchange must not remap 1/N of the keyspace.
func eligible(s PeerState) bool { return s == PeerUp || s == PeerSuspect }

// Defaults: a protocol period short enough that a killed node is down within
// a few seconds and membership converges in a few passes, and a handoff
// window long enough to cover that convergence, during which two ring views
// coexist.
const (
	DefaultProbeTimeout   = 1 * time.Second
	DefaultGossipInterval = 1 * time.Second
	// HandoffWindow is how long the previous ring stays a fetch fallback
	// after an epoch change.
	HandoffWindow = 30 * time.Second
	// IndirectProbes is how many up peers are asked to reach a suspect before
	// a failed exchange may mark it down.
	IndirectProbes = 2
	// DefaultFetchLimit bounds a peer artifact body when no cost-based limit
	// is installed. Artifacts are small DTO encodings; 8 MiB is generous.
	DefaultFetchLimit = 8 << 20
)

// Admitter is what anti-entropy needs from the engine: a way to ask whether
// a key is already warm and to admit a verified encoded artifact. The
// cluster stays ignorant of codecs; the engine stays ignorant of rings.
type Admitter interface {
	HasCached(key string) bool
	// AdmitEncoded decodes and admits payload under key, reporting whether
	// it was accepted. The payload is content-address-verified by the caller
	// but still untrusted input: a decode failure is a rejection, not a crash.
	AdmitEncoded(key string, payload []byte) bool
}

// Options configures a cluster node.
type Options struct {
	// Self is this node's advertise address as it appears in the peer list
	// (scheme optional; "http://" is assumed). Required.
	Self string
	// Peers is the seed membership, self included or not — self is always
	// added. Unlike the static-ring era this need not be the full cluster:
	// gossip discovers the rest from any one live seed.
	Peers []string
	// VNodes is the virtual-node count per physical node; 0 = DefaultVNodes.
	VNodes int
	// ProbeTimeout bounds one exchange or indirect-probe request; 0 = default.
	ProbeTimeout time.Duration
	// GossipInterval is the liveness loop's protocol period: one exchange
	// per period; 0 = default.
	GossipInterval time.Duration
	// Incarnation overrides this node's starting incarnation (tests).
	// 0 = wall-clock UnixNano, so a restarted node outbids its old records.
	Incarnation int64
	// FetchLimit returns the max acceptable artifact size for a key;
	// nil or non-positive returns fall back to DefaultFetchLimit.
	FetchLimit func(key string) int64
	// Admitter enables the anti-entropy pass; nil disables it.
	Admitter Admitter
	// Client is the HTTP client for exchanges, probes, fills, and forwards;
	// nil = a dedicated client with a 30s overall timeout.
	Client *http.Client
	// Metrics receives the cluster counters; nil = a private set.
	Metrics *engine.Metrics
}

// member is one node's tracked membership record (self included). All fields
// are guarded by the cluster mutex — member counts are tiny and the hot path
// reads one state.
type member struct {
	addr        string
	incarnation int64
	state       PeerState
	fails       int
	transition  time.Time // last state change, for healthz age reporting
}

// Cluster is this node's view of the shard ring: membership (converging by
// the SWIM liveness loop) and placement (rebuilt per membership epoch, with
// the previous ring kept as a bounded-window fetch fallback so ownership
// transitions don't cold-start). All methods are safe for concurrent use.
type Cluster struct {
	self    string
	client  *http.Client
	metrics *engine.Metrics

	probeTimeout   time.Duration
	gossipInterval time.Duration
	vnodes         int
	fetchLimit     func(key string) int64
	admit          Admitter
	now            func() time.Time // injectable clock for tests

	mu        sync.Mutex
	rng       *rand.Rand // lazily seeded from the injectable clock
	members   map[string]*member
	pass      []string // the rest of the liveness loop's current round-robin pass
	epoch     uint64
	ring      *Ring
	prevRing  *Ring     // ring before the last epoch change, or nil
	prevUntil time.Time // when prevRing stops being a fetch fallback
}

// NormalizeAddr canonicalizes a node address: trims whitespace and adds the
// http:// scheme when absent, so "localhost:9101" and "http://localhost:9101"
// name the same ring node on every member.
func NormalizeAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// New builds a cluster node. The initial ring covers the normalized union of
// Peers and Self; seed peers start optimistically "up" at incarnation 0 and
// converge to their real incarnation and state through the liveness loop.
func New(o Options) (*Cluster, error) {
	self := NormalizeAddr(o.Self)
	if self == "" {
		return nil, fmt.Errorf("cluster: Self (advertise address) is required")
	}
	c := &Cluster{
		self:           self,
		client:         o.Client,
		metrics:        o.Metrics,
		probeTimeout:   o.ProbeTimeout,
		gossipInterval: o.GossipInterval,
		vnodes:         o.VNodes,
		fetchLimit:     o.FetchLimit,
		admit:          o.Admitter,
		now:            time.Now,
		members:        make(map[string]*member),
	}
	if c.client == nil {
		c.client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.metrics == nil {
		c.metrics = engine.NewMetrics()
	}
	if c.probeTimeout <= 0 {
		c.probeTimeout = DefaultProbeTimeout
	}
	if c.gossipInterval <= 0 {
		c.gossipInterval = DefaultGossipInterval
	}
	if c.vnodes <= 0 {
		c.vnodes = DefaultVNodes
	}
	selfInc := o.Incarnation
	if selfInc == 0 {
		selfInc = time.Now().UnixNano()
	}
	now := time.Now()
	c.members[self] = &member{addr: self, incarnation: selfInc, state: PeerUp, transition: now}
	for _, p := range o.Peers {
		n := NormalizeAddr(p)
		if n == "" || n == self {
			continue
		}
		if _, ok := c.members[n]; !ok {
			c.members[n] = &member{addr: n, state: PeerUp, transition: now}
		}
	}
	c.rebuildRingLocked() // epoch 0 → 1; no previous ring to hand off from
	return c, nil
}

// Self returns this node's normalized advertise address.
func (c *Cluster) Self() string { return c.self }

// Client returns the HTTP client used for cluster traffic (forwards share it
// with exchanges and fills so connection pools are reused).
func (c *Cluster) Client() *http.Client { return c.client }

// Ring exposes the current placement ring (tests, healthz). The returned
// ring is immutable; membership changes swap in a new one.
func (c *Cluster) Ring() *Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// Epoch returns the local membership epoch: a monotone counter bumped every
// time the ring-eligible member set changes. Epochs are local — two nodes
// that took different paths to the same membership hold different counters —
// so cross-node convergence is asserted on MembersHash, not on Epoch.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// MembersHash fingerprints the ring-eligible member set: the first 8 bytes
// of the SHA-256 over the sorted member list. Two nodes agree on placement
// iff their hashes agree, which is what the partition-heal tests assert.
func (c *Cluster) MembersHash() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return membersHash(c.ring.nodes)
}

func membersHash(nodes []string) string {
	sum := sha256.Sum256([]byte(strings.Join(nodes, ",")))
	return hex.EncodeToString(sum[:8])
}

// rngLocked lazily seeds the shuffle source from the injectable clock, so
// tests that pin c.now get a reproducible shuffle stream. Callers hold c.mu.
func (c *Cluster) rngLocked() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.now().UnixNano()))
	}
	return c.rng
}

// rebuildRingLocked rebuilds placement over the currently eligible members.
// If the eligible set actually changed, the epoch advances and the old ring
// is retained for the handoff window. Callers hold c.mu.
func (c *Cluster) rebuildRingLocked() {
	elig := make([]string, 0, len(c.members))
	for a, m := range c.members {
		if eligible(m.state) {
			elig = append(elig, a)
		}
	}
	if len(elig) == 0 {
		// Never an empty ring: a node that outlives its whole membership
		// view serves alone, which is exactly the degrade-to-independent
		// invariant.
		elig = []string{c.self}
	}
	ring, err := NewRing(elig, c.vnodes)
	if err != nil {
		return // unreachable: elig is non-empty
	}
	if c.ring != nil {
		if membersHash(c.ring.nodes) == membersHash(ring.nodes) {
			return
		}
		c.prevRing = c.ring
		c.prevUntil = c.now().Add(HandoffWindow)
	}
	c.ring = ring
	c.epoch++
	c.metrics.Inc("cluster_membership_epoch")
}

// Owner returns the node owning key on the current ring and whether that
// node is this one.
func (c *Cluster) Owner(key string) (node string, self bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	node = c.ring.Owner(key)
	return node, node == c.self
}

// State returns a member's health ("up" for self — we answered, after all;
// "down" for nodes we have never heard of).
func (c *Cluster) State(node string) PeerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.members[node]; m != nil {
		return m.state
	}
	return PeerDown
}

// Available reports whether node is worth routing to: up or suspect. Down
// and departed peers are skipped entirely until an interaction succeeds.
func (c *Cluster) Available(node string) bool {
	s := c.State(node)
	return s == PeerUp || s == PeerSuspect
}

// Known reports whether node is a tracked member (any state). The
// indirect-probe relay uses it to refuse probing arbitrary addresses.
func (c *Cluster) Known(node string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.members[node]
	return ok
}

// setStateLocked transitions a member, stamping the transition time and
// rebuilding the ring when the change crosses the eligibility boundary.
// Callers hold c.mu.
func (c *Cluster) setStateLocked(m *member, s PeerState) {
	if m.state == s {
		return
	}
	wasEligible := eligible(m.state)
	m.state = s
	m.transition = c.now()
	if eligible(s) != wasEligible {
		c.rebuildRingLocked()
	}
}

// MarkFailure records a failed interaction with node (exchange, forward, or
// fill transport error): one failure makes it suspect, two make it down.
// Passive marking is what lets a killed owner stop receiving forwards after
// two failed requests instead of a full pass of the liveness loop.
func (c *Cluster) MarkFailure(node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[node]
	if m == nil || node == c.self || m.state == PeerLeft {
		return
	}
	m.fails++
	switch {
	case m.fails == 1:
		c.setStateLocked(m, PeerSuspect)
	case m.fails >= 2:
		if m.state != PeerDown {
			c.metrics.Inc("cluster_peer_down_total")
		}
		c.setStateLocked(m, PeerDown)
	}
}

// MarkSuccess records a successful interaction with node, recovering it to
// up. Departed members stay left — a node that said goodbye at incarnation i
// only returns with incarnation > i, which arrives by gossip, not by
// answering a stray exchange.
func (c *Cluster) MarkSuccess(node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[node]
	if m == nil || node == c.self || m.state == PeerLeft {
		return
	}
	m.fails = 0
	c.setStateLocked(m, PeerUp)
}

// Start launches the two background loops, both stopped by ctx: the liveness
// loop, which runs one SWIM protocol period per GossipInterval (the first is
// the join announcement), and the anti-entropy warmer.
func (c *Cluster) Start(ctx context.Context) {
	go func() {
		c.protocolPeriod(ctx)
		t := time.NewTicker(c.gossipInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.protocolPeriod(ctx)
			}
		}
	}()
	go c.antiEntropyLoop(ctx)
}

// protocolPeriod exchanges views with the next member of the round-robin.
// A failed exchange with a member that is already suspect asks up to
// IndirectProbes up peers to reach it first, so an asymmetric link between
// us and the target doesn't remap its keyspace while others still reach it.
func (c *Cluster) protocolPeriod(ctx context.Context) {
	target := c.nextTarget()
	if target == "" {
		return
	}
	if err := c.Exchange(ctx, target); err == nil || ctx.Err() != nil {
		return // alive, or we are stopping: no verdict either way
	}
	if c.State(target) == PeerSuspect && c.indirectProbe(ctx, target) {
		c.metrics.Inc("cluster_probe_indirect_ok")
		c.MarkSuccess(target)
		return
	}
	c.MarkFailure(target)
}

// nextTarget pops the next member of a shuffled round-robin over every member
// except self and left ones, reshuffled each pass. Down members stay in it,
// so a healed node is found within one pass; a member that joins mid-pass
// enters the next one. "" means there is nobody to contact.
func (c *Cluster) nextTarget() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.pass) == 0 {
			c.pass = c.pickPeersLocked(0, func(m *member) bool { return m.state != PeerLeft })
			if len(c.pass) == 0 {
				return ""
			}
		}
		next := c.pass[0]
		c.pass = c.pass[1:]
		if c.members[next].state != PeerLeft {
			return next
		}
	}
}

// indirectProbe asks up to IndirectProbes up peers to exchange with node on
// our behalf; true if any of them reaches it.
func (c *Cluster) indirectProbe(ctx context.Context, node string) bool {
	helpers := c.pickPeers(IndirectProbes, func(m *member) bool {
		return m.state == PeerUp && m.addr != node
	})
	for _, h := range helpers {
		if ctx.Err() != nil {
			return false
		}
		pctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
		req, err := http.NewRequestWithContext(pctx, http.MethodGet,
			h+ProbePath+"?target="+url.QueryEscape(node), nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := c.client.Do(req)
		cancel()
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNoContent {
			return true
		}
	}
	return false
}

// pickPeers returns up to n random members (never self) passing keep; n <= 0
// means all of them. The shuffle draws from the clock-seeded rng so tests
// stay reproducible.
func (c *Cluster) pickPeers(n int, keep func(*member) bool) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pickPeersLocked(n, keep)
}

// pickPeersLocked is pickPeers for callers that hold c.mu.
func (c *Cluster) pickPeersLocked(n int, keep func(*member) bool) []string {
	cands := make([]string, 0, len(c.members))
	for a, m := range c.members {
		if a != c.self && keep(m) {
			cands = append(cands, a)
		}
	}
	sort.Strings(cands) // map order must not leak into the draw
	c.rngLocked().Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if n > 0 && len(cands) > n {
		cands = cands[:n]
	}
	return cands
}

// Snapshot is the /healthz "cluster" section: membership, placement, and
// per-member detail (incarnation, state, time since last transition) so a
// misrouted request is diagnosable from the two nodes' snapshots alone.
func (c *Cluster) Snapshot() map[string]any {
	now := c.now()
	c.mu.Lock()
	peers := make(map[string]string)
	detail := make(map[string]map[string]any, len(c.members))
	for n, m := range c.members {
		if n != c.self {
			peers[n] = string(m.state)
		}
		detail[n] = map[string]any{
			"state":       string(m.state),
			"incarnation": m.incarnation,
			"age_ms":      now.Sub(m.transition).Milliseconds(),
		}
	}
	snap := map[string]any{
		"self":           c.self,
		"peer_count":     len(peers),
		"ring_nodes":     len(c.ring.nodes),
		"ring_points":    c.ring.Size(),
		"vnodes":         c.ring.vnodes,
		"peers":          peers,
		"epoch":          c.epoch,
		"members_hash":   membersHash(c.ring.nodes),
		"members":        detail,
		"handoff_active": c.prevRing != nil && now.Before(c.prevUntil),
	}
	c.mu.Unlock()
	return snap
}

// FetchCandidates returns the peers worth asking for key, in order: the
// current owner, then — within the handoff window after an epoch change —
// the previous owner, which is where the artifact actually lives right
// after a membership change remaps the key. Self is never a candidate; an
// empty slice means "this node should compute".
func (c *Cluster) FetchCandidates(key string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	cands := make([]string, 0, 2)
	cur := c.ring.Owner(key)
	if cur != c.self {
		cands = append(cands, cur)
	}
	if c.prevRing != nil && c.now().Before(c.prevUntil) {
		if prev := c.prevRing.Owner(key); prev != c.self && prev != cur {
			cands = append(cands, prev)
		}
	}
	return cands
}

// Fetch implements engine.PeerFiller: it retrieves the finished, encoded
// artifact for key from the owning peer (or, during an ownership handoff,
// the previous owner) and verifies its SHA-256 content address before
// handing it to the engine for admission.
//
// The (nil, "", nil) return means peer fill does not apply — this node owns
// the key itself, so the engine should compute. Any error is a fill miss:
// the owner is down, doesn't have the artifact yet, or served bytes that
// failed verification; the engine falls back to local compute in all cases,
// so a sick cluster degrades to N independent nodes, never to wrong answers.
func (c *Cluster) Fetch(ctx context.Context, key string) ([]byte, string, error) {
	cands := c.FetchCandidates(key)
	if len(cands) == 0 {
		return nil, "", nil
	}
	var lastErr error
	for _, owner := range cands {
		if !c.Available(owner) {
			lastErr = fmt.Errorf("cluster: owner %s is %s", owner, c.State(owner))
			continue
		}
		body, err := c.fetchFrom(ctx, owner, key)
		if err == nil {
			return body, owner, nil
		}
		lastErr = err
	}
	return nil, "", lastErr
}

// fetchFrom pulls and verifies one artifact from one peer. The body read is
// bounded by the engine's cost-based size estimate for the key (FetchLimit),
// so a corrupt or malicious peer streaming an unbounded body costs at most
// limit+1 bytes, never the fetcher's memory; an over-limit body is a fill
// miss in the same taxonomy as a SHA mismatch.
func (c *Cluster) fetchFrom(ctx context.Context, owner, key string) ([]byte, error) {
	limit := int64(DefaultFetchLimit)
	if c.fetchLimit != nil {
		if l := c.fetchLimit(key); l > 0 {
			limit = l
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+ArtifactPath+url.PathEscape(key), nil)
	if err != nil {
		return nil, err
	}
	if tr := obs.FromContext(ctx); tr != nil {
		req.Header.Set(HeaderTraceID, tr.ID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.MarkFailure(owner)
		return nil, fmt.Errorf("cluster: fetching %s from %s: %w", key, owner, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		c.MarkFailure(owner)
		return nil, fmt.Errorf("cluster: reading artifact %s from %s: %w", key, owner, err)
	}
	// The peer answered: whatever the status, it is alive.
	c.MarkSuccess(owner)
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("cluster: owner %s has no artifact for %s", owner, key)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: owner %s returned %d for %s", owner, resp.StatusCode, key)
	}
	if int64(len(body)) > limit {
		c.metrics.Inc("cluster_peer_fill_over_limit")
		return nil, fmt.Errorf("cluster: artifact %s from %s exceeds the %d-byte fetch bound", key, owner, limit)
	}
	want := resp.Header.Get(HeaderSha256)
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); want == "" || got != want {
		c.metrics.Inc("cluster_peer_fill_sha_mismatch")
		return nil, fmt.Errorf("cluster: artifact %s from %s failed content-address verification (got sha256 %s, header %q)", key, owner, got, want)
	}
	return body, nil
}
