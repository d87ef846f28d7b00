// Package netfault is a seeded, deterministic fault-injection layer for the
// cluster's HTTP traffic — the network-side sibling of internal/faultfs.
//
// The paper characterizes computations that make progress under any run the
// adversary permits; Gafni–Kuznetsov–Manolescu's generalized ACT treats a
// model as exactly the subset of runs an adversary allows. This package lets
// tests (and the CI partition smoke) pick the *network* adversary the same
// way the scheduler and faultfs pick theirs: the cluster's HTTP client wraps
// its transport in a Transport, and every cluster-internal request — probe,
// gossip, fill, forward — is subject to drops (connection refused), delays,
// black holes (hang until the request context expires), response truncation,
// and asymmetric partitions, each drawn from a schedule that is a pure
// function of a seed.
//
// # Determinism
//
// The fault plan for a directed peer pair is a pure function of
// (seed, rate, src, dst, op-index): entry i is derived by hashing those five
// values — never wall clock, goroutine id, or map order — so two Transports
// built with the same (seed, rate) agree byte-for-byte on the plan for every
// pair (PlanString pins this, exactly as faultfs.PlanString does for disk).
// Which *request* meets which plan entry depends on the interleaving of the
// calling goroutines (requests to a pair take entries in arrival order), so
// concurrent soaks see schedule-dependent fault placement over a
// deterministic fault sequence — the contract shared by sched and faultfs.
//
// Partitions are standing rules, not plan entries: SetPartition installs a
// set of blocked directed (src, dst) pairs (parsed from a group or arrow
// spec), and every request crossing a blocked pair fails like a refused
// connection without consuming the pair's plan — so imposing and healing a
// partition never shifts the random schedule, mirroring faultfs.SetEnabled.
package netfault

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable network faults.
type Kind int

// Fault kinds drawn by the plan. KindNone passes the request through.
const (
	KindNone      Kind = iota
	KindDrop           // the request fails immediately, like a refused connection
	KindDelay          // the request is delayed, then passes through
	KindBlackhole      // the request hangs until its context expires
	KindTruncate       // the response body is cut short of its Content-Length
)

// String names the kind (used by PlanString, pinned in tests).
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindBlackhole:
		return "blackhole"
	case KindTruncate:
		return "truncate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Injected fault sentinels: every injected transport error wraps ErrInjected,
// so tests can distinguish scheduled faults from real network trouble.
var (
	ErrInjected = errors.New("netfault: injected fault")

	// ErrDropped is the injected connection-refused-style failure.
	ErrDropped = fmt.Errorf("%w: connection dropped", ErrInjected)

	// ErrPartitioned marks a request blocked by a standing partition rule.
	ErrPartitioned = fmt.Errorf("%w: partitioned", ErrInjected)
)

// DefaultRate is the per-request fault probability when the caller passes
// rate <= 0: high enough that a short soak meets every kind, low enough that
// the cluster still converges.
const DefaultRate = 0.1

// DefaultMaxDelay bounds KindDelay injections. Short relative to probe and
// request timeouts, so a delayed request is slow, not dead.
const DefaultMaxDelay = 150 * time.Millisecond

// Transport injects scheduled network faults and standing partitions into an
// inner http.RoundTripper. Safe for concurrent use.
type Transport struct {
	inner    http.RoundTripper
	src      string
	seed     int64
	rate     float64
	maxDelay time.Duration

	enabled  atomic.Bool
	injected atomic.Int64

	mu      sync.Mutex
	ops     map[string]int  // directed pair "src->dst" → next op index
	blocked map[string]bool // directed pair "src->dst" → standing block
	spec    string          // the partition spec as last set (for Snapshot)
}

// Options configures a Transport.
type Options struct {
	// Seed drives the fault plan; the plan is a pure function of
	// (Seed, Rate, src, dst, op-index).
	Seed int64
	// Rate is the per-request fault probability. 0 means no scheduled
	// faults at all — the Transport acts purely as a partition enforcer,
	// which is what the CI partition smoke wants. Negative = DefaultRate;
	// values above 1 clamp to 1.
	Rate float64
	// MaxDelay bounds KindDelay injections; 0 = DefaultMaxDelay.
	MaxDelay time.Duration
}

// New wraps inner (nil = http.DefaultTransport) for requests originating at
// src (the local node's advertised address; normalized like a cluster peer).
// Injection starts enabled.
func New(inner http.RoundTripper, src string, o Options) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	rate := o.Rate
	if rate < 0 {
		rate = DefaultRate
	}
	if rate > 1 {
		rate = 1
	}
	maxDelay := o.MaxDelay
	if maxDelay <= 0 {
		maxDelay = DefaultMaxDelay
	}
	t := &Transport{
		inner:    inner,
		src:      normalize(src),
		seed:     o.Seed,
		rate:     rate,
		maxDelay: maxDelay,
		ops:      make(map[string]int),
		blocked:  make(map[string]bool),
	}
	t.enabled.Store(true)
	return t
}

// Injected returns how many faults (scheduled or partition) have been
// injected so far.
func (t *Transport) Injected() int64 { return t.injected.Load() }

// SetEnabled turns scheduled injection on or off. While off, requests pass
// through without consuming plan entries — healing never shifts the schedule
// for later ops, the same contract as faultfs.SetEnabled. Partitions are
// independent of this switch (heal those with SetPartition("")).
func (t *Transport) SetEnabled(on bool) { t.enabled.Store(on) }

// normalize canonicalizes a node address the way the cluster does: trimmed,
// scheme defaulted to http://, trailing slash dropped. Kept local so the
// package stays stdlib-only.
func normalize(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// pairKey renders a directed pair.
func pairKey(src, dst string) string { return src + "->" + dst }

// SetPartition installs the standing partition described by spec, replacing
// any previous one. Two syntaxes, combinable with ';':
//
//	a,b|c,d   — groups: every pair crossing a '|' boundary is blocked in
//	            both directions (a↔c, a↔d, b↔c, b↔d);
//	a->b      — a single directed edge: a's requests to b are blocked,
//	            b's to a are not (the asymmetric case).
//
// Addresses are normalized like cluster peers, so "localhost:9101" and
// "http://localhost:9101" name the same node. An empty spec heals everything.
// Every node of a cluster given the same group spec enforces the full
// partition through outbound blocking alone — no root, iptables, or netns.
func (t *Transport) SetPartition(spec string) error {
	blocked := make(map[string]bool)
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if strings.Contains(item, "->") {
			parts := strings.SplitN(item, "->", 2)
			src, dst := normalize(parts[0]), normalize(parts[1])
			if src == "" || dst == "" {
				return fmt.Errorf("netfault: bad directed pair %q", item)
			}
			blocked[pairKey(src, dst)] = true
			continue
		}
		var groups [][]string
		for _, g := range strings.Split(item, "|") {
			var members []string
			for _, a := range strings.Split(g, ",") {
				if n := normalize(a); n != "" {
					members = append(members, n)
				}
			}
			if len(members) > 0 {
				groups = append(groups, members)
			}
		}
		if len(groups) < 2 {
			if len(groups) == 1 {
				return fmt.Errorf("netfault: partition %q has a single side; use a|b groups or a->b pairs", item)
			}
			continue
		}
		for i, gi := range groups {
			for j, gj := range groups {
				if i == j {
					continue
				}
				for _, a := range gi {
					for _, b := range gj {
						blocked[pairKey(a, b)] = true
					}
				}
			}
		}
	}
	t.mu.Lock()
	t.blocked = blocked
	t.spec = spec
	t.mu.Unlock()
	return nil
}

// entry derives plan entry i for the directed pair (src, dst): a pure
// function of (seed, rate, src, dst, i) via SHA-256, with a fixed number of
// derived values per entry — the whole determinism argument in one place.
func (t *Transport) entry(src, dst string, i int) (Kind, int64) {
	var buf [8]byte
	h := sha256.New()
	binary.BigEndian.PutUint64(buf[:], uint64(t.seed))
	h.Write(buf[:])
	io.WriteString(h, "|")
	io.WriteString(h, src)
	io.WriteString(h, "|")
	io.WriteString(h, dst)
	io.WriteString(h, "|")
	binary.BigEndian.PutUint64(buf[:], uint64(i))
	h.Write(buf[:])
	sum := h.Sum(nil)
	p := float64(binary.BigEndian.Uint64(sum[0:8])>>11) / float64(1<<53)
	if p >= t.rate {
		return KindNone, 0
	}
	kind := Kind(1 + int(sum[8])%4)
	arg := int64(binary.BigEndian.Uint64(sum[9:17]) &^ (1 << 63))
	return kind, arg
}

// PlanString renders the first n plan entries for the directed pair
// (src, dst), without consuming them. Two Transports with equal (seed, rate)
// render byte-identical plans — pinned in TestPlanDeterminism, exactly like
// faultfs §11's contract.
func (t *Transport) PlanString(src, dst string, n int) string {
	src, dst = normalize(src), normalize(dst)
	var b strings.Builder
	fmt.Fprintf(&b, "netfault plan seed=%d rate=%g src=%s dst=%s\n", t.seed, t.rate, src, dst)
	for i := 0; i < n; i++ {
		kind, arg := t.entry(src, dst, i)
		fmt.Fprintf(&b, "op=%d kind=%s arg=%d\n", i, kind, arg)
	}
	return b.String()
}

// Snapshot reports the adversary's live state for /debug/netfault: seed,
// rate, enabled flag, injected count, current partition spec, blocked pairs
// (sorted), and per-pair op counters.
func (t *Transport) Snapshot() map[string]any {
	t.mu.Lock()
	pairs := make([]string, 0, len(t.blocked))
	for p := range t.blocked {
		pairs = append(pairs, p)
	}
	ops := make(map[string]int, len(t.ops))
	for p, n := range t.ops {
		ops[p] = n
	}
	spec := t.spec
	t.mu.Unlock()
	sort.Strings(pairs)
	return map[string]any{
		"seed":          t.seed,
		"rate":          t.rate,
		"src":           t.src,
		"enabled":       t.enabled.Load(),
		"injected":      t.injected.Load(),
		"partition":     spec,
		"blocked_pairs": pairs,
		"ops":           ops,
	}
}

// take consumes the next plan entry for dst. Disabled injection consumes
// nothing, so the schedule never shifts across heal phases.
func (t *Transport) take(dst string) (Kind, int64) {
	if !t.enabled.Load() {
		return KindNone, 0
	}
	key := pairKey(t.src, dst)
	t.mu.Lock()
	i := t.ops[key]
	t.ops[key] = i + 1
	t.mu.Unlock()
	return t.entry(t.src, dst, i)
}

// truncatedBody cuts a response body after limit bytes, then reports the
// abrupt end the way a torn TCP stream would: io.ErrUnexpectedEOF. The
// original Content-Length header is left untouched, so the client sees a
// response shorter than promised — the exact degenerate shape the fetch
// path's verified-miss handling must absorb.
type truncatedBody struct {
	inner     io.ReadCloser
	remaining int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		return n, io.EOF
	}
	if b.remaining <= 0 && err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }

// RoundTrip implements http.RoundTripper: partition rules first (standing,
// plan-neutral), then one plan entry for the (src, dst) pair.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	dst := normalize(req.URL.Scheme + "://" + req.URL.Host)
	t.mu.Lock()
	isBlocked := t.blocked[pairKey(t.src, dst)]
	t.mu.Unlock()
	if isBlocked {
		t.injected.Add(1)
		return nil, fmt.Errorf("netfault: %s -> %s: %w", t.src, dst, ErrPartitioned)
	}
	kind, arg := t.take(dst)
	switch kind {
	case KindDrop:
		t.injected.Add(1)
		return nil, fmt.Errorf("netfault: %s -> %s: %w", t.src, dst, ErrDropped)
	case KindBlackhole:
		t.injected.Add(1)
		<-req.Context().Done()
		return nil, fmt.Errorf("netfault: %s -> %s black hole: %w (%w)", t.src, dst, ErrInjected, context.Cause(req.Context()))
	case KindDelay:
		t.injected.Add(1)
		d := time.Duration(arg % int64(t.maxDelay))
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, fmt.Errorf("netfault: %s -> %s delayed past deadline: %w (%w)", t.src, dst, ErrInjected, context.Cause(req.Context()))
		}
		return t.inner.RoundTrip(req)
	case KindTruncate:
		resp, err := t.inner.RoundTrip(req)
		if err != nil || resp.Body == nil {
			return resp, err
		}
		t.injected.Add(1)
		cut := arg % 512 // small enough that real artifacts are always cut
		resp.Body = &truncatedBody{inner: resp.Body, remaining: cut}
		return resp, nil
	default:
		return t.inner.RoundTrip(req)
	}
}
