package netfault

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPlanDeterminism pins the reproducibility contract: the plan is a pure
// function of (seed, rate, src, dst, op-index). Two transports with equal
// parameters render byte-identical plans; changing any input changes the
// plan; and rendering does not consume entries.
func TestPlanDeterminism(t *testing.T) {
	a := New(nil, "a:1", Options{Seed: 42, Rate: 0.5})
	b := New(nil, "a:1", Options{Seed: 42, Rate: 0.5})
	p1 := a.PlanString("a:1", "b:1", 64)
	if p2 := b.PlanString("a:1", "b:1", 64); p1 != p2 {
		t.Fatalf("equal (seed, rate) must render identical plans:\n%s\nvs\n%s", p1, p2)
	}
	if p3 := a.PlanString("a:1", "b:1", 64); p3 != p1 {
		t.Fatal("PlanString must not consume plan entries")
	}
	if p := a.PlanString("a:1", "c:1", 64); p[strings.Index(p, "\n"):] == p1[strings.Index(p1, "\n"):] {
		t.Fatal("different dst must draw a different schedule")
	}
	other := New(nil, "a:1", Options{Seed: 43, Rate: 0.5})
	if p := other.PlanString("a:1", "b:1", 64); p[strings.Index(p, "\n"):] == p1[strings.Index(p1, "\n"):] {
		t.Fatal("different seed must draw a different schedule")
	}

	// At rate 0.5 over 64 entries, both fault and non-fault entries appear,
	// and every fault kind shows up — the schedule is usable as an adversary.
	for _, want := range []string{"kind=none", "kind=drop", "kind=delay", "kind=blackhole", "kind=truncate"} {
		if !strings.Contains(p1, want) {
			t.Errorf("64-entry rate-0.5 plan never draws %q:\n%s", want, p1)
		}
	}
}

// TestPlanPinned pins one plan prefix byte-for-byte, the same regression
// anchor faultfs pins in DESIGN §11: if the derivation ever changes, old
// seeds stop reproducing old failures, and this test is the tripwire.
func TestPlanPinned(t *testing.T) {
	tr := New(nil, "a:1", Options{Seed: 1, Rate: 0.5})
	got := tr.PlanString("a:1", "b:1", 4)
	if !strings.HasPrefix(got, "netfault plan seed=1 rate=0.5 src=http://a:1 dst=http://b:1\n") {
		t.Fatalf("plan header changed:\n%s", got)
	}
	lines := strings.Split(got, "\n")
	if len(lines) < 5 {
		t.Fatalf("expected 4 plan lines:\n%s", got)
	}
	// The exact entries are pinned in TestPlanPinnedGolden below once; here
	// assert the shape every line must have.
	for _, l := range lines[1:5] {
		if !strings.HasPrefix(l, "op=") || !strings.Contains(l, " kind=") || !strings.Contains(l, " arg=") {
			t.Fatalf("malformed plan line %q in:\n%s", l, got)
		}
	}
}

// TestPlanPinnedGolden pins the full first-4-ops rendering for seed=1
// byte-for-byte. Generated once from the implementation and frozen: a
// mismatch means old (seed, rate) pairs no longer replay old schedules.
func TestPlanPinnedGolden(t *testing.T) {
	tr := New(nil, "a:1", Options{Seed: 1, Rate: 0.5})
	got := tr.PlanString("a:1", "b:1", 4)
	want := "netfault plan seed=1 rate=0.5 src=http://a:1 dst=http://b:1\n" +
		"op=0 kind=none arg=0\n" +
		"op=1 kind=none arg=0\n" +
		"op=2 kind=blackhole arg=2025613530625706932\n" +
		"op=3 kind=none arg=0\n"
	if got != want {
		t.Fatalf("plan derivation changed — old seeds no longer reproduce old failures\n got:\n%s\nwant:\n%s", got, want)
	}
}

// countingTransport records how many requests actually reached the network.
type countingTransport struct {
	inner http.RoundTripper
	n     int
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n++
	return c.inner.RoundTrip(r)
}

func backend(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// get issues one GET through the transport with a deadline.
func get(t *testing.T, tr http.RoundTripper, url string, timeout time.Duration) (*http.Response, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr.RoundTrip(req)
}

// TestFaultKinds drives each kind through a live backend by scanning the
// deterministic plan for an op of that kind and issuing exactly enough
// requests to land on it.
func TestFaultKinds(t *testing.T) {
	payload := strings.Repeat("x", 4096) // longer than any truncate cut (< 512)
	ts := backend(t, payload)

	// Find, for each kind, the first op index drawing it under seed 7.
	probe := New(nil, "self:1", Options{Seed: 7, Rate: 0.9, MaxDelay: 10 * time.Millisecond})
	dst := ts.URL
	firstOp := map[Kind]int{}
	for i := 0; i < 512 && len(firstOp) < 4; i++ {
		kind, _ := probe.entry(normalize("self:1"), normalize(dst), i)
		if kind != KindNone {
			if _, seen := firstOp[kind]; !seen {
				firstOp[kind] = i
			}
		}
	}
	if len(firstOp) < 4 {
		t.Fatalf("seed 7 rate 0.9 never drew all kinds in 512 ops: %v", firstOp)
	}

	for kind, op := range firstOp {
		t.Run(kind.String(), func(t *testing.T) {
			inner := &countingTransport{inner: http.DefaultTransport}
			tr := New(inner, "self:1", Options{Seed: 7, Rate: 0.9, MaxDelay: 10 * time.Millisecond})
			// Burn entries before op without touching the network.
			tr.SetEnabled(true)
			for i := 0; i < op; i++ {
				k, _ := tr.take(normalize(dst))
				_ = k
			}
			resp, err := get(t, tr, dst, 300*time.Millisecond)
			switch kind {
			case KindDrop:
				if !errors.Is(err, ErrDropped) {
					t.Fatalf("drop op returned (%v, %v), want ErrDropped", resp, err)
				}
			case KindBlackhole:
				if err == nil || !errors.Is(err, ErrInjected) {
					t.Fatalf("blackhole op returned (%v, %v), want ctx-deadline injected error", resp, err)
				}
			case KindDelay:
				if err != nil {
					t.Fatalf("delay op must still succeed: %v", err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if string(body) != payload {
					t.Fatal("delayed response corrupted")
				}
			case KindTruncate:
				if err != nil {
					t.Fatalf("truncate op must return a response: %v", err)
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !errors.Is(rerr, io.ErrUnexpectedEOF) {
					t.Fatalf("truncated body read = (%d bytes, %v), want ErrUnexpectedEOF", len(body), rerr)
				}
				if len(body) >= len(payload) {
					t.Fatal("truncate injected nothing")
				}
			}
			if tr.Injected() == 0 {
				t.Fatal("fault not counted")
			}
		})
	}
}

// TestDisabledConsumesNothing pins the heal contract shared with faultfs:
// requests made while injection is disabled pass through without consuming
// plan entries, so re-enabling resumes the schedule exactly where it paused.
func TestDisabledConsumesNothing(t *testing.T) {
	ts := backend(t, "ok")
	tr := New(nil, "self:1", Options{Seed: 3, Rate: 1})
	tr.SetEnabled(false)
	for i := 0; i < 8; i++ {
		resp, err := get(t, tr, ts.URL, time.Second)
		if err != nil {
			t.Fatalf("disabled transport must pass through (op %d): %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if tr.Injected() != 0 {
		t.Fatal("disabled transport injected")
	}
	tr.mu.Lock()
	consumed := len(tr.ops)
	tr.mu.Unlock()
	if consumed != 0 {
		t.Fatal("disabled transport consumed plan entries; heal shifts the schedule")
	}
}

// TestPartition exercises the standing rules: group specs block both
// directions across the boundary, arrow specs block exactly one direction,
// empty heals, and none of it consumes plan entries.
func TestPartition(t *testing.T) {
	ts := backend(t, "ok")
	a := New(nil, "a:1", Options{Seed: 1, Rate: 0})

	if err := a.SetPartition("a:1|" + ts.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := get(t, a, ts.URL, time.Second); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("group partition must block a → backend, got %v", err)
	}
	if !a.Partitioned(ts.URL, "a:1") {
		t.Fatal("group partitions must be symmetric")
	}

	// Heal: empty spec unblocks everything.
	if err := a.SetPartition(""); err != nil {
		t.Fatal(err)
	}
	resp, err := get(t, a, ts.URL, time.Second)
	if err != nil {
		t.Fatalf("healed transport must pass: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Asymmetric: a->backend blocked, backend->a not.
	if err := a.SetPartition("a:1->" + ts.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := get(t, a, ts.URL, time.Second); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("directed pair must block, got %v", err)
	}
	if a.Partitioned(ts.URL, "a:1") {
		t.Fatal("directed pair must not block the reverse direction")
	}

	// Partition rejections never consume the random plan.
	a.mu.Lock()
	consumed := 0
	for _, n := range a.ops {
		consumed += n
	}
	a.mu.Unlock()
	if consumed != 1 { // exactly the one healed pass-through above
		t.Fatalf("partition traffic consumed %d plan entries, want 1 (the healed request)", consumed)
	}

	// Bad specs are rejected.
	if err := a.SetPartition("justonegroup"); err == nil {
		t.Fatal("single-sided partition spec must be rejected")
	}
	if err := a.SetPartition("->x"); err == nil {
		t.Fatal("empty-src directed pair must be rejected")
	}

	// Three-group specs block every cross-group pair.
	if err := a.SetPartition("a:1|b:1|c:1"); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"a:1", "b:1"}, {"b:1", "a:1"}, {"b:1", "c:1"}, {"a:1", "c:1"}} {
		if !a.Partitioned(pair[0], pair[1]) {
			t.Fatalf("3-group spec must block %s -> %s", pair[0], pair[1])
		}
	}
}

// TestSnapshotShape pins the /debug/netfault payload contract.
func TestSnapshotShape(t *testing.T) {
	tr := New(nil, "a:1", Options{Seed: 9, Rate: 0.25})
	if err := tr.SetPartition("a:1->b:1"); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if snap["seed"] != int64(9) || snap["rate"] != 0.25 || snap["src"] != "http://a:1" {
		t.Fatalf("snapshot identity fields: %v", snap)
	}
	if snap["enabled"] != true || snap["partition"] != "a:1->b:1" {
		t.Fatalf("snapshot state fields: %v", snap)
	}
	pairs := snap["blocked_pairs"].([]string)
	if len(pairs) != 1 || pairs[0] != "http://a:1->http://b:1" {
		t.Fatalf("blocked_pairs: %v", pairs)
	}
}

// Partitioned reports whether the standing rules block src → dst.
func (t *Transport) Partitioned(src, dst string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.blocked[pairKey(normalize(src), normalize(dst))]
}
