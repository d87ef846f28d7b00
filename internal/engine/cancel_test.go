package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// expensiveReq searches for seconds at b=1 (2-set consensus for 4
// processes under 3-set memory: the filter keeps 23 of the 75 ordered
// partitions, so no Sperner certificate applies and the search runs past 3M
// nodes), with a budget far above that so only cancellation can stop it.
var expensiveReq = SolveRequest{
	Spec:     TaskSpec{Family: "set-consensus", Procs: 4, K: 2},
	MaxLevel: 1,
	MaxNodes: 500_000_000,
	Model:    "3-set",
}

// TestSolveCancellation is the acceptance check for the lifecycle work: a
// canceled Solve on a search needing millions of nodes returns ErrCanceled
// within 250ms of cancellation, bumps the canceled counter exactly once, and
// caches no verdict.
func TestSolveCancellation(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())

	var canceledAt time.Time
	timer := time.AfterFunc(50*time.Millisecond, func() {
		canceledAt = time.Now()
		cancel()
	})
	defer timer.Stop()

	_, err := e.Solve(ctx, expensiveReq)
	returned := time.Now()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%v should wrap the context error", err)
	}
	if lag := returned.Sub(canceledAt); lag > 250*time.Millisecond {
		t.Fatalf("Solve returned %v after cancellation, want ≤ 250ms", lag)
	}
	if got := e.Metrics().Canceled.Load(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
	// A canceled query must not poison the store with a partial verdict.
	for _, k := range e.cache.Keys() {
		if strings.HasPrefix(k, "solve:") {
			t.Fatalf("canceled query left a cached verdict under %q", k)
		}
	}
}

// TestSolveDeadline pins the timeout path: an expired deadline surfaces as
// ErrCanceled wrapping context.DeadlineExceeded, so the serving layer can
// tell a server-side timeout (503) from a client disconnect (499).
func TestSolveDeadline(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := e.Solve(ctx, expensiveReq)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%v should wrap context.DeadlineExceeded", err)
	}
	if got := e.Metrics().Canceled.Load(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}

// TestSolveCanceledBeforeStart pins the cheap path: a context dead on
// arrival is rejected before any computation, with the same typed error.
func TestSolveCanceledBeforeStart(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Solve(ctx, expensiveReq)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestInvalidRequestsTyped pins the taxonomy on the validation side: every
// malformed request surfaces ErrInvalid so the HTTP layer can map it to 400
// without reading message strings.
func TestInvalidRequestsTyped(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	cases := []error{
		func() error {
			_, err := e.Solve(ctx, SolveRequest{Spec: TaskSpec{Family: "nonsense"}})
			return err
		}(),
		func() error {
			_, err := e.Solve(ctx, SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxNodes: -1})
			return err
		}(),
		func() error {
			_, err := e.Solve(ctx, SolveRequest{Spec: TaskSpec{Family: "consensus", Procs: 2}, MaxLevel: MaxSolveLevel + 1})
			return err
		}(),
		func() error {
			_, err := e.ComplexInfo(ctx, ComplexRequest{N: -1, B: 0})
			return err
		}(),
		func() error {
			_, err := e.Converge(ctx, ConvergeRequest{N: 1, Target: 1, MaxK: -1})
			return err
		}(),
		func() error {
			_, err := e.Adversary(ctx, AdversaryRequest{Algo: "nonsense", Adversary: "round-robin", Procs: 3})
			return err
		}(),
	}
	for i, err := range cases {
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: got %v, want ErrInvalid", i, err)
		}
	}
}
