package topology

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSDSParallelCtxMatchesSequential pins that the ctx-aware entry points
// are output-identical to the sequential construction when not canceled.
func TestSDSParallelCtxMatchesSequential(t *testing.T) {
	base := Simplex(2)
	want := SDS(base).CanonicalString()
	for name, sds := range map[string]func(context.Context, *Complex) (*Complex, error){
		"Subdivide":      func(ctx context.Context, c *Complex) (*Complex, error) { return Subdivide(ctx, c, 1, nil) },
		"SDSParallelCtx": func(ctx context.Context, c *Complex) (*Complex, error) { return SDSParallelCtx(ctx, c, 4) },
	} {
		got, err := sds(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		if got.CanonicalString() != want {
			t.Fatalf("%s output differs from SDS", name)
		}
	}
}

// TestSDSParallelCtxCanceled pins the abort path: a context dead on arrival
// stops the construction with an error wrapping the context error.
func TestSDSParallelCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Subdivide(ctx, Simplex(2), 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
	if _, err := SDSParallelCtx(ctx, Simplex(2), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("SDSParallelCtx: got %v, want an error wrapping context.Canceled", err)
	}
}

// TestSDSCtxCanceledMidLevel is the regression test for a level that could
// not be canceled: with one worker (or fewer than two facets per worker)
// the old fan-out fell back to a builder with no checkpoint, so a caller
// gone 5 ms into SDS³(s³) still waited for all 421,875 facets and got a
// success. Cancellation must now land within one checkpoint interval.
func TestSDSCtxCanceledMidLevel(t *testing.T) {
	prev := SDSPow(Simplex(3), 2)
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, cancel)
		start := time.Now()
		_, err := SDSParallelCtx(ctx, prev, workers)
		elapsed := time.Since(start)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v after %v, want an error wrapping context.Canceled", workers, err, elapsed)
		}
		if elapsed > time.Second {
			t.Errorf("workers=%d: cancellation took %v", workers, elapsed)
		}
	}
}
