package converge

import (
	"context"
	"errors"
	"testing"

	"waitfree/internal/topology"
)

// TestFindChromaticMapCtxCanceled pins the search's abort path: a context
// dead on arrival surfaces an error wrapping the context error, before any
// level is searched.
func TestFindChromaticMapCtxCanceled(t *testing.T) {
	base := topology.Simplex(1)
	a := topology.SDS(base)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := FindChromaticMapCtx(ctx, base, a, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
	if _, _, err := FindCarrierMapCtx(ctx, base, topology.Bsd(base), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("carrier: got %v, want an error wrapping context.Canceled", err)
	}
}

// TestFindChromaticMapCtxBackground pins that a live context does not
// disturb the search: A = SDS(s¹) is reached at k = 1 by a valid map.
func TestFindChromaticMapCtxBackground(t *testing.T) {
	base := topology.Simplex(1)
	a := topology.SDS(base)
	phi, k, err := FindChromaticMapCtx(context.Background(), base, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 || phi.Validate() != nil || !phi.ColorPreserving() || !phi.CarrierRespecting() {
		t.Fatalf("k = %d; want a valid map at k = 1", k)
	}
}
