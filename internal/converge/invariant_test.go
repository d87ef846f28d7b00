package converge

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"waitfree/internal/topology"
)

// TestFindChromaticMapInvariants: for random chromatic base complexes C
// (the seeded generator shared with internal/topology), every map produced
// by FindChromaticMapCtx onto A = SDS(C) must be simplicial, color-preserving,
// and carrier-respecting — the three Theorem 5.1 conditions — on every
// input, not just the standard simplices the service exposes.
func TestFindChromaticMapInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := topology.RandomChromaticComplex(rng)
		a := topology.SDS(base)

		phi, k, err := FindChromaticMapCtx(context.Background(), base, a, 2)
		if err != nil {
			// A map always exists by k = 1 (SDS^1(C) → SDS(C) contains the
			// identity), so any search failure is a real bug.
			t.Logf("seed %d: no map found: %v", seed, err)
			return false
		}
		if k > 2 {
			t.Logf("seed %d: k = %d out of range", seed, k)
			return false
		}
		if err := phi.Validate(); err != nil {
			t.Logf("seed %d: map not simplicial: %v", seed, err)
			return false
		}
		if !phi.ColorPreserving() {
			t.Logf("seed %d: map not color preserving", seed)
			return false
		}
		if !phi.CarrierRespecting() {
			t.Logf("seed %d: map not carrier respecting", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFindCarrierMapInvariants is the non-chromatic (Lemma 5.3) variant:
// maps onto the barycentric subdivision must be simplicial and
// carrier-respecting (colors are out of scope by construction).
func TestFindCarrierMapInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := topology.RandomChromaticComplex(rng)
		bsd := topology.Bsd(base)

		phi, k, err := FindCarrierMapCtx(context.Background(), base, bsd, 3)
		if err != nil {
			t.Logf("seed %d: no carrier map found: %v", seed, err)
			return false
		}
		if k > 3 {
			t.Logf("seed %d: k = %d out of range", seed, k)
			return false
		}
		if err := phi.Validate(); err != nil {
			t.Logf("seed %d: map not simplicial: %v", seed, err)
			return false
		}
		if !phi.CarrierRespecting() {
			t.Logf("seed %d: map not carrier respecting", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
