package topology

import (
	"context"
	"os"
	"testing"

	"waitfree/internal/obs"
)

// sdsGolden pins the exact combinatorics of SDS^b(sⁿ) for every tractable
// (n, b) with n ≤ 3, b ≤ 3 — the Lemma 3.3 sizes. Facet counts are forced
// by theory (Fubini(n+1)^b, since each facet of a level subdivides into
// Fubini(n+1) facets of the next); vertex counts are pinned empirically and
// guard the canonical-key dedup of the construction. These same numbers
// appear as sds.subdivide span attributes in every engine trace, which is
// what makes a trace cross-checkable against the paper.
var sdsGolden = []struct {
	n, b     int
	vertices int
	facets   int
}{
	{0, 0, 1, 1},
	{0, 1, 1, 1},
	{0, 2, 1, 1},
	{0, 3, 1, 1},
	{1, 0, 2, 1},
	{1, 1, 4, 3},
	{1, 2, 10, 9},
	{1, 3, 28, 27},
	{2, 0, 3, 1},
	{2, 1, 12, 13},
	{2, 2, 99, 169},
	{2, 3, 1140, 2197},
	{3, 0, 4, 1},
	{3, 1, 32, 75},
	{3, 2, 1124, 5625},
	{3, 3, 72560, 421875}, // ~15s sequential; behind GOLDEN_FULL
}

// goldenFull reports whether the expensive tail of the table (SDS^3(s³),
// 421875 facets) should run; the CI observability job sets GOLDEN_FULL=1.
func goldenFull() bool { return os.Getenv("GOLDEN_FULL") != "" }

func goldenFor(n, b int) (vertices, facets int, ok bool) {
	for _, g := range sdsGolden {
		if g.n == n && g.b == b {
			return g.vertices, g.facets, true
		}
	}
	return 0, 0, false
}

// TestGoldenSDSCounts builds each subdivision chain sequentially and checks
// the table, plus the theoretical facet recurrence facets(b) =
// Fubini(n+1) · facets(b−1).
func TestGoldenSDSCounts(t *testing.T) {
	for n := 0; n <= 3; n++ {
		c := Simplex(n)
		fub := CountOrderedPartitions(n + 1)
		for b := 0; b <= 3; b++ {
			wantV, wantF, ok := goldenFor(n, b)
			if !ok {
				break
			}
			if n == 3 && b == 3 && !goldenFull() {
				t.Log("skipping (n=3, b=3): set GOLDEN_FULL=1 to include the 421875-facet level")
				break
			}
			if b > 0 {
				c = SDS(c)
			}
			if got := c.NumVertices(); got != wantV {
				t.Errorf("SDS^%d(s%d): %d vertices, want %d", b, n, got, wantV)
			}
			if got := len(c.Facets()); got != wantF {
				t.Errorf("SDS^%d(s%d): %d facets, want %d", b, n, got, wantF)
			}
			if b > 0 {
				_, prevF, _ := goldenFor(n, b-1)
				if wantF != fub*prevF {
					t.Errorf("golden table violates Lemma 3.3 recurrence at (n=%d, b=%d): %d ≠ %d·%d",
						n, b, wantF, fub, prevF)
				}
			}
		}
	}
}

// TestGoldenSDSCountsViaSpanAttributes is the observability half of the
// golden suite: Subdivide must report, through its sds.subdivide span
// attributes, exactly the facet and vertex counts the table pins — the
// trace a production query emits is checkable against Lemma 3.3, not just
// plausible.
func TestGoldenSDSCountsViaSpanAttributes(t *testing.T) {
	for n := 0; n <= 3; n++ {
		maxB := 3
		if n == 3 && !goldenFull() {
			maxB = 2
		}
		tr := obs.NewTrace()
		ctx := obs.WithTrace(context.Background(), tr)
		c := Simplex(n)
		for b := 1; b <= maxB; b++ {
			next, err := Subdivide(ctx, c, 1, nil)
			if err != nil {
				t.Fatalf("Subdivide(n=%d, b=%d): %v", n, b, err)
			}
			c = next
		}
		spans := tr.Snapshot().Find("sds.subdivide")
		if len(spans) != maxB {
			t.Fatalf("n=%d: %d sds.subdivide spans, want %d", n, len(spans), maxB)
		}
		for b := 1; b <= maxB; b++ {
			wantV, wantF, ok := goldenFor(n, b)
			if !ok {
				t.Fatalf("missing golden entry (n=%d, b=%d)", n, b)
			}
			attrs := spans[b-1].Ints
			if attrs["facets_out"] != int64(wantF) || attrs["vertices_out"] != int64(wantV) {
				t.Errorf("n=%d b=%d: span reports facets=%d vertices=%d, golden says facets=%d vertices=%d",
					n, b, attrs["facets_out"], attrs["vertices_out"], wantF, wantV)
			}
			_, prevF, _ := goldenFor(n, b-1)
			if attrs["facets_in"] != int64(prevF) {
				t.Errorf("n=%d b=%d: span facets_in=%d, want %d", n, b, attrs["facets_in"], prevF)
			}
		}
	}
}
