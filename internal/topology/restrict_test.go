package topology_test

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"waitfree/internal/model"
	"waitfree/internal/topology"
)

// facetKeySet returns the set of facets rendered as sorted key tuples —
// the representation-independent identity of a facet.
func facetKeySet(c *topology.Complex) map[string]bool {
	set := make(map[string]bool, len(c.Facets()))
	for _, f := range c.Facets() {
		set[facetKey(c, f)] = true
	}
	return set
}

func facetKey(c *topology.Complex, f []topology.Vertex) string {
	keys := make([]string, len(f))
	for i, v := range f {
		keys[i] = c.Key(v)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x1f")
}

// TestSDSBlockSizesGolden pins the ordered-partition block sizes recovered
// from provenance on SDS(s²): 13 facets (Fubini(3)) splitting into 1× [3],
// 3× [2 1], 3× [1 2], and 6× [1 1 1].
func TestSDSBlockSizesGolden(t *testing.T) {
	s := topology.SDS(topology.Simplex(2))
	counts := map[string]int{}
	for _, f := range s.Facets() {
		blocks, err := s.SDSBlockSizes(f)
		if err != nil {
			t.Fatalf("SDSBlockSizes: %v", err)
		}
		sum := 0
		for _, b := range blocks {
			if b <= 0 {
				t.Fatalf("non-positive block in %v", blocks)
			}
			sum += b
		}
		if sum != len(f) {
			t.Fatalf("blocks %v sum to %d, facet has %d vertices", blocks, sum, len(f))
		}
		key := ""
		for i, b := range blocks {
			if i > 0 {
				key += " "
			}
			key += string(rune('0' + b))
		}
		counts[key]++
	}
	want := map[string]int{"3": 1, "2 1": 3, "1 2": 3, "1 1 1": 6}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("block signature [%s]: got %d facets, want %d (all: %v)", k, counts[k], n, counts)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("unexpected block signatures: %v", counts)
	}
}

// TestSDSBlockSizesNoProvenance: explicit complexes carry no snapshot
// provenance, so block-size recovery must refuse rather than guess.
func TestSDSBlockSizesNoProvenance(t *testing.T) {
	c := topology.Simplex(2)
	if _, err := c.SDSBlockSizes(c.Facets()[0]); err == nil {
		t.Fatal("SDSBlockSizes on an explicit complex: want error, got nil")
	}
}

// TestRestrictSDSIdentity: the wait-free paths hand back the subdivision
// itself — pointer-identical, hence byte-identical canonical encodings and
// unchanged content addresses. Both the nil filter and a non-nil filter
// that happens to accept everything take the fast path.
func TestRestrictSDSIdentity(t *testing.T) {
	s := topology.SDS(topology.Simplex(2))
	r, err := topology.RestrictSDS(s, nil)
	if err != nil {
		t.Fatalf("nil filter: %v", err)
	}
	if r != s {
		t.Error("nil filter: want the identical *Complex back")
	}
	r, err = topology.RestrictSDS(s, func([]int) bool { return true })
	if err != nil {
		t.Fatalf("accept-all filter: %v", err)
	}
	if r != s {
		t.Error("accept-all filter: want the identical *Complex back")
	}
	if wf, err := topology.Subdivide(context.Background(), topology.Simplex(2), 2, nil); err != nil {
		t.Fatalf("Subdivide nil: %v", err)
	} else if got, want := wf.CanonicalHash(), topology.SDSPow(topology.Simplex(2), 2).CanonicalHash(); got != want {
		t.Errorf("Subdivide(·, 2, nil) hash %s != SDSPow hash %s", got, want)
	}
}

// TestRestrictSDSGoldenCounts pins facet counts of one restricted level on
// s² for each model family, countable by hand from the 13 ordered
// partitions of a 3-set.
func TestRestrictSDSGoldenCounts(t *testing.T) {
	cases := []struct {
		spec   model.Spec
		facets int
	}{
		{model.TResilient(0), 1},    // only [3]: everyone in one synchronous block
		{model.TResilient(1), 4},    // [3] + the three [1 2]s: ≥ 2 correct procs see all
		{model.TResilient(2), 13},   // t = n−1 is wait-free in behavior
		{model.KConcurrency(1), 6},  // the six [1 1 1] orderings
		{model.KConcurrency(2), 12}, // everything but [3]
		{model.KConcurrency(3), 13}, // k = n is wait-free in behavior
		{model.KSet(1), 1},          // first block ≥ 3: consensus power = full sync
		{model.KSet(2), 4},          // first block ≥ 2
		{model.KSet(3), 13},         // k = n is wait-free in behavior
	}
	base := topology.Simplex(2)
	full := topology.SDS(base)
	fullFacets := facetKeySet(full)
	for _, tc := range cases {
		r, err := topology.Subdivide(context.Background(), base, 1, tc.spec.Filter())
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Canonical(), err)
		}
		if got := len(r.Facets()); got != tc.facets {
			t.Errorf("%s: %d facets, want %d", tc.spec.Canonical(), got, tc.facets)
		}
		for _, f := range r.Facets() {
			if !fullFacets[facetKey(r, f)] {
				t.Errorf("%s: facet %q not a facet of SDS(s²)", tc.spec.Canonical(), facetKey(r, f))
			}
		}
		// The branching factor the cost model charges is exactly the facet
		// count of one restricted level of the full simplex.
		if n, err := tc.spec.CountAllowedPartitions(3); err != nil || n != tc.facets {
			t.Errorf("%s: CountAllowedPartitions(3) = %d, %v; want %d", tc.spec.Canonical(), n, err, tc.facets)
		}
	}
}

// TestRestrictSDSRejectAll: a filter that empties the level is an error,
// not a degenerate complex.
func TestRestrictSDSRejectAll(t *testing.T) {
	if _, err := topology.Subdivide(context.Background(), topology.Simplex(2), 1, func([]int) bool { return false }); err == nil {
		t.Fatal("reject-all filter: want error, got nil")
	}
}

// checkRestriction asserts the structural contract: r is a chromatic,
// carrier-respecting subcomplex of s whose facets are facets of s with
// vertices keeping their keys, colors, and carriers.
func checkRestriction(t *testing.T, s, r *topology.Complex) {
	t.Helper()
	if !r.IsChromatic() {
		t.Fatal("restricted complex is not chromatic")
	}
	if r.Base() != s.Base() {
		t.Fatal("restricted complex has a different base")
	}
	sByKey := make(map[string]topology.Vertex, s.NumVertices())
	for v := 0; v < s.NumVertices(); v++ {
		sByKey[s.Key(topology.Vertex(v))] = topology.Vertex(v)
	}
	for v := 0; v < r.NumVertices(); v++ {
		rv := topology.Vertex(v)
		sv, ok := sByKey[r.Key(rv)]
		if !ok {
			t.Fatalf("vertex %q not in the full subdivision", r.Key(rv))
		}
		if r.Color(rv) != s.Color(sv) {
			t.Fatalf("vertex %q: color %d != %d", r.Key(rv), r.Color(rv), s.Color(sv))
		}
		rc := append([]topology.Vertex(nil), r.Carrier(rv)...)
		sc := append([]topology.Vertex(nil), s.Carrier(sv)...)
		sort.Slice(rc, func(i, j int) bool { return rc[i] < rc[j] })
		sort.Slice(sc, func(i, j int) bool { return sc[i] < sc[j] })
		if len(rc) != len(sc) {
			t.Fatalf("vertex %q: carrier %v != %v", r.Key(rv), rc, sc)
		}
		for i := range rc {
			if rc[i] != sc[i] {
				t.Fatalf("vertex %q: carrier %v != %v", r.Key(rv), rc, sc)
			}
		}
	}
	fullFacets := facetKeySet(s)
	for _, f := range r.Facets() {
		if !fullFacets[facetKey(r, f)] {
			t.Fatalf("facet %q of the restriction is not a facet of the full SDS", facetKey(r, f))
		}
	}
}

// TestRestrictSDSMatchesRebuild runs every model that restricts something
// down the chains the service builds, R^b(sⁿ) for n ≤ 3 at b ≤ 2 (b ≤ 1
// at n = 3), and checks each compacted level against the explicit rebuild.
func TestRestrictSDSMatchesRebuild(t *testing.T) {
	for n := 1; n <= 3; n++ {
		for _, spec := range []model.Spec{model.TResilient(0), model.TResilient(1), model.KConcurrency(1),
			model.KConcurrency(2), model.KSet(1), model.KSet(2)} {
			if spec.Validate(n+1) != nil {
				continue
			}
			c := topology.Simplex(n)
			for b := 1; b <= 2 && (n < 3 || b == 1); b++ {
				s := topology.SDS(c)
				r, err := topology.RestrictSDS(s, spec.Filter())
				if err != nil {
					t.Fatalf("n=%d b=%d %s: %v", n, b, spec.Canonical(), err)
				}
				checkCompaction(t, s, spec.Filter(), r)
				c = r
			}
		}
	}
}

// fuzzSpec decodes the (family, param) fuzz bytes into a model spec and a
// flag for whether the filter must be a behavioral no-op (identity path).
func fuzzSpec(fam byte, param int) (spec model.Spec, ok bool) {
	switch fam {
	case 'w':
		return model.WaitFree(), true
	case 'r':
		return model.TResilient(param), true
	case 'c':
		return model.KConcurrency(param), true
	case 's':
		return model.KSet(param), true
	default:
		return model.Spec{}, false
	}
}

// checkCompaction asserts that r, RestrictSDS(s, accept), is byte for byte
// the explicit rebuild of the restriction (the oracle RestrictSDSRebuild):
// the same keys in index order, colors, carriers, facets in order, and
// canonical string.
func checkCompaction(t *testing.T, s *topology.Complex, accept topology.FacetFilter, r *topology.Complex) {
	t.Helper()
	want, err := topology.RestrictSDSRebuild(s, accept)
	if err != nil {
		t.Fatalf("rebuild oracle: %v", err)
	}
	if r.NumVertices() != want.NumVertices() {
		t.Fatalf("%d vertices, rebuild has %d", r.NumVertices(), want.NumVertices())
	}
	for v := 0; v < r.NumVertices(); v++ {
		rv := topology.Vertex(v)
		if r.Key(rv) != want.Key(rv) || r.Color(rv) != want.Color(rv) || !slices.Equal(r.Carrier(rv), want.Carrier(rv)) {
			t.Fatalf("vertex %d: (%q, %d, %v), rebuild (%q, %d, %v)", v,
				r.Key(rv), r.Color(rv), r.Carrier(rv), want.Key(rv), want.Color(rv), want.Carrier(rv))
		}
	}
	if !slices.EqualFunc(r.Facets(), want.Facets(), slices.Equal[[]topology.Vertex]) {
		t.Fatalf("facets %v, rebuild %v", r.Facets(), want.Facets())
	}
	if r.CanonicalString() != want.CanonicalString() {
		t.Fatal("canonical string differs from the rebuild's")
	}
}

// FuzzRestrictedSubdivision: for random chromatic complexes and random
// model parameters, one restricted subdivision level is a simplicial,
// chromatic, carrier-respecting subcomplex of the full SDS, the compacted
// arena equals the explicit rebuild byte for byte, and the wait-free filter
// is byte-identical (pointer-identical) to SDS.
func FuzzRestrictedSubdivision(f *testing.F) {
	f.Add(int64(1), byte('w'), 0)
	f.Add(int64(2), byte('r'), 0)
	f.Add(int64(3), byte('r'), 1)
	f.Add(int64(4), byte('c'), 1)
	f.Add(int64(5), byte('c'), 2)
	f.Add(int64(6), byte('s'), 2)
	f.Add(int64(7), byte('s'), 1)
	f.Fuzz(func(t *testing.T, seed int64, fam byte, param int) {
		spec, ok := fuzzSpec(fam, param)
		if !ok {
			t.Skip("not a model family byte")
		}
		// RandomChromaticComplex tops out at 3 colors; any larger procs
		// bound keeps the parameter in every facet's valid range.
		if err := spec.Validate(3); err != nil {
			t.Skip("parameter out of range")
		}
		base := topology.RandomChromaticComplex(rand.New(rand.NewSource(seed)))
		s := topology.SDS(base)
		r, err := topology.RestrictSDS(s, spec.Filter())
		if err != nil {
			t.Fatalf("RestrictSDS(%s): %v", spec.Canonical(), err)
		}
		if spec.IsWaitFree() && r != s {
			t.Fatal("wait-free restriction is not the identical complex")
		}
		checkRestriction(t, s, r)
		checkCompaction(t, s, spec.Filter(), r)
		// Accepted facets keep their full vertex set, so the restriction
		// still covers every base facet and supports another level.
		s2 := topology.SDS(r)
		r2, err := topology.RestrictSDS(s2, spec.Filter())
		if err != nil {
			t.Fatalf("second restricted level (%s): %v", spec.Canonical(), err)
		}
		checkRestriction(t, s2, r2)
		checkCompaction(t, s2, spec.Filter(), r2)
	})
}
