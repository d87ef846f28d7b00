package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// This file is the independent oracle for the sealed facet order
// (facetorder.go). The production sort never compares two facets; the
// oracle below is the comparator the seed's order was defined by —
// descending size, then the comma-joined decimal strings of the sorted
// vertex lists — rendered with strconv on every comparison.

// cmpFacetOrder orders facets by descending size, then by ascending
// comma-joined-decimal string order of the sorted vertex lists, without
// building the joined strings: for equal-length facets, comparing the
// decimal renderings element-wise is equivalent to comparing the joined
// strings, since ',' sorts below every digit.
func cmpFacetOrder(a, b []Vertex) int {
	if len(a) != len(b) {
		if len(a) > len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			if r := cmpDecimal(a[i], b[i]); r != 0 {
				return r
			}
		}
	}
	return 0
}

func cmpDecimal(x, y Vertex) int {
	var bx, by [24]byte
	sx := strconv.AppendInt(bx[:0], int64(x), 10)
	sy := strconv.AppendInt(by[:0], int64(y), 10)
	return slices.Compare(sx, sy)
}

// oracleSortFacets is the comparator sort the production sort must match.
func oracleSortFacets(facets [][]Vertex) {
	sort.SliceStable(facets, func(i, j int) bool { return cmpFacetOrder(facets[i], facets[j]) < 0 })
}

// oracleSeal is the seed's Seal on a facet list: oracle order, then drop
// duplicates and proper faces of retained facets (naively).
func oracleSeal(facets [][]Vertex) [][]Vertex {
	sorted := slices.Clone(facets)
	oracleSortFacets(sorted)
	var kept [][]Vertex
	for i, f := range sorted {
		if i > 0 && cmpFacetOrder(sorted[i-1], f) == 0 {
			continue
		}
		if len(kept) > 0 && (len(f) == 0 || slices.ContainsFunc(kept, func(g []Vertex) bool { return isSubset(f, g) })) {
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

// checkRankTable verifies decimalRanks(n) against strconv: the table must
// be a permutation of [0, n), and the ids listed in rank order must have
// strictly increasing decimal strings. Together the two pin the table
// completely.
func checkRankTable(t *testing.T, n int) {
	t.Helper()
	rank := make([]int32, n)
	decimalRanks(rank)
	byRank := make([]int, n)
	for i := range byRank {
		byRank[i] = -1
	}
	for id, r := range rank {
		if r < 0 || int(r) >= n || byRank[r] >= 0 {
			t.Fatalf("n=%d: rank[%d] = %d is out of range or taken", n, id, r)
		}
		byRank[r] = id
	}
	var prev, cur []byte
	for r, id := range byRank {
		cur = strconv.AppendInt(cur[:0], int64(id), 10)
		if r > 0 && string(prev) >= string(cur) {
			t.Fatalf("n=%d: rank %d is %q, after %q", n, r, cur, prev)
		}
		prev, cur = cur, prev
	}
}

// TestDecimalRanksMatchStrconv checks the digit-trie walk for every table
// size up to 2,000 (every way the walk can end), at the decimal boundaries
// up to 10⁵ + 1, and for all ids ≤ 200,000 in one table.
func TestDecimalRanksMatchStrconv(t *testing.T) {
	for n := 0; n <= 2000; n++ {
		checkRankTable(t, n)
	}
	for p := 10_000; p <= 100_000; p *= 10 {
		for _, n := range []int{p - 1, p, p + 1, p + 2, 2*p - 1, 2 * p} {
			checkRankTable(t, n)
		}
	}
	checkRankTable(t, 200_001)
}

// randomFacets returns sorted, duplicate-free vertex lists of lengths up to
// maxLen over nv vertices, with repeated facets and proper faces mixed in.
func randomFacets(rng *rand.Rand, nv, count, maxLen int) [][]Vertex {
	var out [][]Vertex
	for len(out) < count {
		switch {
		case len(out) > 0 && rng.Intn(8) == 0:
			out = append(out, slices.Clone(out[rng.Intn(len(out))]))
		case len(out) > 0 && rng.Intn(8) == 0:
			g := out[rng.Intn(len(out))]
			out = append(out, slices.Clone(g[:1+rng.Intn(len(g))]))
		default:
			f := make([]Vertex, 1+rng.Intn(maxLen))
			for i := range f {
				f[i] = Vertex(rng.Intn(nv))
			}
			slices.Sort(f)
			out = append(out, slices.Compact(f))
		}
	}
	return out
}

// TestFacetOrderMatchesOracle runs the production sort and Seal against the
// oracle on random impure facet sets, with vertex counts on both sides of
// the decimal boundaries where string and integer order part ways.
func TestFacetOrderMatchesOracle(t *testing.T) {
	sizes := []int{1, 2, 9, 10, 11, 12, 99, 100, 101, 999, 1000, 1001, 12345}
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := sizes[int(seed)%len(sizes)]
		checkAgainstOracle(t, randomFacets(rng, nv, 1+rng.Intn(300), 1+rng.Intn(7)), nv)
	}
}

// checkAgainstOracle requires sortFacets and Seal on an explicit complex
// over nv vertices to agree with the oracle on the given facet list.
func checkAgainstOracle(t *testing.T, facets [][]Vertex, nv int) {
	t.Helper()
	got, want := slices.Clone(facets), slices.Clone(facets)
	sortFacets(got, nv)
	oracleSortFacets(want)
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("nv=%d: sortFacets %v, oracle %v", nv, got, want)
	}
	c := NewComplex()
	for v := 0; v < nv; v++ {
		c.MustAddVertex("v"+strconv.Itoa(v), 0)
	}
	for _, f := range facets {
		c.MustAddSimplex(f...)
	}
	c.Seal()
	if sealed, oracle := c.Facets(), oracleSeal(facets); !slices.EqualFunc(sealed, oracle, slices.Equal) {
		t.Fatalf("nv=%d: Seal %v, oracle %v", nv, sealed, oracle)
	}
}

// checkSealedOrder asserts a sealed complex lists its facets strictly
// ascending in the oracle order — the unique order of a duplicate-free set.
func checkSealedOrder(t *testing.T, name string, c *Complex) {
	t.Helper()
	fs := c.Facets()
	for i := 1; i < len(fs); i++ {
		if cmpFacetOrder(fs[i-1], fs[i]) >= 0 {
			t.Fatalf("%s: facets %d and %d out of oracle order: %v, %v", name, i-1, i, fs[i-1], fs[i])
		}
	}
}

// TestFacetOrderGoldenLevels checks the trusted seal of every golden SDS
// level ((3,3) behind GOLDEN_FULL) and of Bsd against the oracle.
func TestFacetOrderGoldenLevels(t *testing.T) {
	for n := 0; n <= 3; n++ {
		c := Simplex(n)
		for b := 1; b <= 3; b++ {
			if n == 3 && b == 3 && !goldenFull() {
				t.Log("skipping (n=3, b=3): set GOLDEN_FULL=1 to include the 421875-facet level")
				break
			}
			c = SDS(c)
			checkSealedOrder(t, fmt.Sprintf("SDS^%d(s%d)", b, n), c)
		}
		checkSealedOrder(t, fmt.Sprintf("Bsd(s%d)", n), Bsd(Simplex(n)))
	}
	checkSealedOrder(t, "Bsd²(s²)", BsdPow(Simplex(2), 2))
}

// FuzzFacetOrder decodes a vertex count and an impure facet list from the
// input and requires sortFacets and Seal to agree with the oracle.
func FuzzFacetOrder(f *testing.F) {
	f.Add([]byte{0, 12, 3, 1, 2, 3, 4, 5, 6, 2, 10, 11})
	f.Add([]byte{3, 232, 4, 0, 9, 99, 100, 2, 1, 10, 1, 100})
	f.Add([]byte{39, 16, 5, 1, 0, 10, 0, 100, 0, 200, 0, 255, 3, 1, 0, 10, 0, 100})
	f.Add([]byte("facets of every length and size"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nv := 1 + (int(data[0])<<8|int(data[1]))%5000
		data = data[2:]
		var facets [][]Vertex
		for len(data) > 0 && len(facets) < 64 {
			k := 1 + int(data[0])%7
			data = data[1:]
			var fc []Vertex
			for ; k > 0 && len(data) >= 2; k-- {
				fc = append(fc, Vertex((int(data[0])<<8|int(data[1]))%nv))
				data = data[2:]
			}
			slices.Sort(fc)
			if fc = slices.Compact(fc); len(fc) > 0 {
				facets = append(facets, fc)
			}
		}
		if len(facets) > 0 {
			checkAgainstOracle(t, facets, nv)
		}
	})
}
