package topology

import (
	"fmt"
	"math/bits"
)

// Closed-form sizes of standard chromatic subdivisions (paper Lemma 3.3,
// by simplex rather than by facet). Every simplex of SDS(K) lies in the
// subdivision of exactly one simplex of K, the one that carries it, and
// that subdivision depends only on the simplex's dimension. So
//
//	f(SDS(K)) = M·f(K),  M[k][j] = #{j-simplices of SDS(s^k) carried by all of s^k}.
//
// A j-simplex of SDS(s^k) carried by all of s^k is an ordered partition
// (D_1,…,D_r) of the k+1 source vertices (the snapshot increments, Lemma
// 3.2) with a non-empty set of j+1 participants chosen block-wise,
// B_i ⊆ D_i: the vertex of u ∈ B_i sees D_1 ∪ … ∪ D_i. The rows below are
// those counts for k ≤ 3, the dimensions of every input complex the
// service builds (TestSDSClosedFormMatrix reads them off built SDS(s^k));
// the diagonal is the Fubini numbers.
var sdsInterior = [][]int{{1}, {2, 3}, {3, 15, 13}, {4, 54, 124, 75}}

// SDSFVector returns the f-vector of SDS^b(K) from the f-vector f of K
// (f[d] = number of d-simplices), applying f ← M·f b times. It errors when
// K's dimension exceeds 3 or a count overflows int.
func SDSFVector(f []int, b int) ([]int, error) {
	if len(f) > len(sdsInterior) {
		return nil, fmt.Errorf("topology: SDSFVector of a %d-dimensional complex: the closed form covers dimension ≤ %d", len(f)-1, len(sdsInterior)-1)
	}
	return iterateFVector(f, sdsInterior, b)
}

// SimplexFVector returns the f-vector of the standard simplex sⁿ, C(n+1,
// k+1) k-faces, without building it.
func SimplexFVector(n int) []int {
	f := make([]int, n+1)
	for k := range f {
		f[k] = binomial(n+1, k+1)
	}
	return f
}

// RestrictedFVector returns the f-vector of R^b(K) for a pure complex K
// whose facets have m = len(f) vertices, where round = R(s^{m−1}) is one
// restricted level over the standard (m−1)-simplex (Subdivide(ctx,
// Simplex(m−1), 1, keep)). A filter reads block sizes only, so R treats
// every j-face of every facet of K alike, and a simplex of R(K) lies over
// exactly one face of K, its carrier; so f(R(K)) = M·f(K) with
//
//	M[k][j] = #{j-simplices of round carried by one fixed k-face of s^{m−1}},
//
// the count over all k-faces divided by C(m, k+1), and R(K) is again pure
// with m-vertex facets. With a nil keep M is sdsInterior's first m rows.
// It errors when round is not such a level, when K's dimension exceeds 3,
// or when a count overflows int.
func RestrictedFVector(f []int, round *Complex, b int) ([]int, error) {
	m := len(f)
	base := round.Base()
	if m == 0 || m > len(sdsInterior) || base == nil || base.NumVertices() != m || base.Dimension() != m-1 {
		return nil, fmt.Errorf("topology: RestrictedFVector needs one level over s^%d for a pure complex of dimension ≤ %d", m-1, len(sdsInterior)-1)
	}
	M := make([][]int, m)
	for k := range M {
		M[k] = make([]int, k+1)
	}
	for j, faces := range round.AllSimplices() {
		for _, s := range faces {
			var carrier uint32
			for _, v := range s {
				for _, w := range round.verts[v].carrier {
					carrier |= 1 << w
				}
			}
			M[bits.OnesCount32(carrier)-1][j]++
		}
	}
	for k, row := range M {
		faces := binomial(m, k+1)
		for j := range row {
			if row[j]%faces != 0 {
				return nil, fmt.Errorf("topology: RestrictedFVector: the %d-faces of s^%d carry unequal counts of %d-simplices", k, m-1, j)
			}
			row[j] /= faces
		}
	}
	return iterateFVector(f, M, b)
}

// iterateFVector applies f ← M·f b times, M lower triangular by carrier
// dimension (M[k][j] for j ≤ k), with every product and sum checked.
func iterateFVector(f []int, M [][]int, b int) ([]int, error) {
	if b < 0 {
		return nil, fmt.Errorf("topology: closed-form level %d is negative", b)
	}
	cur := append([]int(nil), f...)
	// A vertex subdivides into itself (M[0][0] = 1), so a complex of
	// dimension ≤ 0 is a fixed point.
	for ; b > 0 && len(cur) > 1; b-- {
		next := make([]int, len(cur))
		for k, fk := range cur {
			for j, m := range M[k] {
				p, ok := mulNonNeg(m, fk)
				if ok {
					next[j], ok = addNonNeg(next[j], p)
				}
				if !ok {
					return nil, fmt.Errorf("topology: closed-form f-vector overflows int at dimension %d", j)
				}
			}
		}
		cur = next
	}
	return cur, nil
}

// SDSLevelSize returns the vertex and facet counts of SDS^b(c) without
// building it: vertices from SDSFVector, facets as Σ over c's facets t of
// Fubini(|t|)^b (each facet of a level subdivides into Fubini(|t|) facets,
// and distinct facets of c share no facet of the subdivision). Level 0 is c
// itself, counted directly: a vertex in no facet counts there, and no
// subdivision keeps it.
func SDSLevelSize(c *Complex, b int) (vertices, facets int, err error) {
	if b == 0 {
		return c.NumVertices(), len(c.Facets()), nil
	}
	f, err := SDSFVector(c.FVector(), b)
	if err != nil {
		return 0, 0, err
	}
	if len(f) > 0 {
		vertices = f[0]
	}
	for _, t := range c.Facets() {
		per, err := CountOrderedPartitionsChecked(len(t))
		if err != nil {
			return 0, 0, err
		}
		n := 1
		for i := 0; i < b; i++ {
			var ok bool
			if n, ok = mulNonNeg(n, per); !ok {
				return 0, 0, fmt.Errorf("topology: SDSLevelSize facet count overflows int at level %d", i+1)
			}
		}
		var ok bool
		if facets, ok = addNonNeg(facets, n); !ok {
			return 0, 0, fmt.Errorf("topology: SDSLevelSize facet count overflows int")
		}
	}
	return vertices, facets, nil
}

// Euler returns the Euler characteristic Σ (−1)^d f[d] of an f-vector.
func Euler(f []int) int {
	chi := 0
	for d, n := range f {
		if d%2 == 0 {
			chi += n
		} else {
			chi -= n
		}
	}
	return chi
}
