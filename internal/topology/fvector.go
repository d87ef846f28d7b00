package topology

import "fmt"

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
	if b < 0 {
		return nil, fmt.Errorf("topology: SDSFVector level %d is negative", b)
	}
	cur := append([]int(nil), f...)
	// A vertex subdivides into itself (M[0][0] = 1), so a complex of
	// dimension ≤ 0 is a fixed point.
	for ; b > 0 && len(cur) > 1; b-- {
		next := make([]int, len(cur))
		for k, fk := range cur {
			for j, m := range sdsInterior[k] {
				p, ok := mulNonNeg(m, fk)
				if ok {
					next[j], ok = addNonNeg(next[j], p)
				}
				if !ok {
					return nil, fmt.Errorf("topology: SDSFVector overflows int at dimension %d", j)
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
