package topology

import (
	"fmt"
	"math"
	"testing"
)

func TestEmbedBase(t *testing.T) {
	emb := EmbedBase(2)
	if err := CheckEmbedding(Simplex(2), emb); err != nil {
		t.Fatal(err)
	}
}

func TestEmbedSDSEdge(t *testing.T) {
	// SDS(s¹): corners at (1,0), (0,1); the two interior vertices at
	// (3/4, 1/4) and (1/4, 3/4) per the midpoint construction.
	c, emb, err := EmbedSDSPow(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEmbedding(c, emb); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for v := 0; v < c.NumVertices(); v++ {
		x := emb[v][0]
		switch {
		case math.Abs(x-1) < 1e-12:
			found["c0"] = true
		case math.Abs(x) < 1e-12:
			found["c1"] = true
		case math.Abs(x-0.75) < 1e-12:
			found["m0"] = true
		case math.Abs(x-0.25) < 1e-12:
			found["m1"] = true
		default:
			t.Fatalf("unexpected coordinate %g", x)
		}
	}
	if len(found) != 4 {
		t.Fatalf("vertices found: %v", found)
	}
}

func TestEmbeddingValidForDeeperSubdivisions(t *testing.T) {
	cases := []struct{ n, b int }{{1, 2}, {1, 3}, {2, 1}, {2, 2}, {3, 1}}
	for _, tc := range cases {
		c, emb, err := EmbedSDSPow(tc.n, tc.b)
		if err != nil {
			t.Fatalf("n=%d b=%d: %v", tc.n, tc.b, err)
		}
		if err := CheckEmbedding(c, emb); err != nil {
			t.Fatalf("n=%d b=%d: %v", tc.n, tc.b, err)
		}
	}
}

func TestEmbeddingFacetsNonDegenerate(t *testing.T) {
	for _, tc := range []struct{ n, b int }{{1, 2}, {2, 1}, {2, 2}, {3, 1}} {
		c, emb, err := EmbedSDSPow(tc.n, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		for fi, vol := range FacetVolumes(c, emb) {
			if vol <= 1e-15 {
				t.Fatalf("n=%d b=%d: facet %d degenerate (volume %g)", tc.n, tc.b, fi, vol)
			}
		}
	}
}

// TestEmbeddingVolumesSum: the facet volumes of a 1-dimensional subdivision
// are squared lengths; their square roots must sum to the length of the
// base edge (√2 in these coordinates) — the pieces tile without overlap.
func TestEmbeddingVolumesSum(t *testing.T) {
	for b := 1; b <= 3; b++ {
		c, emb, err := EmbedSDSPow(1, b)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, v := range FacetVolumes(c, emb) {
			total += math.Sqrt(v)
		}
		if math.Abs(total-math.Sqrt2) > 1e-9 {
			t.Fatalf("b=%d: segment lengths sum to %g, want √2", b, total)
		}
	}
}

// TestMeshShrinks is the quantitative heart of Theorem 5.1's "for k large
// enough": the mesh of SDS^k(sⁿ) tends to zero geometrically.
func TestMeshShrinks(t *testing.T) {
	for _, n := range []int{1, 2} {
		prev := math.Inf(1)
		maxB := 3
		if n == 2 {
			maxB = 2
		}
		var ratios []float64
		for b := 1; b <= maxB; b++ {
			c, emb, err := EmbedSDSPow(n, b)
			if err != nil {
				t.Fatal(err)
			}
			mesh, err := Mesh(c, emb)
			if err != nil {
				t.Fatal(err)
			}
			if mesh >= prev {
				t.Fatalf("n=%d b=%d: mesh %g did not shrink from %g", n, b, mesh, prev)
			}
			if b > 1 {
				ratios = append(ratios, mesh/prev)
			}
			prev = mesh
		}
		// Geometric contraction: the ratio stays bounded below 1.
		for _, r := range ratios {
			if r > 0.95 {
				t.Fatalf("n=%d: contraction ratio %g too close to 1", n, r)
			}
		}
	}
}

func TestMeshValuesForEdge(t *testing.T) {
	// SDS(s¹) has segments of length √2·(1/4, 1/2, 1/4): mesh = √2/2.
	c, emb, err := EmbedSDSPow(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := Mesh(c, emb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mesh-math.Sqrt2/2) > 1e-12 {
		t.Fatalf("mesh = %g, want √2/2", mesh)
	}
}

func TestDet(t *testing.T) {
	if d := det([][]float64{{2, 0}, {0, 3}}); math.Abs(d-6) > 1e-12 {
		t.Fatalf("det = %g, want 6", d)
	}
	if d := det([][]float64{{1, 2}, {2, 4}}); math.Abs(d) > 1e-12 {
		t.Fatalf("det = %g, want 0", d)
	}
	if d := det([][]float64{{0, 1}, {1, 0}}); math.Abs(d+1) > 1e-12 {
		t.Fatalf("det = %g, want -1", d)
	}
}

func TestSDSStructuredStructure(t *testing.T) {
	prev := Simplex(2)
	lvl := SDS(prev)
	us, ss := levelStructure(lvl)
	for v := 0; v < lvl.NumVertices(); v++ {
		// u ∈ S always.
		found := false
		for _, w := range ss[v] {
			if w == us[v] {
				found = true
			}
		}
		if !found {
			t.Fatalf("vertex %d: u=%d not in S=%v", v, us[v], ss[v])
		}
		// Color is inherited from u.
		if lvl.Color(Vertex(v)) != prev.Color(us[v]) {
			t.Fatalf("vertex %d: color mismatch", v)
		}
	}
}

// CheckEmbedding validates the structural invariants of an embedding:
// coordinates are a probability vector supported exactly inside the
// vertex's carrier.
func CheckEmbedding(c *Complex, emb Embedding) error {
	if len(emb) != c.NumVertices() {
		return fmt.Errorf("topology: embedding size mismatch")
	}
	const eps = 1e-9
	for v, coord := range emb {
		sum := 0.0
		for _, x := range coord {
			if x < -eps {
				return fmt.Errorf("topology: vertex %d has negative coordinate %g", v, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > eps {
			return fmt.Errorf("topology: vertex %d coordinates sum to %g", v, sum)
		}
		carrier := make(map[Vertex]bool)
		for _, b := range c.Carrier(Vertex(v)) {
			carrier[b] = true
		}
		for i, x := range coord {
			if x > eps && !carrier[Vertex(i)] {
				return fmt.Errorf("topology: vertex %d has weight %g outside carrier", v, x)
			}
			if carrier[Vertex(i)] && x < eps {
				return fmt.Errorf("topology: vertex %d misses weight on carrier vertex %d", v, i)
			}
		}
	}
	return nil
}

// FacetVolumes returns the (unsigned, scaled) volume of each facet under
// the embedding — zero volume means a degenerate (flattened) facet, i.e.
// not a genuine geometric subdivision. The value is the Gram determinant of
// the edge vectors from the facet's first vertex (proportional to squared
// volume).
func FacetVolumes(c *Complex, emb Embedding) []float64 {
	out := make([]float64, len(c.Facets()))
	for fi, f := range c.Facets() {
		k := len(f) - 1
		if k == 0 {
			out[fi] = 1
			continue
		}
		// Gram matrix of edge vectors.
		vecs := make([][]float64, k)
		for i := 0; i < k; i++ {
			vecs[i] = sub(emb[f[i+1]], emb[f[0]])
		}
		g := make([][]float64, k)
		for i := range g {
			g[i] = make([]float64, k)
			for j := range g[i] {
				g[i][j] = dot(vecs[i], vecs[j])
			}
		}
		out[fi] = det(g)
	}
	return out
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// det computes the determinant by Gaussian elimination (small matrices).
func det(m [][]float64) float64 {
	n := len(m)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append([]float64(nil), m[i]...)
	}
	d := 1.0
	for col := 0; col < n; col++ {
		pivot := -1
		best := 0.0
		for r := col; r < n; r++ {
			if abs := math.Abs(a[r][col]); abs > best {
				best = abs
				pivot = r
			}
		}
		if pivot < 0 || best == 0 {
			return 0
		}
		if pivot != col {
			a[col], a[pivot] = a[pivot], a[col]
			d = -d
		}
		d *= a[col][col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] / a[col][col]
			for cc := col; cc < n; cc++ {
				a[r][cc] -= factor * a[col][cc]
			}
		}
	}
	return d
}
