package topology

import (
	"fmt"
	"math"
)

// Embedding assigns every vertex of a complex barycentric coordinates with
// respect to the base simplex's vertices: Coords[v][i] is v's weight on base
// vertex i, non-negative and summing to 1.
//
// This realizes the paper's Lemma 3.2 embedding construction: the new
// vertex (u, S) of a standard chromatic subdivision is planted at the
// midpoint of the segment from the barycenter of S to the barycenter of
// S ∖ {u} ("in the middle of the (a, b_i) interval").
type Embedding [][]float64

// EmbedBase returns the identity embedding of the standard simplex sⁿ.
func EmbedBase(n int) Embedding {
	emb := make(Embedding, n+1)
	for i := range emb {
		emb[i] = make([]float64, n+1)
		emb[i][i] = 1
	}
	return emb
}

// embedLevel computes the embedding of an SDS-built level from the
// embedding of the complex it subdivides. It reads each vertex's (u, S) pair
// from the level's arena provenance, as SDSBlockSizes does, so it errors on
// complexes that carry none.
func embedLevel(lvl *Complex, prev Embedding) (Embedding, error) {
	p := lvl.prov
	if p == nil || p.kind != provSDS {
		return nil, fmt.Errorf("topology: embedding a complex without SDS provenance")
	}
	if len(prev) != p.src.NumVertices() {
		return nil, fmt.Errorf("topology: embedding has %d vertices, previous complex has %d",
			len(prev), p.src.NumVertices())
	}
	dim := len(prev[0])
	emb := make(Embedding, lvl.NumVertices())
	for v := range emb {
		s, u := p.faceOf(p.face[v]), p.u[v]
		if len(s) == 1 {
			emb[v] = append([]float64(nil), prev[s[0]]...)
			continue
		}
		coord := make([]float64, dim)
		// a = barycenter of S; b = barycenter of S ∖ {u}; place at (a+b)/2.
		for _, w := range s {
			for i := range coord {
				coord[i] += prev[w][i] / (2 * float64(len(s)))
				if w != u {
					coord[i] += prev[w][i] / (2 * float64(len(s)-1))
				}
			}
		}
		emb[v] = coord
	}
	return emb, nil
}

// EmbedSDSPow builds SDS^b(sⁿ) together with its embedding.
func EmbedSDSPow(n, b int) (*Complex, Embedding, error) {
	c := Simplex(n)
	emb := EmbedBase(n)
	for k := 0; k < b; k++ {
		next := SDS(c)
		nextEmb, err := embedLevel(next, emb)
		if err != nil {
			return nil, nil, err
		}
		c, emb = next, nextEmb
	}
	return c, emb, nil
}

// Mesh returns the maximum Euclidean edge length of the embedded complex
// (coordinates taken as points of the standard simplex in R^{n+1}).
func Mesh(c *Complex, emb Embedding) (float64, error) {
	if len(emb) != c.NumVertices() {
		return 0, fmt.Errorf("topology: embedding size mismatch")
	}
	all := c.AllSimplices()
	if len(all) < 2 {
		return 0, nil
	}
	max := 0.0
	for _, e := range all[1] {
		d := euclid(emb[e[0]], emb[e[1]])
		if d > max {
			max = d
		}
	}
	return max, nil
}

func euclid(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
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
