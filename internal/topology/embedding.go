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
// from the level's arena provenance, as sdsSnapshotSizes does, so it errors on
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
	max := 0.0
	for _, e := range c.Faces(2) {
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
