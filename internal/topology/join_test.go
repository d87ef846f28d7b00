package topology

import (
	"fmt"
	"testing"
)

func TestJoinOfTwoPointsIsEdge(t *testing.T) {
	a := Points(1, 0, "a")
	b := Points(1, 1, "b")
	j, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j.Dimension() != 1 || len(j.Facets()) != 1 || j.NumVertices() != 2 {
		t.Fatalf("join of two points: dim=%d facets=%d verts=%d",
			j.Dimension(), len(j.Facets()), j.NumVertices())
	}
	if !j.IsChromatic() {
		t.Error("join of distinct colors must be chromatic")
	}
}

func TestJoinOfSimplicesIsSimplex(t *testing.T) {
	// s⁰ * s¹ has the face structure of s²: C(3,k+1) faces per dimension.
	a := Simplex(0)
	bRaw := NewComplex()
	x := bRaw.MustAddVertex("x", 1)
	y := bRaw.MustAddVertex("y", 2)
	bRaw.MustAddSimplex(x, y)
	b := bRaw.Seal()

	j, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j.Dimension() != 2 || len(j.Facets()) != 1 {
		t.Fatalf("s⁰ * s¹: dim=%d facets=%d", j.Dimension(), len(j.Facets()))
	}
	want := []int{3, 3, 1}
	for d, n := range j.FVector() {
		if n != want[d] {
			t.Fatalf("f-vector %v, want %v", j.FVector(), want)
		}
	}
}

func TestJoinBuildsBinaryInputComplex(t *testing.T) {
	// The binary-inputs complex for 2 processes is the join of two 2-point
	// sets: the complete bipartite graph with 4 edges (compare
	// tasks.Consensus's input complex).
	a := Points(2, 0, "p0v")
	b := Points(2, 1, "p1v")
	j, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Facets()) != 4 || j.NumVertices() != 4 {
		t.Fatalf("join: facets=%d verts=%d, want 4/4", len(j.Facets()), j.NumVertices())
	}
	if !j.IsPure() || j.Dimension() != 1 {
		t.Fatal("join should be a pure 1-complex")
	}
}

func TestJoinRejectsKeyCollision(t *testing.T) {
	a := Points(1, 0, "same")
	b := Points(1, 1, "same")
	if _, err := Join(a, b); err == nil {
		t.Fatal("key collision must be rejected")
	}
}

func TestJoinPreservesBothSides(t *testing.T) {
	// Joining a path with a point cones it: every path edge becomes a
	// triangle with the apex.
	path := NewComplex()
	u := path.MustAddVertex("u", 0)
	v := path.MustAddVertex("v", 1)
	w := path.MustAddVertex("w", 0)
	path.MustAddSimplex(u, v)
	path.MustAddSimplex(v, w)
	path.Seal()
	apex := Points(1, 2, "apex")

	cone, err := Join(path, apex)
	if err != nil {
		t.Fatal(err)
	}
	if len(cone.Facets()) != 2 || cone.Dimension() != 2 {
		t.Fatalf("cone: facets=%d dim=%d", len(cone.Facets()), cone.Dimension())
	}
	if cone.EulerCharacteristic() != 1 {
		t.Fatalf("cones are contractible: χ = %d, want 1", cone.EulerCharacteristic())
	}
}

// Join returns the simplicial join A * B: the complex on the disjoint union
// of the vertex sets whose simplices are exactly σ ∪ τ for σ ∈ A (or empty)
// and τ ∈ B (or empty). Input complexes (§3.2) decompose as joins of
// per-process vertex sets, and joins underlie the face structure of tasks;
// the join of sᵐ and sⁿ is s^(m+n+1).
//
// Vertex keys must be disjoint (they keep their identity), and for the
// result to be chromatic the color sets must be disjoint too (not enforced
// — check IsChromatic on the result when needed).
func Join(a, b *Complex) (*Complex, error) {
	a.mustBeSealed("Join")
	b.mustBeSealed("Join")
	// Joining is a key-identity operation: arena-built inputs materialize
	// their keys here, once, rather than per-vertex inside the loop.
	a.ensureKeys()
	b.ensureKeys()
	out := NewComplex()
	mapA := make([]Vertex, a.NumVertices())
	for v := 0; v < a.NumVertices(); v++ {
		if _, dup := out.byKey[a.Key(Vertex(v))]; dup {
			return nil, fmt.Errorf("topology: duplicate key %q in join", a.Key(Vertex(v)))
		}
		mapA[v] = out.MustAddVertex(a.Key(Vertex(v)), a.Color(Vertex(v)))
	}
	mapB := make([]Vertex, b.NumVertices())
	for v := 0; v < b.NumVertices(); v++ {
		if _, dup := out.byKey[b.Key(Vertex(v))]; dup {
			return nil, fmt.Errorf("topology: duplicate key %q in join", b.Key(Vertex(v)))
		}
		mapB[v] = out.MustAddVertex(b.Key(Vertex(v)), b.Color(Vertex(v)))
	}
	for _, fa := range a.Facets() {
		for _, fb := range b.Facets() {
			joint := make([]Vertex, 0, len(fa)+len(fb))
			for _, v := range fa {
				joint = append(joint, mapA[v])
			}
			for _, v := range fb {
				joint = append(joint, mapB[v])
			}
			out.MustAddSimplex(joint...)
		}
	}
	return out.Seal(), nil
}

// Points returns a 0-dimensional complex of k isolated vertices with the
// given color and key prefix — the building block for joins.
func Points(k int, color int, keyPrefix string) *Complex {
	c := NewComplex()
	for i := 0; i < k; i++ {
		v := c.MustAddVertex(fmt.Sprintf("%s%d", keyPrefix, i), color)
		c.MustAddSimplex(v)
	}
	return c.Seal()
}
