package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestSDSToBsdIsSimplicialAndCarrierPreserving(t *testing.T) {
	// Lemma 5.3's building block: the canonical map SDS(sⁿ) → Bsd(sⁿ),
	// (u, S) ↦ barycenter(S), is simplicial and carrier preserving.
	for n := 1; n <= 3; n++ {
		s := Simplex(n)
		sds := SDS(s)
		bsd := Bsd(s)
		m, err := SDSToBsd(s, sds, bsd)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("n=%d: not simplicial: %v", n, err)
		}
		if !m.CarrierPreserving() {
			t.Errorf("n=%d: not carrier preserving", n)
		}
		if !m.CarrierRespecting() {
			t.Errorf("n=%d: not carrier respecting", n)
		}
		if m.ColorPreserving() {
			t.Errorf("n=%d: SDS→Bsd cannot be color preserving (Bsd is uncolored)", n)
		}
	}
}

func TestSDSToBsdRequiresBaseComplex(t *testing.T) {
	s := Simplex(2)
	sds := SDS(s)
	if _, err := SDSToBsd(sds, SDS(sds), Bsd(sds)); err == nil {
		t.Error("SDSToBsd over a subdivision should fail")
	}
}

func TestIdentityMapProperties(t *testing.T) {
	s := SDS(Simplex(2))
	m := NewSimplicialMap(s, s)
	for v := range m.Image {
		m.Image[v] = Vertex(v)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("identity not simplicial: %v", err)
	}
	if !m.ColorPreserving() || !m.CarrierPreserving() || !m.CarrierRespecting() {
		t.Error("identity map should preserve colors and carriers")
	}
}

func TestCollapsingMapIsSimplicial(t *testing.T) {
	// Map SDS(s¹) → s¹ sending each vertex to the base vertex of its color.
	// This collapses interior vertices onto corners; images of facets are
	// faces of s¹, so the map is simplicial and color preserving, but not
	// carrier preserving (interior vertices have smaller image carriers).
	s := Simplex(1)
	sds := SDS(s)
	m := NewSimplicialMap(sds, s)
	for v := 0; v < sds.NumVertices(); v++ {
		m.Image[v] = Vertex(sds.Color(Vertex(v))) // base vertex ids = colors
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("collapse not simplicial: %v", err)
	}
	if !m.ColorPreserving() {
		t.Error("collapse should be color preserving")
	}
	if m.CarrierPreserving() {
		t.Error("collapse should not be carrier preserving")
	}
	if !m.CarrierRespecting() {
		t.Error("collapse should be carrier respecting: image carriers shrink")
	}
}

func TestValidateRejectsNonSimplicialMap(t *testing.T) {
	// Path a—b—c (no edge a—c); map the edge {a,b} onto {a,c}.
	c := NewComplex()
	a := c.MustAddVertex("a", 0)
	b := c.MustAddVertex("b", 1)
	d := c.MustAddVertex("d", 0)
	c.MustAddSimplex(a, b)
	c.MustAddSimplex(b, d)
	c.Seal()

	m := NewSimplicialMap(c, c)
	m.Image[a] = a
	m.Image[b] = d // image of edge {a,b} is {a,d}: not a simplex
	m.Image[d] = d
	if err := m.Validate(); err == nil {
		t.Error("non-simplicial map validated")
	}
}

func TestCompose(t *testing.T) {
	s := Simplex(1)
	sds := SDS(s)
	sds2 := SDS(sds)

	// SDS²(s¹) → SDS(s¹) collapse by color onto corner (i,{i}) vertices.
	m1 := NewSimplicialMap(sds2, sds)
	for v := 0; v < sds2.NumVertices(); v++ {
		col := sds2.Color(Vertex(v))
		corner := cornerVertex(t, sds, col)
		m1.Image[v] = corner
	}
	m2 := NewSimplicialMap(sds, s)
	for v := 0; v < sds.NumVertices(); v++ {
		m2.Image[v] = Vertex(sds.Color(Vertex(v)))
	}
	comp, err := m1.Compose(m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Validate(); err != nil {
		t.Fatalf("composition not simplicial: %v", err)
	}
	if !comp.ColorPreserving() {
		t.Error("composition should preserve colors")
	}

	if _, err := m2.Compose(m1); err == nil {
		t.Error("mismatched composition should fail")
	}
}

// cornerVertex finds the vertex of sds with the given color whose carrier is
// a single base vertex.
func cornerVertex(t *testing.T, sds *Complex, color int) Vertex {
	t.Helper()
	for _, v := range sds.VerticesOfColor(color) {
		if len(sds.Carrier(v)) == 1 {
			return v
		}
	}
	t.Fatalf("no corner vertex of color %d", color)
	return 0
}

// CarrierPreserving reports whether carrier(φ(v)) = carrier(v) for every
// vertex — the paper's Section 2 definition. Both complexes must be
// subdivisions of the same base.
func (m *SimplicialMap) CarrierPreserving() bool {
	if !m.carrierComparable() {
		return false
	}
	for v, w := range m.Image {
		if !equalVertexSets(m.From.Carrier(Vertex(v)), m.To.Carrier(w)) {
			return false
		}
	}
	return true
}

// Compose returns n ∘ m (apply m, then n). m.To must be n.From.
func (m *SimplicialMap) Compose(n *SimplicialMap) (*SimplicialMap, error) {
	if m.To != n.From {
		return nil, fmt.Errorf("topology: compose domain mismatch")
	}
	out := NewSimplicialMap(m.From, n.To)
	for v, w := range m.Image {
		out.Image[v] = n.Image[w]
	}
	return out, nil
}

func equalVertexSets(a, b []Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// imageSimplexOracle is the image of a simplex by definition: the set of its
// vertices' images, sorted.
func imageSimplexOracle(m *SimplicialMap, s []Vertex) []Vertex {
	set := make(map[Vertex]struct{}, len(s))
	for _, v := range s {
		set[m.Image[v]] = struct{}{}
	}
	img := make([]Vertex, 0, len(set))
	for v := range set {
		img = append(img, v)
	}
	sort.Slice(img, func(i, j int) bool { return img[i] < img[j] })
	return img
}

// carrierOfSimplexOracle is the carrier of a simplex by definition: the set
// union of its vertices' carriers, sorted.
func carrierOfSimplexOracle(c *Complex, s []Vertex) []Vertex {
	set := map[Vertex]struct{}{}
	for _, v := range s {
		for _, w := range c.Carrier(v) {
			set[w] = struct{}{}
		}
	}
	out := make([]Vertex, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestAppendImageAndCarrierMatchDefinition pins the buffer-filling image and
// carrier, which the search's check and VerifyDecisionMap both read, against
// their definitions on every simplex of random chromatic complexes and their
// first two SDS levels, under random vertex maps. The buffer keeps a prefix,
// so each call must append after it and leave it alone.
func TestAppendImageAndCarrierMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prefix := []Vertex{-1, -2}
	for i := 0; i < 12; i++ {
		base, to := RandomChromaticComplex(rng), RandomChromaticComplex(rng)
		for b, from := range []*Complex{base, SDS(base), SDSPow(base, 2)} {
			m := NewSimplicialMap(from, to)
			for v := range m.Image {
				m.Image[v] = Vertex(rng.Intn(to.NumVertices()))
			}
			img := slices.Clone(prefix)
			car := slices.Clone(prefix)
			for k := 1; k <= from.Dimension()+1; k++ {
				for _, s := range from.Faces(k) {
					img = m.AppendImage(img[:len(prefix)], s)
					if want := imageSimplexOracle(m, s); !slices.Equal(img[:len(prefix)], prefix) || !slices.Equal(img[len(prefix):], want) {
						t.Fatalf("complex %d, level %d: image of %v is %v after the prefix %v, want %v", i, b, s, img[len(prefix):], img[:len(prefix)], want)
					}
					car = from.AppendCarrierOfSimplex(car[:len(prefix)], s)
					if want := carrierOfSimplexOracle(from, s); !slices.Equal(car[:len(prefix)], prefix) || !slices.Equal(car[len(prefix):], want) {
						t.Fatalf("complex %d, level %d: carrier of %v is %v after the prefix %v, want %v", i, b, s, car[len(prefix):], car[:len(prefix)], want)
					}
				}
			}
		}
	}
}
