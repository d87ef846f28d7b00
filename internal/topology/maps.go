package topology

import (
	"fmt"
	"slices"
)

// SimplicialMap is a vertex map between two sealed complexes, candidate for
// being simplicial. Image[v] is the image of From-vertex v in To.
type SimplicialMap struct {
	From  *Complex
	To    *Complex
	Image []Vertex
}

// NewSimplicialMap allocates an identity-sized (unassigned) map; callers fill
// Image and then Validate.
func NewSimplicialMap(from, to *Complex) *SimplicialMap {
	return &SimplicialMap{From: from, To: to, Image: make([]Vertex, from.NumVertices())}
}

// Validate checks that the map is simplicial: the image of every facet of
// From (with duplicate image vertices collapsed) is a simplex of To.
func (m *SimplicialMap) Validate() error {
	if len(m.Image) != m.From.NumVertices() {
		return fmt.Errorf("topology: map has %d images for %d vertices", len(m.Image), m.From.NumVertices())
	}
	for _, v := range m.Image {
		if int(v) < 0 || int(v) >= m.To.NumVertices() {
			return fmt.Errorf("topology: image vertex %d out of range", v)
		}
	}
	var img []Vertex
	for _, f := range m.From.Facets() {
		img = m.AppendImage(img[:0], f)
		if !m.To.HasSimplex(img) {
			return fmt.Errorf("topology: facet %v maps to non-simplex %v", f, img)
		}
	}
	return nil
}

// AppendImage appends the image of simplex s, sorted and with duplicates
// collapsed, to dst and returns the extended slice; a caller that reuses a
// buffer passes buf[:0]. It reads only Image.
func (m *SimplicialMap) AppendImage(dst, s []Vertex) []Vertex {
	n := len(dst)
	for _, v := range s {
		dst = append(dst, m.Image[v])
	}
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

// ColorPreserving reports whether every vertex maps to a vertex of the same
// color.
func (m *SimplicialMap) ColorPreserving() bool {
	for v, w := range m.Image {
		if m.From.Color(Vertex(v)) != m.To.Color(w) {
			return false
		}
	}
	return true
}

// carrierComparable reports whether both complexes are subdivisions of the
// same base, which makes carrier comparisons meaningful.
func (m *SimplicialMap) carrierComparable() bool {
	fb, tb := m.From.Base(), m.To.Base()
	if fb == nil {
		fb = m.From
	}
	if tb == nil {
		tb = m.To
	}
	return fb == tb
}

// CarrierRespecting reports whether carrier(φ(v)) ⊆ carrier(v) for every
// vertex. This weaker condition is what task solvability consumes (the
// output must be allowed for the carrier's participating set), and is what
// the simplicial approximation theorem guarantees.
func (m *SimplicialMap) CarrierRespecting() bool {
	if !m.carrierComparable() {
		return false
	}
	for v, w := range m.Image {
		if !isSubset(m.To.Carrier(w), m.From.Carrier(Vertex(v))) {
			return false
		}
	}
	return true
}

// SDSToBsd returns the canonical carrier-preserving simplicial map
// SDS(c) → Bsd(c) of Lemma 5.3: the SDS vertex (u, S) maps to the
// barycenter of S.
//
// Both complexes must have been built (by SDS and Bsd respectively) from the
// same sealed complex c.
func SDSToBsd(c, sds, bsd *Complex) (*SimplicialMap, error) {
	if c.Base() != nil {
		return nil, fmt.Errorf("topology: SDSToBsd requires a base complex")
	}
	m := NewSimplicialMap(sds, bsd)
	// Structural fast path: when both complexes were arena-built over c,
	// the (u, S) pair of every SDS vertex and the face of every barycenter
	// are recorded as provenance, so the map is a pure integer lookup —
	// no string keys materialize.
	if sp, bp := sds.prov, bsd.prov; sp != nil && bp != nil &&
		sp.kind == provSDS && bp.kind == provBsd && sp.src == c && bp.src == c {
		idx := make(map[string]Vertex, bsd.NumVertices())
		buf := make([]byte, 0, 64)
		for w := 0; w < bsd.NumVertices(); w++ {
			buf = EncodeVerts(buf[:0], bp.faceOf(bp.face[w]))
			idx[string(buf)] = Vertex(w)
		}
		for v := 0; v < sds.NumVertices(); v++ {
			buf = EncodeVerts(buf[:0], sp.faceOf(sp.face[v]))
			w, ok := idx[string(buf)]
			if !ok {
				return nil, fmt.Errorf("topology: barycenter of %v missing in Bsd", sp.faceOf(sp.face[v]))
			}
			m.Image[v] = w
		}
		return m, nil
	}
	for v := 0; v < sds.NumVertices(); v++ {
		// Recovering S from the vertex key is fragile; instead use the
		// carrier when c is the base: the SDS vertex (u,S) has carrier S
		// when c has no base. For subdivided c the association is not
		// recoverable from carriers alone, which is why this helper
		// requires c to be a base complex.
		s := sds.Carrier(Vertex(v))
		bkey := bsdVertexKey(c, s)
		w, ok := bsd.VertexByKey(bkey)
		if !ok {
			return nil, fmt.Errorf("topology: barycenter %q missing in Bsd", bkey)
		}
		m.Image[v] = w
	}
	return m, nil
}
