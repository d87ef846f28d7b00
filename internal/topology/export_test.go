package topology

// The oracles below are exposed to the external test package.
var (
	CmpFacetOrder      = cmpFacetOrder
	RestrictSDSRebuild = restrictSDSRebuild
)

// levelStructure reads the paper's (u, S) pair of every vertex of an
// SDS-built level from its arena provenance, as vertices of the complex the
// level subdivides; S is sorted.
func levelStructure(lvl *Complex) (u []Vertex, s [][]Vertex) {
	p := lvl.prov
	s = make([][]Vertex, len(p.face))
	for v, fi := range p.face {
		s[v] = p.faceOf(fi)
	}
	return p.u, s
}
