package topology

import "fmt"

// restrictSDSRebuild is RestrictSDS as an explicit rebuild, the oracle for
// the arena compaction: the kept facets' vertices are re-added in index
// order through AddVertex under their materialized keys, with colors and
// carriers copied, and the facets are re-added and sealed by the public
// Seal. Like RestrictSDS it returns s itself when every facet is kept.
func restrictSDSRebuild(s *Complex, accept FacetFilter) (*Complex, error) {
	if accept == nil {
		return s, nil
	}
	facets := s.Facets()
	keep := make([]bool, len(facets))
	all := true
	for i, f := range facets {
		blocks, err := s.SDSBlockSizes(f)
		if err != nil {
			return nil, err
		}
		keep[i] = accept(blocks)
		all = all && keep[i]
	}
	if all {
		return s, nil
	}
	used := make([]bool, s.NumVertices())
	kept := 0
	for i, f := range facets {
		if !keep[i] {
			continue
		}
		kept++
		for _, v := range f {
			used[v] = true
		}
	}
	if kept == 0 {
		return nil, fmt.Errorf("topology: RestrictSDS filter rejected every facet")
	}
	out := NewSubdivision(s.Base())
	remap := make([]Vertex, s.NumVertices())
	for v := 0; v < s.NumVertices(); v++ {
		if !used[v] {
			continue
		}
		w, err := out.AddVertex(s.Key(Vertex(v)), s.Color(Vertex(v)))
		if err != nil {
			return nil, err
		}
		out.SetCarrier(w, s.Carrier(Vertex(v)))
		remap[v] = w
	}
	for i, f := range facets {
		if !keep[i] {
			continue
		}
		mapped := make([]Vertex, len(f))
		for j, v := range f {
			mapped[j] = remap[v]
		}
		if err := out.AddSimplex(mapped...); err != nil {
			return nil, err
		}
	}
	return out.Seal(), nil
}

// SDSBlockSizes returns the block sizes (|B1|,…,|Bm|) of the ordered
// partition that generated the given facet of an SDS-built complex, in
// schedule order. The facet's vertices carry their snapshot faces in the
// construction's provenance: within one facet the snapshots are totally
// ordered by inclusion (immediacy), so the sorted distinct snapshot sizes
// are the prefix sums |B1|, |B1|+|B2|, …, and the blocks are their
// differences.
//
// It errors on complexes that were not built by the SDS operators (explicit
// complexes, Bsd complexes, DTO-rehydrated complexes): those carry no
// snapshot provenance. Subdivide restricts a level in the same step that
// built it, so the provenance is always live there.
func (c *Complex) SDSBlockSizes(facet []Vertex) ([]int, error) {
	sizes, err := c.sdsSnapshotSizes(facet, make([]int, 0, len(facet)))
	if err != nil {
		return nil, err
	}
	return snapshotSizesToBlocks(sizes), nil
}
