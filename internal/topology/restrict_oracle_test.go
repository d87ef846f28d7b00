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
