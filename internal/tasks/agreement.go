package tasks

import (
	"fmt"

	"waitfree/internal/topology"
)

// SimplexAgreement returns chromatic simplex agreement over a, a
// subdivision of its base B (the task of the paper's Theorem 5.1): inputs
// are B, outputs are a, and Δ(σ) holds the simplices of a whose vertices
// are carried inside σ. A decision map for it at level k is exactly a
// color-preserving, carrier-respecting simplicial map SDS^k(B) → a. B must
// be chromatic over the colors 0 … procs−1, with at most 64 vertices: each
// output vertex's carrier is a bitmask over B, so Allowed, which the solver
// calls on every check of every search node, allocates nothing.
func SimplexAgreement(a *topology.Complex) (*Task, error) {
	base := a.Base()
	if base == nil {
		return nil, fmt.Errorf("tasks: simplex agreement needs a subdivision")
	}
	if base.NumVertices() > 64 {
		return nil, fmt.Errorf("tasks: simplex agreement over a base of %d vertices (at most 64)", base.NumVertices())
	}
	colors := base.Colors()
	if len(colors) == 0 || !base.IsChromatic() || colors[len(colors)-1] != len(colors)-1 {
		return nil, fmt.Errorf("tasks: simplex agreement needs a base colored 0 … procs−1")
	}
	carrier := make([]uint64, a.NumVertices())
	for w := range carrier {
		for _, v := range a.Carrier(topology.Vertex(w)) {
			carrier[w] |= 1 << v
		}
	}
	return &Task{
		Name:    "simplex-agreement",
		Procs:   len(colors),
		Inputs:  base,
		Outputs: a,
		Allowed: func(in, out []topology.Vertex) bool {
			var sigma uint64
			for _, v := range in {
				sigma |= 1 << v
			}
			for _, w := range out {
				if carrier[w]&^sigma != 0 {
					return false
				}
			}
			return true
		},
	}, nil
}

// ColoredCopy is a chromatic copy of a complex C over the colors
// 0 … procs−1: its vertices are the pairs (p, w) of a color p and a vertex
// w of C, numbered p·|C| + w, and its simplices are the sets of pairs with
// distinct colors whose w's span a simplex of C. When C is a subdivision,
// so is the copy, over the same base, and (p, w) is carried where w is.
//
// The copy is exact: a simplicial map φ from a complex colored by
// 0 … procs−1 into C lifts to the color-preserving map v ↦ (color(v), φ(v))
// into the copy, and Project sends every simplex of the copy to a simplex
// of C. So a search for uncolored maps into C is a chromatic task over the
// copy.
type ColoredCopy struct {
	*topology.Complex
	of *topology.Complex
}

// NewColoredCopy builds the copy of c over procs colors. Its facets are the
// assignments of a vertex of one facet of c to every color, |F|^procs per
// facet F; Seal merges those that two facets share.
func NewColoredCopy(c *topology.Complex, procs int) *ColoredCopy {
	nv := c.NumVertices()
	out := topology.NewComplex()
	if base := c.Base(); base != nil {
		out = topology.NewSubdivision(base)
	}
	for p := 0; p < procs; p++ {
		for w := 0; w < nv; w++ {
			v := out.MustAddVertex(outKey(p, c.Key(topology.Vertex(w))), p)
			if c.Base() != nil {
				out.SetCarrier(v, c.Carrier(topology.Vertex(w)))
			}
		}
	}
	digits := make([]int, procs)
	facet := make([]topology.Vertex, procs)
	for _, f := range c.Facets() {
		clear(digits)
		for {
			for p, d := range digits {
				facet[p] = topology.Vertex(p*nv) + f[d]
			}
			out.MustAddSimplex(facet...)
			p := 0
			for ; p < procs; p++ {
				if digits[p]++; digits[p] < len(f) {
					break
				}
				digits[p] = 0
			}
			if p == procs {
				break
			}
		}
	}
	return &ColoredCopy{Complex: out.Seal(), of: c}
}

// Vertex returns the copy's vertex (p, w).
func (cp *ColoredCopy) Vertex(p int, w topology.Vertex) topology.Vertex {
	return topology.Vertex(p*cp.of.NumVertices()) + w
}

// Project returns the vertex w of C under the copy's vertex (p, w).
func (cp *ColoredCopy) Project(v topology.Vertex) topology.Vertex {
	return v % topology.Vertex(cp.of.NumVertices())
}

// ProjectMap returns m followed by Project: a map into the copy as a map
// into C.
func (cp *ColoredCopy) ProjectMap(m *topology.SimplicialMap) *topology.SimplicialMap {
	out := topology.NewSimplicialMap(m.From, cp.of)
	for v, w := range m.Image {
		out.Image[v] = cp.Project(w)
	}
	return out
}

// NCSAC returns the paper's two-process non-chromatic simplex agreement
// over c (§5), with the colored copy of c its outputs live in: each process
// starts on any vertex of c, the decisions span a simplex of c, and a
// process that runs solo decides its own input. Input vertex (p, w) is
// numbered p·|C| + w, like the copy's, so a solo process's decision is
// allowed exactly when it is its input's number.
func NCSAC(c *topology.Complex) (*Task, *ColoredCopy) {
	const procs = 2
	nv := c.NumVertices()
	in := topology.NewComplex()
	for p := 0; p < procs; p++ {
		for w := 0; w < nv; w++ {
			in.MustAddVertex(inKey(p, c.Key(topology.Vertex(w))), p)
		}
	}
	for u := 0; u < nv; u++ {
		for w := 0; w < nv; w++ {
			in.MustAddSimplex(topology.Vertex(u), topology.Vertex(nv+w))
		}
	}
	out := NewColoredCopy(c, procs)
	return &Task{
		Name:    "ncsac-2p",
		Procs:   procs,
		Inputs:  in.Seal(),
		Outputs: out.Complex,
		Allowed: func(input, output []topology.Vertex) bool {
			if len(input) > 1 {
				return true
			}
			for _, w := range output {
				if w != input[0] {
					return false
				}
			}
			return true
		},
	}, out
}
