package solver

import (
	"slices"

	"waitfree/internal/topology"
)

// Stage-ordered precompute for the search. AC-3 reads only the 1-skeleton:
// the edges, their carriers and their support tables. The check schedule
// reads the dim ≥ 2 simplices, and only when propagation leaves every
// domain non-empty. So the solver asks the complex for its faces one
// dimension at a time (topology.Complex.Faces), and interns carriers
// (carrierTable) instead of allocating one per simplex. A level that
// propagation decides — the whole consensus family — never lists a
// triangle.

// carrierTable interns simplex carriers. A carrier is a face of the base
// complex, so a level has at most as many distinct carriers as its base has
// faces, and every simplex with the same carrier shares one slice. A
// simplex's carrier is the union of its vertices' carriers, folded pairwise
// through a memo of interned unions.
type carrierTable struct {
	list   [][]topology.Vertex // id → carrier
	ids    map[string]int32    // packed carrier → id
	vert   []int32             // vertex → id of its own carrier
	unions map[uint64]int32    // (a, b) with a ≤ b → id of list[a] ∪ list[b]
	buf    []byte
	merge  []topology.Vertex
}

func newCarrierTable(sub *topology.Complex) *carrierTable {
	ct := &carrierTable{
		ids:    make(map[string]int32),
		vert:   make([]int32, sub.NumVertices()),
		unions: make(map[uint64]int32),
	}
	for v := range ct.vert {
		ct.vert[v] = ct.intern(sub.Carrier(topology.Vertex(v)))
	}
	return ct
}

// intern returns the id of carrier c, storing a copy on first sight.
func (ct *carrierTable) intern(c []topology.Vertex) int32 {
	ct.buf = topology.EncodeVerts(ct.buf[:0], c)
	if id, ok := ct.ids[string(ct.buf)]; ok {
		return id
	}
	id := int32(len(ct.list))
	ct.list = append(ct.list, slices.Clone(c))
	ct.ids[string(ct.buf)] = id
	return id
}

// union returns the id of list[a] ∪ list[b], sorted and deduplicated exactly
// as topology.CarrierOfSimplex builds it.
func (ct *carrierTable) union(a, b int32) int32 {
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	if id, ok := ct.unions[key]; ok {
		return id
	}
	m := append(append(ct.merge[:0], ct.list[a]...), ct.list[b]...)
	slices.Sort(m)
	ct.merge = slices.Compact(m)
	id := ct.intern(ct.merge)
	ct.unions[key] = id
	return id
}

// of returns the carrier id of a simplex with at least two vertices.
func (ct *carrierTable) of(s []topology.Vertex) int32 {
	id := ct.union(ct.vert[s[0]], ct.vert[s[1]])
	for _, v := range s[2:] {
		id = ct.union(id, ct.vert[v])
	}
	return id
}
