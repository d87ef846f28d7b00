package solver

import (
	"slices"

	"waitfree/internal/topology"
)

// Stage-ordered precompute for the search. AC-3 reads only the 1-skeleton:
// the edges, their carriers and their support tables. The check schedule
// reads the dim ≥ 2 simplices, and only when propagation leaves every
// domain non-empty. So the solver enumerates faces one dimension at a time,
// straight from the facets (faceIndex), and interns carriers (carrierTable)
// instead of allocating one per simplex. A level that propagation decides —
// the whole consensus family — never builds a triangle.

// faceIndex is the vertex → incident-facet index of a complex: everything
// face enumeration needs.
type faceIndex struct {
	facets [][]topology.Vertex
	inc    [][]int32 // vertex → indices of the facets containing it, ascending
	maxLen int       // vertex count of the largest facet
}

func newFaceIndex(sub *topology.Complex) *faceIndex {
	facets := sub.Facets()
	counts := make([]int32, sub.NumVertices())
	total, maxLen := 0, 0
	for _, f := range facets {
		total += len(f)
		maxLen = max(maxLen, len(f))
		for _, v := range f {
			counts[v]++
		}
	}
	backing := make([]int32, total)
	inc := make([][]int32, len(counts))
	off := 0
	for v, n := range counts {
		inc[v] = backing[off : off : off+int(n)]
		off += int(n)
	}
	for fi, f := range facets {
		for _, v := range f {
			inc[v] = append(inc[v], int32(fi))
		}
	}
	return &faceIndex{facets: facets, inc: inc, maxLen: maxLen}
}

// faces returns every k-vertex face (k ≥ 2) of the complex in
// lexicographic order — element for element AllSimplices()[k-1] — backed by
// one shared array. Each face is generated under its smallest vertex u, once
// per facet containing it, and batches come out in ascending u. Edges, the
// hot path, are deduplicated as they are generated by stamping each
// neighbor with u, so only distinct neighbors are sorted; a larger face's
// candidates under u are few (u's facets times their subsets), so sorting
// that batch and dropping adjacent repeats dedupes it.
func (fx *faceIndex) faces(k int) [][]topology.Vertex {
	var (
		backing []topology.Vertex
		pool    []topology.Vertex   // candidates under u, k−1 vertices each
		batch   [][]topology.Vertex // the candidates as slices of pool
		idx     = make([]int, k-1)
		stamp   []int // k = 2: stamp[v] == u+1 once v is in pool
	)
	if k == 2 {
		stamp = make([]int, len(fx.inc))
	}
	for u := range fx.inc {
		pool = pool[:0]
		for _, fi := range fx.inc[u] {
			f := fx.facets[fi]
			rest := f[slices.Index(f, topology.Vertex(u))+1:]
			if k > 2 {
				pool = appendSubsets(pool, rest, idx)
				continue
			}
			for _, v := range rest {
				if stamp[v] != u+1 {
					stamp[v] = u + 1
					pool = append(pool, v)
				}
			}
		}
		if k == 2 {
			slices.Sort(pool)
			for _, v := range pool {
				backing = append(backing, topology.Vertex(u), v)
			}
			continue
		}
		batch = batch[:0]
		for i := 0; i < len(pool); i += k - 1 {
			batch = append(batch, pool[i:i+k-1])
		}
		slices.SortFunc(batch, slices.Compare[[]topology.Vertex])
		for i, s := range batch {
			if i == 0 || !slices.Equal(s, batch[i-1]) {
				backing = append(append(backing, topology.Vertex(u)), s...)
			}
		}
	}
	out := make([][]topology.Vertex, len(backing)/k)
	for i := range out {
		out[i] = backing[i*k : (i+1)*k : (i+1)*k]
	}
	return out
}

// appendSubsets appends each len(idx)-subset of the sorted slice rest, in
// lexicographic order; idx is scratch.
func appendSubsets(pool []topology.Vertex, rest []topology.Vertex, idx []int) []topology.Vertex {
	r := len(idx)
	if r > len(rest) {
		return pool
	}
	for i := range idx {
		idx[i] = i
	}
	for {
		for _, i := range idx {
			pool = append(pool, rest[i])
		}
		i := r - 1
		for i >= 0 && idx[i] == len(rest)-r+i {
			i--
		}
		if i < 0 {
			return pool
		}
		idx[i]++
		for j := i + 1; j < r; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

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
