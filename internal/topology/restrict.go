package topology

import (
	"fmt"
	"slices"
)

// This file implements restricted standard chromatic subdivisions — the
// topological side of affine solvability models (DESIGN.md §15). An affine
// task à la Gafni–He–Kuznetsov–Rieutord is a subcomplex of SDS(s) closed
// under faces; iterating it (R^b) replaces the wait-free protocol complex
// SDS^b(I) with the protocol complex of a restricted model (t-resilience,
// k-concurrency, …). The restriction here is uniform and local: a facet of
// SDS(c) corresponds to an ordered partition (B1,…,Bm) of its source facet
// (Lemma 3.2), and a FacetFilter accepts or rejects the facet by the block
// sizes (|B1|,…,|Bm|) alone. That is exactly the shape of the IRIS-style
// model restrictions (every classical model in internal/model is such a
// filter), and it guarantees the restriction composes with iteration: every
// accepted facet keeps its full vertex set, so the restricted complex is a
// pure, chromatic, carrier-respecting subcomplex that can be subdivided
// again.

// FacetFilter decides whether an SDS facet belongs to a restricted model,
// given the block sizes (|B1|,…,|Bm|) of the ordered partition that
// generated it, in schedule order (B1 is the first — most concurrent —
// snapshot block; the sizes sum to the source facet's size). A nil
// FacetFilter means wait-free: accept everything.
//
// Filters must be pure functions of the block-size vector; the slice is
// reused between calls and must not be retained.
type FacetFilter func(blocks []int) bool

// CountKeptPartitions returns how many of the Fubini(m) ordered partitions
// of an m-set keep accepts — the per-facet branching factor of the
// restricted chain. A nil filter keeps every one, counted by the checked
// Fubini recurrence. m is range-checked before the enumeration allocates
// its m-int buffer, the same bound the recurrence applies.
func CountKeptPartitions(m int, keep FacetFilter) (int, error) {
	if keep == nil {
		return CountOrderedPartitionsChecked(m)
	}
	if m < 0 || m > MaxOrderedPartitionsN {
		return 0, fmt.Errorf("topology: CountKeptPartitions(%d) out of range [0,%d]", m, MaxOrderedPartitionsN)
	}
	count := 0
	blocks := make([]int, 0, m)
	ForEachOrderedPartition(m, func(parts [][]int) {
		blocks = blocks[:0]
		for _, b := range parts {
			blocks = append(blocks, len(b))
		}
		if keep(blocks) {
			count++
		}
	})
	return count, nil
}

// sdsSnapshotSizes collects the sorted distinct snapshot (face) sizes of the
// facet's vertices into buf.
func (c *Complex) sdsSnapshotSizes(facet []Vertex, buf []int) ([]int, error) {
	p := c.prov
	if p == nil || p.kind != provSDS {
		return nil, fmt.Errorf("topology: block sizes of a complex without SDS provenance")
	}
	buf = buf[:0]
	for _, v := range facet {
		fi := p.face[v]
		n := int(p.faceOff[fi+1] - p.faceOff[fi])
		if !slices.Contains(buf, n) {
			buf = append(buf, n)
		}
	}
	slices.Sort(buf)
	return buf, nil
}

// snapshotSizesToBlocks converts sorted distinct prefix sizes in place into
// block sizes: blocks[j] = sizes[j] − sizes[j−1].
func snapshotSizesToBlocks(sizes []int) []int {
	for j := len(sizes) - 1; j > 0; j-- {
		sizes[j] -= sizes[j-1]
	}
	return sizes
}

// RestrictSDS returns the subcomplex of the SDS-built complex s spanned by
// the facets whose ordered-partition block sizes satisfy accept. When every
// facet is accepted — always the case for a nil (wait-free) filter, and for
// filters that happen to be no-ops at this dimension — the result is s
// itself, pointer-identical, so canonical encodings and content addresses
// of unrestricted levels are byte-for-byte unchanged.
//
// Otherwise the result is s's arena compacted to the kept facets: surviving
// vertices keep their provenance, colors and carriers, in the original
// index order, and keys materialize from that provenance as they do for s.
// So restricted complexes of equal levels are equal, content-address
// identically, and round-trip through the engine's DTO codec.
func RestrictSDS(s *Complex, accept FacetFilter) (*Complex, error) {
	if accept == nil {
		return s, nil
	}
	s.mustBeSealed("RestrictSDS")
	facets := s.Facets()
	keep := make([]bool, len(facets))
	all := true
	sizeBuf := make([]int, 0, 8)
	for i, f := range facets {
		var err error
		sizeBuf, err = s.sdsSnapshotSizes(f, sizeBuf)
		if err != nil {
			return nil, err
		}
		keep[i] = accept(snapshotSizesToBlocks(sizeBuf))
		all = all && keep[i]
	}
	if all {
		return s, nil
	}
	return compactSDS(s, keep)
}

// compactSDS returns the arena complex holding the kept facets of s and the
// vertices they use. The face table is shared with s, since it is final once
// s is sealed; kept facets are distinct and maximal because s's are, so the
// result seals by the trusted path.
func compactSDS(s *Complex, keep []bool) (*Complex, error) {
	const dropped = -1
	remap := make([]Vertex, len(s.verts))
	for v := range remap {
		remap[v] = dropped
	}
	kept, size := 0, 0
	for i, f := range s.facets {
		if !keep[i] {
			continue
		}
		kept++
		size += len(f)
		for _, v := range f {
			remap[v] = 0 // used; numbered below
		}
	}
	if kept == 0 {
		// Cannot happen for the models in internal/model (each accepts at
		// least one partition of every size), but a hostile filter could
		// empty a level; refuse rather than hand back a base-less shell.
		return nil, fmt.Errorf("topology: RestrictSDS filter rejected every facet")
	}
	n := 0
	for v := range remap {
		if remap[v] != dropped {
			remap[v] = Vertex(n)
			n++
		}
	}
	p := s.prov
	q := &provenance{kind: provSDS, src: p.src, faceData: p.faceData, faceOff: p.faceOff,
		u: make([]Vertex, 0, n), face: make([]int32, 0, n)}
	out := &Complex{verts: make([]vertexAttr, 0, n), base: s.base, prov: q}
	for v := range s.verts {
		if remap[v] == dropped {
			continue
		}
		// Field reads, not a struct copy: s's key may be materializing
		// concurrently (see IsChromatic).
		out.verts = append(out.verts, vertexAttr{color: s.verts[v].color, carrier: s.verts[v].carrier})
		q.u = append(q.u, p.u[v])
		q.face = append(q.face, p.face[v])
	}
	// The numbering keeps index order, so mapped facets stay sorted.
	flat := make([]Vertex, 0, size)
	out.facets = make([][]Vertex, 0, kept)
	for i, f := range s.facets {
		if !keep[i] {
			continue
		}
		start := len(flat)
		for _, v := range f {
			flat = append(flat, remap[v])
		}
		out.facets = append(out.facets, flat[start:len(flat):len(flat)])
	}
	return out.sealTrusted(), nil
}
