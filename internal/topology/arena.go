package topology

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// This file holds the index-based arena representation behind the
// subdivision operators (DESIGN.md §12). Subdivision vertices are interned
// by integer identity — an SDS vertex is the pair (u, S) of a source vertex
// and a source face, a Bsd vertex is a source face — and the canonical
// string keys historically used for interning are derived from that
// provenance only on demand (Key, VertexByKey, CanonicalString, Equal).
// The intern tables are append-only: a vertex or face, once assigned an
// index, keeps it for the lifetime of the complex.

// Provenance kinds.
const (
	provSDS byte = 'S'
	provBsd byte = 'B'
)

// provenance records how an arena-built complex's vertices were derived
// from its source complex, which is all that is needed to rebuild the
// canonical string keys lazily.
type provenance struct {
	kind byte     // provSDS or provBsd
	src  *Complex // the complex that was subdivided

	// faceData packs the sorted source-vertex lists of all distinct faces
	// referenced by the construction; face i is
	// faceData[faceOff[i]:faceOff[i+1]]. Append-only intern table.
	faceData []Vertex
	faceOff  []int32

	// u[v] (provSDS only) and face[v] identify vertex v: for SDS the pair
	// (u, face) with u a vertex of src, for Bsd the face alone.
	u    []Vertex
	face []int32
}

func (p *provenance) faceOf(i int32) []Vertex {
	return p.faceData[p.faceOff[i]:p.faceOff[i+1]]
}

func (p *provenance) numFaces() int { return len(p.faceOff) - 1 }

// newArenaComplex returns an empty arena complex whose vertices will be
// appended directly by a subdivision builder, with provenance against src.
func newArenaComplex(src *Complex, kind byte) *Complex {
	base := src.base
	if base == nil {
		base = src
	}
	return &Complex{
		base: base,
		prov: &provenance{kind: kind, src: src, faceOff: []int32{0}},
	}
}

// ensureKeys materializes the string key of every vertex of an arena
// complex. Explicit complexes carry keys from construction; for arena
// complexes the materialization happens at most once, is safe under
// concurrent readers, and cascades through the provenance chain (an SDS
// tower materializes level by level down to the explicit root).
func (c *Complex) ensureKeys() {
	if c.prov == nil {
		return
	}
	c.keyOnce.Do(c.materializeKeys)
}

func (c *Complex) materializeKeys() {
	p := c.prov
	p.src.ensureKeys()
	for v := range c.verts {
		face := p.faceOf(p.face[v])
		switch p.kind {
		case provSDS:
			c.verts[v].key = sdsVertexKey(p.src, p.u[v], face)
		case provBsd:
			c.verts[v].key = bsdVertexKey(p.src, face)
		}
	}
}

// ensureByKey materializes the key → vertex index of an arena complex.
func (c *Complex) ensureByKey() {
	if c.prov == nil {
		return
	}
	c.ensureKeys()
	c.mapOnce.Do(func() {
		m := make(map[string]Vertex, len(c.verts))
		for i := range c.verts {
			m[c.verts[i].key] = Vertex(i)
		}
		c.byKey = m
	})
}

// EncodeVerts appends the packed 4-byte little-endian encoding of each
// vertex to buf — the allocation-free map key for interning vertex lists,
// here and in the solver's carrier and domain tables.
func EncodeVerts(buf []byte, vs []Vertex) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// sdsBuilder builds one SDS level. Source facets are subdivided in order,
// each facet's ordered partitions in the order of ForEachOrderedPartition,
// and every face and vertex is interned into the level's tables on first
// encounter — which reproduces the first-occurrence vertex order of the
// string-keyed construction.
//
// Within a facet t of size k, a face is its position mask and vertex
// (u, S) with u = t[pos] occupies slot mask·k + pos of a version-stamped
// dense table, so a repeat encounter is two array reads and no hashing;
// the tables persist across facets and the version stamp makes stale
// entries invisible. Across facets, faces are interned by packed content
// and vertices by the pair (face, u), so shared faces glue by integer
// identity.
type sdsBuilder struct {
	c    *Complex // source
	out  *Complex
	prov *provenance

	faceIDs map[string]int32  // packed face content → face index
	vertIDs map[uint64]Vertex // face<<32 | u → vertex

	version   int32
	vertStamp []int32  // slot (mask·k + pos) → version of last write
	vertID    []Vertex // slot → vertex
	faceStamp []int32  // mask → version of last write
	faceID    []int32  // mask → face index
	facetBuf  []Vertex // current partition's facet under construction
	faceBuf   []Vertex
	encBuf    []byte
	flat      []Vertex // the level's facets, each carved from it in turn
}

func newSDSBuilder(c *Complex) *sdsBuilder {
	out := newArenaComplex(c, provSDS)
	facets, slots := sdsFacetCount(c.Facets())
	out.facets = make([][]Vertex, 0, facets)
	faces, verts := sdsInternBounds(c.Facets())
	out.verts = make([]vertexAttr, 0, verts)
	out.prov.u = make([]Vertex, 0, verts)
	out.prov.face = make([]int32, 0, verts)
	return &sdsBuilder{
		c:       c,
		out:     out,
		prov:    out.prov,
		faceIDs: make(map[string]int32, faces),
		vertIDs: make(map[uint64]Vertex, verts),
		flat:    make([]Vertex, 0, slots),
	}
}

// maxPresizeFacets caps the facet list allocated before a level's first
// cancellation checkpoint: a level beyond it grows by append, so an
// oversized request still stops at a checkpoint instead of in one huge
// allocation. SDS³(s³), 421,875 facets, is presized.
const maxPresizeFacets = 1 << 20

// sdsFacetCount is the facet count of SDS over the given facets, Lemma 3.3:
// Σ CountOrderedPartitions(|t|), evaluated once per distinct facet size,
// and the vertex slots those facets hold, Σ |t|·CountOrderedPartitions(|t|).
// It returns 0, 0 (no presizing) past maxPresizeFacets.
func sdsFacetCount(facets [][]Vertex) (total, slots int) {
	var perSize [MaxOrderedPartitionsN + 1]int
	for _, t := range facets {
		if len(t) > MaxOrderedPartitionsN {
			return 0, 0
		}
		perSize[len(t)]++
	}
	for k, n := range perSize {
		if n == 0 {
			continue
		}
		per := CountOrderedPartitions(k)
		if per > maxPresizeFacets {
			return 0, 0
		}
		if total += n * per; total > maxPresizeFacets {
			return 0, 0
		}
		slots += n * per * k
	}
	return total, slots
}

// sdsInternBounds bounds the intern tables of SDS over the given facets:
// a facet t has 2^|t| − 1 faces and |t|·2^(|t|−1) vertices (u, S), and
// facets share some of both, so the sums over the facets bound the level's
// distinct faces and vertices. Either bound past maxPresizeFacets is 0 (no
// presizing), so an oversized level grows its tables as it goes, the way
// sdsFacetCount leaves its facet list.
func sdsInternBounds(facets [][]Vertex) (faces, verts int) {
	for _, t := range facets {
		k := len(t)
		if k > MaxOrderedPartitionsN {
			return 0, 0
		}
		faces += 1<<k - 1
		verts += k << k >> 1
		if faces > maxPresizeFacets || verts > maxPresizeFacets {
			return 0, 0
		}
	}
	return faces, verts
}

// subdivide adds the one-shot IS subdivision of source facet t.
func (b *sdsBuilder) subdivide(t []Vertex) {
	k := len(t)
	if k > 30 {
		panic("topology: SDS of a facet with more than 31 vertices")
	}
	if k == 0 {
		return
	}
	if need := (1 << k) * k; len(b.vertStamp) < need {
		b.vertStamp = make([]int32, need)
		b.vertID = make([]Vertex, need)
		b.faceStamp = make([]int32, 1<<k)
		b.faceID = make([]int32, 1<<k)
		b.version = 0
	}
	b.version++
	b.facetBuf = b.facetBuf[:0]
	b.rec(t, uint32(1<<k)-1, 0, k)
}

func (b *sdsBuilder) rec(t []Vertex, remaining, prefixMask uint32, k int) {
	if remaining == 0 {
		start := len(b.flat)
		b.flat = append(b.flat, b.facetBuf...)
		f := b.flat[start:len(b.flat):len(b.flat)]
		slices.Sort(f)
		b.out.facets = append(b.out.facets, f)
		return
	}
	// Enumerate non-empty subsets of the remaining elements as the next
	// block, in the same sub = (sub−1)&remaining order as
	// ForEachOrderedPartition.
	for sub := remaining; sub > 0; sub = (sub - 1) & remaining {
		pm := prefixMask | sub
		mark := len(b.facetBuf)
		face := b.internFace(t, pm)
		for m := sub; m != 0; m &= m - 1 {
			pos := bits.TrailingZeros32(m)
			slot := int(pm)*k + pos
			if b.vertStamp[slot] != b.version {
				b.vertStamp[slot] = b.version
				b.vertID[slot] = b.internVertex(face, t[pos])
			}
			b.facetBuf = append(b.facetBuf, b.vertID[slot])
		}
		b.rec(t, remaining&^sub, pm, k)
		b.facetBuf = b.facetBuf[:mark]
	}
}

// internFace returns the index of the face of t with the given position
// mask, adding the face on first encounter.
func (b *sdsBuilder) internFace(t []Vertex, mask uint32) int32 {
	if b.faceStamp[mask] == b.version {
		return b.faceID[mask]
	}
	b.faceBuf = b.faceBuf[:0]
	for m := mask; m != 0; m &= m - 1 {
		b.faceBuf = append(b.faceBuf, t[bits.TrailingZeros32(m)])
	}
	b.encBuf = EncodeVerts(b.encBuf[:0], b.faceBuf)
	face, ok := b.faceIDs[string(b.encBuf)]
	if !ok {
		face = int32(b.prov.numFaces())
		b.faceIDs[string(b.encBuf)] = face
		b.prov.faceData = append(b.prov.faceData, b.faceBuf...)
		b.prov.faceOff = append(b.prov.faceOff, int32(len(b.prov.faceData)))
	}
	b.faceStamp[mask] = b.version
	b.faceID[mask] = face
	return face
}

// internVertex returns the vertex (u, face), adding it on first encounter.
func (b *sdsBuilder) internVertex(face int32, u Vertex) Vertex {
	id := uint64(uint32(face))<<32 | uint64(uint32(u))
	v, ok := b.vertIDs[id]
	if !ok {
		v = Vertex(len(b.out.verts))
		b.vertIDs[id] = v
		b.out.verts = append(b.out.verts, vertexAttr{color: b.c.verts[u].color})
		b.prov.u = append(b.prov.u, u)
		b.prov.face = append(b.prov.face, face)
	}
	return v
}

// finish materializes carriers (aliasing the final, no-longer-growing face
// arena where possible) and seals the result via the trusted path: SDS
// facets are pairwise distinct and maximal by construction, so
// deduplication and containment checks are skipped.
func (b *sdsBuilder) finish() *Complex {
	out, p := b.out, b.prov
	var carriers [][]Vertex // per face, computed at most once
	var scratch []Vertex
	if b.c.base != nil {
		carriers = make([][]Vertex, p.numFaces())
	}
	for v := range out.verts {
		if b.c.base == nil {
			// Carrier of (u, S) is S itself; the face arena is final, so
			// aliasing is safe.
			out.verts[v].carrier = p.faceOf(p.face[v])
		} else {
			fi := p.face[v]
			if carriers[fi] == nil {
				scratch = b.c.AppendCarrierOfSimplex(scratch[:0], p.faceOf(fi))
				carriers[fi] = slices.Clone(scratch)
			}
			out.verts[v].carrier = carriers[fi]
		}
	}
	return out.sealTrusted()
}
