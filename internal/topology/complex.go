package topology

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Vertex is an index into a Complex's vertex table. Vertices are meaningful
// only relative to the complex that owns them.
type Vertex int

// Uncolored is the Color of vertices in non-chromatic complexes such as
// barycentric subdivisions.
const Uncolored = -1

// vertexAttr holds the per-vertex data of a complex. In arena-built
// complexes (subdivisions produced by SDS/Bsd) the key is materialized
// lazily from provenance; until then it is empty.
type vertexAttr struct {
	key     string   // canonical identity, unique within the complex
	color   int      // chromatic color (process id), or Uncolored
	carrier []Vertex // carrier face in the base complex; nil when base == nil
}

// Complex is an abstract simplicial complex: a vertex table plus a set of
// maximal simplices (facets). The simplices of the complex are all non-empty
// subsets of facets. A Complex may additionally be a subdivision of a base
// complex, in which case every vertex carries its carrier face in the base.
//
// Complexes come in two construction modes. Explicit complexes are built
// through AddVertex/AddSimplex and carry their string keys eagerly (byKey is
// maintained during construction). Arena complexes are built internally by
// the subdivision operators: their vertices are interned by integer identity
// (DESIGN.md §12), and string keys plus the byKey index are materialized on
// first use at the canonical-encoding / key-lookup boundary, never on the
// subdivision hot path.
type Complex struct {
	verts  []vertexAttr
	byKey  map[string]Vertex // nil for arena complexes until materialized
	facets [][]Vertex        // each sorted ascending; mutually non-contained
	base   *Complex          // non-nil iff this complex is a subdivision

	// incidence[v] lists, ascending, the indices of the facets containing
	// v: the one vertex → facet index of the complex, which HasSimplex and
	// Faces read. Seal builds it while absorbing faces; sealTrusted leaves
	// it to the first HasSimplex or Faces (ensureIncidence), so a level
	// that is only hashed or restricted never pays for it.
	incidence [][]int32
	incOnce   sync.Once
	sealed    bool

	// prov is non-nil exactly for arena complexes; it records how each
	// vertex was derived so keys can be rebuilt on demand.
	prov    *provenance
	keyOnce sync.Once
	mapOnce sync.Once
}

// NewComplex returns an empty complex under construction. Add vertices and
// simplices, then call Seal before using query methods.
func NewComplex() *Complex {
	return &Complex{byKey: make(map[string]Vertex)}
}

// NewSubdivision returns an empty complex under construction that is
// declared to be a subdivision of base: every vertex must be given a carrier
// face of base via SetCarrier before Seal. Used to hand-build non-standard
// chromatic subdivisions (the paper's "any chromatic subdivision A(sⁿ)" in
// Theorem 5.1).
func NewSubdivision(base *Complex) *Complex {
	c := NewComplex()
	c.base = base
	return c
}

// AddVertex registers a vertex with the given canonical key and color,
// returning its index. Re-adding an existing key returns the existing vertex
// and requires the color to match. A key holding a byte below 0x20 is an
// error: the canonical encoding joins keys with "\x1f" and orders facets by
// key rank, which equals the byte order of the joined strings only for such
// keys (writeCanonical). Decoded complexes pass through here, so a crafted
// key in a spill file or peer artifact is a decode failure.
func (c *Complex) AddVertex(key string, color int) (Vertex, error) {
	if c.sealed {
		return 0, fmt.Errorf("topology: AddVertex on sealed complex")
	}
	for i := 0; i < len(key); i++ {
		if key[i] < 0x20 {
			return 0, fmt.Errorf("topology: vertex key %q holds control byte %#02x", key, key[i])
		}
	}
	if v, ok := c.byKey[key]; ok {
		if c.verts[v].color != color {
			return 0, fmt.Errorf("topology: vertex %q re-added with color %d (was %d)", key, color, c.verts[v].color)
		}
		return v, nil
	}
	v := Vertex(len(c.verts))
	c.verts = append(c.verts, vertexAttr{key: key, color: color})
	c.byKey[key] = v
	return v, nil
}

// MustAddVertex is AddVertex for construction code with statically valid
// inputs; it panics on error.
func (c *Complex) MustAddVertex(key string, color int) Vertex {
	v, err := c.AddVertex(key, color)
	if err != nil {
		panic(err)
	}
	return v
}

// SetCarrier records the carrier face (vertices of the base complex) of v.
// The slice is copied and sorted.
func (c *Complex) SetCarrier(v Vertex, carrier []Vertex) {
	cp := append([]Vertex(nil), carrier...)
	slices.Sort(cp)
	c.verts[v].carrier = cp
}

// AddSimplex registers a candidate maximal simplex. Duplicate vertices are an
// error; faces of previously added simplices are absorbed at Seal time.
func (c *Complex) AddSimplex(vs ...Vertex) error {
	if c.sealed {
		return fmt.Errorf("topology: AddSimplex on sealed complex")
	}
	s := append([]Vertex(nil), vs...)
	slices.Sort(s)
	for i, v := range s {
		if int(v) < 0 || int(v) >= len(c.verts) {
			return fmt.Errorf("topology: simplex references unknown vertex %d", v)
		}
		if i > 0 && s[i-1] == v {
			return fmt.Errorf("topology: simplex has duplicate vertex %d", v)
		}
	}
	c.facets = append(c.facets, s)
	return nil
}

// MustAddSimplex is AddSimplex for construction code with statically valid
// inputs; it panics on error.
func (c *Complex) MustAddSimplex(vs ...Vertex) {
	if err := c.AddSimplex(vs...); err != nil {
		panic(err)
	}
}

// Seal finalizes the complex: it deduplicates facets, removes facets that are
// faces of other facets, and builds incidence indexes. Query methods may only
// be used after Seal.
func (c *Complex) Seal() *Complex {
	if c.sealed {
		return c
	}
	// Sort by descending size, then by the decimal-string order of the
	// vertex lists (facetorder.go). Duplicates land adjacent, so
	// deduplication is a linear scan, and a containment check against
	// already-retained facets absorbs proper faces.
	sortFacets(c.facets, len(c.verts))
	inc := make([][]int32, len(c.verts))
	kept := c.facets[:0]
	for i, f := range c.facets {
		if i > 0 && slices.Equal(c.facets[i-1], f) {
			continue
		}
		if len(kept) > 0 && containedInAny(f, inc, kept) {
			continue
		}
		idx := int32(len(kept))
		kept = append(kept, f)
		for _, v := range f {
			inc[v] = append(inc[v], idx)
		}
	}
	c.facets = kept
	c.incidence = inc
	c.sealed = true
	return c
}

// sealTrusted finalizes a builder-produced complex whose facets are known to
// be pairwise distinct and maximal (SDS and Bsd guarantee both: a facet's
// ordered partition / permutation chain is recoverable from its vertex set,
// and a subdivision facet of base facet t always contains a vertex whose
// face is all of t, so it cannot sit inside the subdivision of another
// facet). Skips deduplication and containment and sorts in the same order
// as Seal; the incidence index is built on first use (ensureIncidence).
func (c *Complex) sealTrusted() *Complex {
	if c.sealed {
		return c
	}
	sortFacets(c.facets, len(c.verts))
	c.facets = c.facets[:len(c.facets):len(c.facets)]
	c.sealed = true
	return c
}

// ensureIncidence builds the incidence index of a trusted-sealed complex,
// at most once and safely under concurrent readers. Seal's index is
// already in place.
func (c *Complex) ensureIncidence() {
	c.incOnce.Do(func() {
		if c.incidence != nil {
			return
		}
		// Every list is carved from one array: count each vertex's facets,
		// then append into the vertex's window in facet order.
		deg := make([]int32, len(c.verts))
		total := 0
		for _, f := range c.facets {
			for _, v := range f {
				deg[v]++
			}
			total += len(f)
		}
		flat := make([]int32, total)
		inc := make([][]int32, len(c.verts))
		off := 0
		for v, d := range deg {
			inc[v] = flat[off : off : off+int(d)]
			off += int(d)
		}
		for i, f := range c.facets {
			for _, v := range f {
				inc[v] = append(inc[v], int32(i))
			}
		}
		c.incidence = inc
	})
}

// containedInAny reports whether sorted simplex f is a subset of one of the
// facets, using the incidence lists built so far.
func containedInAny(f []Vertex, inc [][]int32, facets [][]Vertex) bool {
	if len(f) == 0 {
		return true
	}
	for _, fi := range inc[f[0]] {
		if isSubset(f, facets[fi]) {
			return true
		}
	}
	return false
}

// isSubset reports a ⊆ b for sorted slices.
func isSubset(a, b []Vertex) bool {
	i := 0
	for _, x := range b {
		if i == len(a) {
			return true
		}
		if a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// NumVertices returns the number of vertices.
func (c *Complex) NumVertices() int { return len(c.verts) }

// Key returns the canonical key of v. For arena complexes the key table is
// materialized (once, concurrency-safe) on first use.
func (c *Complex) Key(v Vertex) string {
	c.ensureKeys()
	return c.verts[v].key
}

// Color returns the color of v (Uncolored for non-chromatic complexes).
func (c *Complex) Color(v Vertex) int { return c.verts[v].color }

// VertexByKey returns the vertex with the given key.
func (c *Complex) VertexByKey(key string) (Vertex, bool) {
	c.ensureByKey()
	v, ok := c.byKey[key]
	return v, ok
}

// Base returns the base complex when this complex is a subdivision, else nil.
func (c *Complex) Base() *Complex { return c.base }

// Carrier returns the carrier face of v in the base complex. For a complex
// that is not a subdivision it returns {v} (every complex trivially carries
// itself).
func (c *Complex) Carrier(v Vertex) []Vertex {
	if c.base == nil {
		return []Vertex{v}
	}
	return c.verts[v].carrier
}

// CarrierOfSimplex returns the carrier of a simplex: the union of the
// carriers of its vertices, which for a subdivision is the smallest base face
// containing the simplex.
func (c *Complex) CarrierOfSimplex(s []Vertex) []Vertex {
	return c.AppendCarrierOfSimplex(nil, s)
}

// AppendCarrierOfSimplex appends the carrier of s, sorted and deduplicated,
// to dst and returns the extended slice; a caller that reuses a buffer
// passes buf[:0].
func (c *Complex) AppendCarrierOfSimplex(dst, s []Vertex) []Vertex {
	n := len(dst)
	for _, v := range s {
		dst = append(dst, c.Carrier(v)...)
	}
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

// Facets returns the maximal simplices. The returned slices are shared; do
// not modify.
func (c *Complex) Facets() [][]Vertex {
	c.mustBeSealed("Facets")
	return c.facets
}

// Dimension returns the dimension of the complex (max facet size − 1), or −1
// for the empty complex.
func (c *Complex) Dimension() int {
	c.mustBeSealed("Dimension")
	d := -1
	for _, f := range c.facets {
		if len(f)-1 > d {
			d = len(f) - 1
		}
	}
	return d
}

// IsPure reports whether every facet has the full dimension of the complex.
func (c *Complex) IsPure() bool {
	c.mustBeSealed("IsPure")
	d := c.Dimension()
	for _, f := range c.facets {
		if len(f)-1 != d {
			return false
		}
	}
	return true
}

// IsChromatic reports whether every vertex is colored and no facet repeats a
// color (i.e. the coloring is a dimension-preserving map to a simplex).
func (c *Complex) IsChromatic() bool {
	c.mustBeSealed("IsChromatic")
	// Read colors by index, not by struct copy: a whole-vertexAttr copy
	// would read the key field, which arena complexes materialize lazily
	// under keyOnce — racing with a concurrent ensureKeys on a shared level.
	for i := range c.verts {
		if c.verts[i].color == Uncolored {
			return false
		}
	}
	for _, f := range c.facets {
		for i := 1; i < len(f); i++ {
			for _, w := range f[:i] {
				if c.verts[f[i]].color == c.verts[w].color {
					return false
				}
			}
		}
	}
	return true
}

// HasSimplex reports whether the given vertex set is a simplex of the
// complex (a subset of some facet). The input need not be sorted.
func (c *Complex) HasSimplex(vs []Vertex) bool {
	c.mustBeSealed("HasSimplex")
	if len(vs) == 0 {
		return false
	}
	// The search asks this once per check item per node, and once per pair
	// in the support tables. Every simplex of a task over at most 4
	// processes fits the local array, so those calls allocate nothing.
	var small [8]Vertex
	var s []Vertex
	if len(vs) <= len(small) {
		s = small[:len(vs)]
		copy(s, vs)
		slices.Sort(s)
	} else {
		s = sortedCopy(vs)
	}
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return false
		}
	}
	c.ensureIncidence()
	return containedInAny(s, c.incidence, c.facets)
}

// AllSimplices returns every simplex of the complex grouped by dimension:
// result[d] is Faces(d+1).
func (c *Complex) AllSimplices() [][][]Vertex {
	c.mustBeSealed("AllSimplices")
	byDim := make([][][]Vertex, c.Dimension()+1)
	for d := range byDim {
		byDim[d] = c.Faces(d + 1)
	}
	return byDim
}

// FVector returns the number of simplices in each dimension: f[d] is the
// count of d-simplices, len(Faces(d+1)).
func (c *Complex) FVector() []int {
	c.mustBeSealed("FVector")
	f := make([]int, c.Dimension()+1)
	for d := range f {
		f[d] = len(c.Faces(d + 1))
	}
	return f
}

// Faces returns the k-vertex simplices of the complex, each sorted, in
// lexicographic order; Faces(1) lists the vertices that lie in some facet,
// and k < 1 lists none. The faces are carved from one array and shared: do
// not modify them. The order is part of the contract: the solver revises
// edges in Faces(2) order, so its pruning counts depend on it.
//
// Each face is generated under its smallest vertex u, once per facet
// holding it, and u's batch comes out before u+1's. Edges, the solver's hot
// path, are deduplicated as they are generated by stamping each neighbor
// with u, so only distinct neighbors are sorted; a larger face's candidates
// under u are few (u's facets times their subsets), so sorting that batch
// and dropping adjacent repeats dedupes it.
func (c *Complex) Faces(k int) [][]Vertex {
	c.mustBeSealed("Faces")
	if k < 1 {
		return nil
	}
	c.ensureIncidence()
	var (
		backing []Vertex
		pool    []Vertex   // candidates under u, k−1 vertices each
		batch   [][]Vertex // the candidates as slices of pool
		idx     = make([]int, k-1)
		stamp   []int // k = 2: stamp[v] == u+1 once v is in pool
	)
	if k == 2 {
		stamp = make([]int, len(c.verts))
	}
	for u, fs := range c.incidence {
		if k == 1 {
			if len(fs) > 0 {
				backing = append(backing, Vertex(u))
			}
			continue
		}
		pool = pool[:0]
		for _, fi := range fs {
			f := c.facets[fi]
			rest := f[slices.Index(f, Vertex(u))+1:]
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
				backing = append(backing, Vertex(u), v)
			}
			continue
		}
		batch = batch[:0]
		for i := 0; i < len(pool); i += k - 1 {
			batch = append(batch, pool[i:i+k-1])
		}
		slices.SortFunc(batch, slices.Compare[[]Vertex])
		for i, s := range batch {
			if i == 0 || !slices.Equal(s, batch[i-1]) {
				backing = append(append(backing, Vertex(u)), s...)
			}
		}
	}
	out := make([][]Vertex, len(backing)/k)
	for i := range out {
		out[i] = backing[i*k : (i+1)*k : (i+1)*k]
	}
	return out
}

// appendSubsets appends each len(idx)-subset of the sorted slice rest, in
// lexicographic order; idx is scratch.
func appendSubsets(pool, rest []Vertex, idx []int) []Vertex {
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

// VerticesOfColor returns all vertices with the given color, ascending.
func (c *Complex) VerticesOfColor(color int) []Vertex {
	var out []Vertex
	for i := range c.verts {
		// Indexed field read, not a struct copy: see IsChromatic.
		if c.verts[i].color == color {
			out = append(out, Vertex(i))
		}
	}
	return out
}

// Colors returns the sorted set of colors used in the complex.
func (c *Complex) Colors() []int {
	set := make(map[int]struct{})
	for i := range c.verts {
		// Indexed field read, not a struct copy: see IsChromatic.
		set[c.verts[i].color] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for col := range set {
		out = append(out, col)
	}
	sort.Ints(out)
	return out
}

// Link returns the link of simplex s as a new complex: the simplices disjoint
// from s whose union with s is a simplex. Vertex keys and colors are
// inherited; the link is not a subdivision (no carriers).
func (c *Complex) Link(s []Vertex) *Complex {
	c.mustBeSealed("Link")
	c.ensureKeys()
	in := make(map[Vertex]struct{}, len(s))
	for _, v := range s {
		in[v] = struct{}{}
	}
	link := NewComplex()
	for _, f := range c.facets {
		if !isSubset(sortedCopy(s), f) {
			continue
		}
		var rest []Vertex
		for _, v := range f {
			if _, ok := in[v]; !ok {
				rest = append(rest, v)
			}
		}
		if len(rest) == 0 {
			continue
		}
		mapped := make([]Vertex, len(rest))
		for i, v := range rest {
			mapped[i] = link.MustAddVertex(c.verts[v].key, c.verts[v].color)
		}
		link.MustAddSimplex(mapped...)
	}
	return link.Seal()
}

// ConnectedComponents returns the vertex sets of the connected components
// of the complex's 1-skeleton (isolated vertices form their own
// components), each sorted, ordered by smallest vertex.
func (c *Complex) ConnectedComponents() [][]Vertex {
	c.mustBeSealed("ConnectedComponents")
	parent := make([]int, len(c.verts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, f := range c.facets {
		for i := 1; i < len(f); i++ {
			union(int(f[0]), int(f[i]))
		}
	}
	// An ascending scan meets each component first at its smallest vertex,
	// so numbering components on first sight orders them.
	id := make([]int, len(c.verts)) // root → component index + 1
	var out [][]Vertex
	for v := range c.verts {
		r := find(v)
		if id[r] == 0 {
			out = append(out, nil)
			id[r] = len(out)
		}
		out[id[r]-1] = append(out[id[r]-1], Vertex(v))
	}
	return out
}

// IsConnected reports whether the complex has exactly one connected
// component.
func (c *Complex) IsConnected() bool {
	return len(c.ConnectedComponents()) == 1
}

// Equal reports whether two sealed complexes have identical vertex keys,
// colors, and facet sets (same complex, not merely isomorphic).
func (c *Complex) Equal(o *Complex) bool {
	c.mustBeSealed("Equal")
	o.mustBeSealed("Equal")
	c.ensureByKey()
	o.ensureByKey()
	if len(c.verts) != len(o.verts) || len(c.facets) != len(o.facets) {
		return false
	}
	for _, a := range c.verts {
		ov, ok := o.byKey[a.key]
		if !ok || o.verts[ov].color != a.color {
			return false
		}
	}
	// Compare facets as sets of key-sets.
	mine := make(map[string]struct{}, len(c.facets))
	for _, f := range c.facets {
		mine[c.facetKeyString(f)] = struct{}{}
	}
	for _, f := range o.facets {
		if _, ok := mine[o.facetKeyString(f)]; !ok {
			return false
		}
	}
	return true
}

// facetKeyString canonically encodes a facet by its vertex keys. The caller
// must have materialized keys (ensureKeys).
func (c *Complex) facetKeyString(f []Vertex) string {
	keys := make([]string, len(f))
	for i, v := range f {
		keys[i] = c.verts[v].key
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x1f")
}

func (c *Complex) mustBeSealed(op string) {
	if !c.sealed {
		panic("topology: " + op + " called before Seal")
	}
}

func sortedCopy(s []Vertex) []Vertex {
	cp := append([]Vertex(nil), s...)
	slices.Sort(cp)
	return cp
}

// Simplex returns the standard chromatic n-simplex sⁿ: vertices P0…Pn with
// color i and key "Pi", one facet containing all of them.
func Simplex(n int) *Complex {
	c := NewComplex()
	vs := make([]Vertex, n+1)
	for i := 0; i <= n; i++ {
		vs[i] = c.MustAddVertex(fmt.Sprintf("P%d", i), i)
	}
	c.MustAddSimplex(vs...)
	return c.Seal()
}
