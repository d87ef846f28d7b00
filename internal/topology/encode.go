package topology

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// CanonicalString returns a canonical textual encoding of the sealed
// complex: the base's encoding (when the complex is a subdivision), then
// every vertex sorted by key with its color and carrier (carriers rendered
// by base key, so the encoding is independent of internal vertex numbering),
// then every facet as a sorted tuple of vertex keys, facets sorted
// lexicographically. Two sealed complexes with equal canonical strings have
// identical vertex keys, colors, carriers, and facet sets — the property the
// engine's content-addressed cache keys rely on.
func (c *Complex) CanonicalString() string {
	c.mustBeSealed("CanonicalString")
	var b strings.Builder
	c.writeCanonical(&b)
	return b.String()
}

// CanonicalHash returns the hex SHA-256 of CanonicalString without
// materializing the string: the canonical byte stream is fed to the hash
// incrementally, so content-addressing a (3,3)-level subdivision does not
// hold its multi-hundred-megabyte encoding in memory. By construction
// CanonicalHash(c) == hex(sha256(CanonicalString(c))).
//
// The stream passes through a hashBufferSize buffer: the SHA-256 digest has
// no WriteString, so writing a key to it directly copies the key into a
// fresh []byte, while the buffer copies strings in place.
func (c *Complex) CanonicalHash() string {
	c.mustBeSealed("CanonicalHash")
	h := sha256.New()
	w := bufio.NewWriterSize(h, hashBufferSize)
	c.writeCanonical(w)
	w.Flush() // a hash.Hash never fails, so neither does the flush
	return hex.EncodeToString(h.Sum(nil))
}

// hashBufferSize is CanonicalHash's buffer. The one production caller is
// the engine's complex answer, which hashes a level of up to SDS³(s²)
// (1.37 MB of canonical bytes) once per cold query; the writer hands it
// whole keys and runs of glue, most far shorter than the buffer, so the
// buffer only has to batch them into digest-sized blocks. 4 KiB does that,
// and a larger buffer is an allocation per query that buys no time
// (EXPERIMENTS E35).
const hashBufferSize = 4 << 10

// writeCanonical streams the canonical encoding to w. An SDS tower over a
// prefix-free explicit root takes the provenance path (writeTower); every
// other complex takes writeKeyed.
func (c *Complex) writeCanonical(w io.Writer) {
	if levels := c.sdsTower(); levels != nil {
		if rootK := rootKeys(levels[0]); rootK != nil {
			c.writeTower(w, levels, rootK)
			return
		}
	}
	c.writeKeyed(w)
}

// writeKeyed is the canonical writer over materialized keys. It
// materializes vertex keys (lazily, via ensureKeys) but never the
// per-facet joined key strings: facets are ordered by the ranks of their
// vertex keys in the sorted key list the verts{} section already needs. No
// key holds a byte below 0x20 (AddVertex enforces it; arena keys are built
// from such keys and printable glue), so the "\x1f" separator sorts below
// every key byte and rank order is exactly the byte order of the
// materialized "key\x1fkey…" strings.
func (c *Complex) writeKeyed(w io.Writer) {
	c.ensureKeys()
	if c.base != nil {
		ws(w, "base{")
		c.base.writeCanonical(w)
		ws(w, "}\n")
	}
	c.ensureByKey()
	keys := make([]string, len(c.verts))
	for i := range c.verts {
		keys[i] = c.verts[i].key
	}
	sort.Strings(keys)
	rank := make([]int32, len(c.verts))
	ws(w, "verts{")
	var num [24]byte
	var ck []string // one vertex's carrier keys
	for i, k := range keys {
		if i > 0 {
			ws(w, ";")
		}
		v := c.byKey[k]
		rank[v] = int32(i)
		ws(w, k)
		ws(w, "|")
		w.Write(strconv.AppendInt(num[:0], int64(c.verts[v].color), 10))
		if c.base != nil {
			ws(w, "|[")
			ck = ck[:0]
			for _, b := range c.verts[v].carrier {
				ck = append(ck, c.base.verts[b].key)
			}
			sort.Strings(ck)
			for j, k := range ck {
				if j > 0 {
					ws(w, " ")
				}
				ws(w, k)
			}
			ws(w, "]")
		}
	}
	ws(w, "}\nfacets{")
	c.writeFacets(w, rank, func(r int32) { ws(w, keys[r]) })
	ws(w, "}")
}

// writeFacets writes the facets{} section's body: each facet as the keys
// of its vertices in rank order joined by "\x1f", facets in lexicographic
// order of their rank tuples, joined by ";". key writes the key of rank r.
//
// A facet of at most four vertices in a complex of fewer than 65,535
// vertices packs its sorted tuple into one uint64, rank+1 per 16-bit field
// from the top and 0 past its end, so a tuple sorts before its extensions
// exactly as slices.Compare orders them; anything larger sorts the tuples
// themselves.
func (c *Complex) writeFacets(w io.Writer, rank []int32, key func(r int32)) {
	var t [4]int32
	writeTuple := func(i int, tuple []int32) {
		if i > 0 {
			ws(w, ";")
		}
		for j, r := range tuple {
			if j > 0 {
				ws(w, "\x1f")
			}
			key(r)
		}
	}
	if packable(c.facets, len(c.verts)) {
		packed := make([]uint64, len(c.facets))
		for i, f := range c.facets {
			tuple := t[:len(f)]
			for j, v := range f {
				tuple[j] = rank[v]
			}
			slices.Sort(tuple)
			for j, r := range tuple {
				packed[i] |= uint64(r+1) << (48 - 16*j)
			}
		}
		slices.Sort(packed)
		for i, p := range packed {
			n := 0
			for ; n < 4 && p>>(48-16*n)&0xffff != 0; n++ {
				t[n] = int32(p>>(48-16*n)&0xffff) - 1
			}
			writeTuple(i, t[:n])
		}
		return
	}
	total := 0
	for _, f := range c.facets {
		total += len(f)
	}
	flat := make([]int32, 0, total)
	tuples := make([][]int32, len(c.facets))
	for i, f := range c.facets {
		start := len(flat)
		for _, v := range f {
			flat = append(flat, rank[v])
		}
		tuple := flat[start:len(flat):len(flat)]
		slices.Sort(tuple)
		tuples[i] = tuple
	}
	slices.SortFunc(tuples, slices.Compare[[]int32])
	for i, tuple := range tuples {
		writeTuple(i, tuple)
	}
}

// packable reports whether every facet's rank tuple fits writeFacets'
// uint64 packing.
func packable(facets [][]Vertex, numVerts int) bool {
	if numVerts >= 0xffff {
		return false
	}
	for _, f := range facets {
		if len(f) > 4 {
			return false
		}
	}
	return true
}

// sdsTower returns the chain of complexes under c, root first, when every
// complex above the root is an SDS level of the one below (restricted
// levels included) and the root is an explicit complex, not itself a
// subdivision; otherwise — an explicit c, a Bsd level anywhere in the
// chain — it returns nil.
func (c *Complex) sdsTower() []*Complex {
	var levels []*Complex
	x := c
	for ; x.prov != nil; x = x.prov.src {
		if x.prov.kind != provSDS {
			return nil
		}
		levels = append(levels, x)
	}
	if len(levels) == 0 || x.base != nil {
		return nil
	}
	levels = append(levels, x)
	slices.Reverse(levels)
	return levels
}

// levelKeys holds one level's vertex keys rendered from provenance: vertex
// v's key is buf[off[v]:off[v+1]], and rank[v] is its position in the
// byte order of the level's keys.
type levelKeys struct {
	buf  []byte
	off  []int
	rank []int32
}

func (k *levelKeys) key(v Vertex) []byte { return k.buf[k.off[v]:k.off[v+1]] }

// rootKeys renders the explicit root's keys and ranks them by sorting. It
// returns nil unless the keys are prefix-free — no key is a proper prefix
// of another, as "P1" is of "P10" — which the ranks of every level above
// need (nextLevelKeys). In sorted order a key's extensions directly follow
// it, so comparing neighbours suffices.
func rootKeys(root *Complex) *levelKeys {
	n := len(root.verts)
	k := &levelKeys{off: make([]int, n+1), rank: make([]int32, n)}
	for v := range root.verts {
		k.off[v+1] = k.off[v] + len(root.verts[v].key)
	}
	k.buf = make([]byte, 0, k.off[n])
	order := make([]Vertex, n)
	for v := range root.verts {
		k.buf = append(k.buf, root.verts[v].key...)
		order[v] = Vertex(v)
	}
	slices.SortFunc(order, func(a, b Vertex) int { return strings.Compare(root.verts[a].key, root.verts[b].key) })
	for r, v := range order {
		if r > 0 && strings.HasPrefix(root.verts[v].key, root.verts[order[r-1]].key) {
			return nil
		}
		k.rank[v] = int32(r)
	}
	return k
}

// nextLevelKeys renders and ranks the keys of lvl, an SDS level of the
// complex whose keys are prev: vertex (u, S) is "S(" K(u) "|{" K(s₁) " " …
// "})", with S in key order, exactly as sdsVertexKey names it.
//
// The rank of (u, S) is the order of (rank of u, rank tuple of S), where a
// tuple sorts after its own extensions: two keys first differ inside K(u),
// or inside the first differing K(sᵢ), or where the shorter S closes with
// '}' against the longer one's ' ', and '}' > ' '. That is the byte order
// of the keys whenever prev's keys are prefix-free, which then holds for
// lvl's keys too: a key parses back into (u, S) because no component can
// end inside another.
func nextLevelKeys(lvl *Complex, prev *levelKeys) *levelKeys {
	p := lvl.prov
	// Each face in rank order, once: faces are shared by many vertices.
	sorted := make([]Vertex, len(p.faceData))
	for fi := 0; fi < p.numFaces(); fi++ {
		s := sorted[p.faceOff[fi]:p.faceOff[fi+1]]
		copy(s, p.faceOf(int32(fi)))
		slices.SortFunc(s, func(a, b Vertex) int { return cmp.Compare(prev.rank[a], prev.rank[b]) })
	}
	faceOf := func(fi int32) []Vertex { return sorted[p.faceOff[fi]:p.faceOff[fi+1]] }

	n := len(lvl.verts)
	k := &levelKeys{off: make([]int, n+1), rank: make([]int32, n)}
	for v := 0; v < n; v++ {
		size := len("S(|{})") + len(prev.key(p.u[v]))
		for i, s := range faceOf(p.face[v]) {
			size += len(prev.key(s)) + min(i, 1)
		}
		k.off[v+1] = k.off[v] + size
	}
	k.buf = make([]byte, 0, k.off[n])
	for v := 0; v < n; v++ {
		k.buf = append(k.buf, "S("...)
		k.buf = append(k.buf, prev.key(p.u[v])...)
		k.buf = append(k.buf, "|{"...)
		for i, s := range faceOf(p.face[v]) {
			if i > 0 {
				k.buf = append(k.buf, ' ')
			}
			k.buf = append(k.buf, prev.key(s)...)
		}
		k.buf = append(k.buf, "})"...)
	}

	// Rank the faces by their tuples once, then each vertex by the pair
	// (rank of u, rank of S) packed into one integer.
	faces := make([]int32, p.numFaces())
	for fi := range faces {
		faces[fi] = int32(fi)
	}
	slices.SortFunc(faces, func(a, b int32) int {
		sa, sb := faceOf(a), faceOf(b)
		for i := 0; i < len(sa) && i < len(sb); i++ {
			if c := cmp.Compare(prev.rank[sa[i]], prev.rank[sb[i]]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(sb), len(sa))
	})
	faceRank := make([]uint64, len(faces))
	for r, fi := range faces {
		faceRank[fi] = uint64(r)
	}
	pair := make([]uint64, n)
	order := make([]Vertex, n)
	for v := range order {
		pair[v] = uint64(prev.rank[p.u[v]])<<32 | faceRank[p.face[v]]
		order[v] = Vertex(v)
	}
	slices.SortFunc(order, func(a, b Vertex) int { return cmp.Compare(pair[a], pair[b]) })
	for r, v := range order {
		k.rank[v] = int32(r)
	}
	return k
}

// writeTower is writeKeyed for an SDS tower (levels, root first, c last;
// rootK the root's keys), with every key rendered from the arena
// provenance instead of materialized: it builds each level's keys once
// into one presized buffer (nextLevelKeys) and ranks them from the
// provenance, so it makes no key string, no key → vertex map and no string
// sort, and writes the same bytes.
func (c *Complex) writeTower(w io.Writer, levels []*Complex, rootK *levelKeys) {
	ws(w, "base{")
	levels[0].writeKeyed(w)
	ws(w, "}\n")
	k := rootK
	for _, lvl := range levels[1:] {
		k = nextLevelKeys(lvl, k)
	}
	order := make([]Vertex, len(c.verts))
	for v, r := range k.rank {
		order[r] = Vertex(v)
	}
	ws(w, "verts{")
	var num [24]byte
	var ck []Vertex // one vertex's carrier in root key order
	for i, v := range order {
		if i > 0 {
			ws(w, ";")
		}
		w.Write(k.key(v))
		ws(w, "|")
		w.Write(strconv.AppendInt(num[:0], int64(c.verts[v].color), 10))
		ws(w, "|[")
		ck = append(ck[:0], c.verts[v].carrier...)
		slices.SortFunc(ck, func(a, b Vertex) int { return cmp.Compare(rootK.rank[a], rootK.rank[b]) })
		for j, b := range ck {
			if j > 0 {
				ws(w, " ")
			}
			w.Write(rootK.key(b))
		}
		ws(w, "]")
	}
	ws(w, "}\nfacets{")
	c.writeFacets(w, k.rank, func(r int32) { w.Write(k.key(order[r])) })
	ws(w, "}")
}

// ws writes a string, ignoring errors (strings.Builder, and a bufio.Writer
// over a hash.Hash, never fail).
func ws(w io.Writer, s string) { io.WriteString(w, s) }
