package topology

import (
	"bufio"
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

// hashBufferSize is CanonicalHash's buffer. Every solve miss hashes its
// small input complex, which a larger buffer would make pay for the
// allocation: 64 KiB raised the cold query mix's median latency by about
// 15%.
const hashBufferSize = 4 << 10

// writeCanonical streams the canonical encoding to w. It materializes
// vertex keys (lazily, via ensureKeys) but never the per-facet joined key
// strings: facets are ordered by the ranks of their vertex keys in the
// sorted key list the verts{} section already needs. No key holds a byte
// below 0x20 (AddVertex enforces it; arena keys are built from such keys
// and printable glue), so the "\x1f" separator sorts below every key byte
// and rank order is exactly the byte order of the materialized
// "key\x1fkey…" strings.
func (c *Complex) writeCanonical(w io.Writer) {
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
	// Sorted rank tuple per facet, then facets in lexicographic rank order.
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
		t := flat[start:len(flat):len(flat)]
		slices.Sort(t)
		tuples[i] = t
	}
	slices.SortFunc(tuples, slices.Compare[[]int32])
	for i, t := range tuples {
		if i > 0 {
			ws(w, ";")
		}
		for j, r := range t {
			if j > 0 {
				ws(w, "\x1f")
			}
			ws(w, keys[r])
		}
	}
	ws(w, "}")
}

// ws writes a string, ignoring errors (strings.Builder, and a bufio.Writer
// over a hash.Hash, never fail).
func ws(w io.Writer, s string) { io.WriteString(w, s) }
