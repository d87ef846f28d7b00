package topology

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// cmpKeyTuples is the byte-walking facet comparator that writeCanonical
// used before it ordered facets by key rank, kept as the oracle: it
// compares two key tuples exactly as strings.Join(a, "\x1f") and
// strings.Join(b, "\x1f") would compare, byte by byte, without building
// them.
func cmpKeyTuples(a, b []string) int {
	ai, ao, bi, bo := 0, 0, 0, 0
	for {
		ca, aok := tupleByte(a, &ai, &ao)
		cb, bok := tupleByte(b, &bi, &bo)
		switch {
		case !aok && !bok:
			return 0
		case !aok:
			return -1
		case !bok:
			return 1
		}
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
}

// tupleByte yields the next byte of the virtual string
// ks[0] + "\x1f" + ks[1] + …, advancing the (token, offset) cursor.
func tupleByte(ks []string, i, o *int) (byte, bool) {
	for *i < len(ks) {
		s := ks[*i]
		if *o < len(s) {
			b := s[*o]
			*o++
			return b, true
		}
		*i++
		*o = 0
		if *i < len(ks) {
			return 0x1f, true
		}
	}
	return 0, false
}

// prefixKeyComplex builds a random chromatic complex whose keys are short
// words over " !a~": the lowest and highest printable bytes plus one in
// between, so keys are often proper prefixes of one another ("a", "a ",
// "a a") and the empty key occurs — the cases where a rank comparison and
// a byte walk over joined strings could part ways.
func prefixKeyComplex(rng *rand.Rand) *Complex {
	const alphabet = " !a~"
	c := NewComplex()
	seen := map[string]bool{}
	var byColor [3][]Vertex
	for len(seen) < 12 {
		n := rng.Intn(5)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		k := b.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		col := rng.Intn(3)
		byColor[col] = append(byColor[col], c.MustAddVertex(k, col))
	}
	for f := 0; f < 6; f++ {
		var facet []Vertex
		for col := range byColor {
			if len(byColor[col]) > 0 && rng.Intn(4) > 0 {
				facet = append(facet, byColor[col][rng.Intn(len(byColor[col]))])
			}
		}
		if len(facet) > 0 {
			c.MustAddSimplex(facet...)
		}
	}
	if len(c.facets) == 0 {
		for col := range byColor {
			if len(byColor[col]) > 0 {
				c.MustAddSimplex(byColor[col][0])
				break
			}
		}
	}
	return c.Seal()
}

// oracleFacetSection renders the facets{} section in the byte-walk order.
func oracleFacetSection(c *Complex) string {
	tuples := make([][]string, len(c.Facets()))
	for i, f := range c.Facets() {
		t := make([]string, len(f))
		for j, v := range f {
			t[j] = c.Key(v)
		}
		sort.Strings(t)
		tuples[i] = t
	}
	sort.Slice(tuples, func(i, j int) bool { return cmpKeyTuples(tuples[i], tuples[j]) < 0 })
	parts := make([]string, len(tuples))
	for i, t := range tuples {
		parts[i] = strings.Join(t, "\x1f")
	}
	return "facets{" + strings.Join(parts, ";") + "}"
}

// TestRankOrderMatchesByteWalk checks writeCanonical's rank-ordered facet
// section against the byte-walk oracle, on random complexes with
// prefix-sharing keys and on their subdivisions (whose keys nest the
// source keys), and checks the oracle against sorting the materialized
// joined strings.
func TestRankOrderMatchesByteWalk(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		c := prefixKeyComplex(rand.New(rand.NewSource(seed)))
		for lvl, x := range []*Complex{c, SDS(c)} {
			want := oracleFacetSection(x)
			got := x.CanonicalString()
			if i := strings.LastIndex(got, "facets{"); i < 0 || got[i:] != want {
				t.Fatalf("seed %d level %d: rank-ordered facets differ from the byte walk\n got %q\nwant %q", seed, lvl, got[i:], want)
			}
			joined := make([]string, len(x.Facets()))
			for i, f := range x.Facets() {
				joined[i] = x.facetKeyString(f)
			}
			sort.Strings(joined)
			if legacy := "facets{" + strings.Join(joined, ";") + "}"; legacy != want {
				t.Fatalf("seed %d level %d: byte-walk oracle differs from sorting joined strings", seed, lvl)
			}
		}
	}
}

// TestAddVertexRejectsControlBytes pins the key invariant rank ordering
// rests on: every byte below 0x20 is refused, 0x20 itself is accepted.
func TestAddVertexRejectsControlBytes(t *testing.T) {
	for _, key := range []string{"\x1f", "a\x1fb", "a\x00", "\n", "P0\t"} {
		if _, err := NewComplex().AddVertex(key, 0); err == nil {
			t.Errorf("AddVertex(%q) succeeded, want an error", key)
		}
	}
	for _, key := range []string{"", " ", "a b", "~", "S(P0|{P0 P1})", "é"} {
		if _, err := NewComplex().AddVertex(key, 0); err != nil {
			t.Errorf("AddVertex(%q): %v", key, err)
		}
	}
}
