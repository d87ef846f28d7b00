package topology

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// keyedCanonical is the oracle for the tower writer: the canonical string
// written from materialized keys, the path every complex took before the
// tower writer and every non-tower complex still takes.
func keyedCanonical(c *Complex) string {
	var b strings.Builder
	c.writeKeyed(&b)
	return b.String()
}

// randomRootComplex builds a random chromatic complex whose keys are words
// of length 0–3 over alphabet. With prefixFree set it drops every key
// that is a proper prefix of another before building; otherwise keys often
// share prefixes ("a", "a ", "a{").
func randomRootComplex(rng *rand.Rand, alphabet string, prefixFree bool) *Complex {
	set := map[string]bool{}
	for len(set) < 3+rng.Intn(8) {
		var b strings.Builder
		for i := rng.Intn(4); i > 0; i-- {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		set[b.String()] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if prefixFree {
		kept := keys[:0]
		for i, k := range keys {
			if i+1 < len(keys) && strings.HasPrefix(keys[i+1], k) {
				continue
			}
			kept = append(kept, k)
		}
		keys = kept
	}
	c := NewComplex()
	var byColor [3][]Vertex
	for _, k := range keys {
		col := rng.Intn(3)
		byColor[col] = append(byColor[col], c.MustAddVertex(k, col))
	}
	for f := 1 + rng.Intn(4); f > 0; f-- {
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
	for col := range byColor {
		if len(c.facets) == 0 && len(byColor[col]) > 0 {
			c.MustAddSimplex(byColor[col][0])
		}
	}
	return c.Seal()
}

// towerAlphabet holds the glue bytes of SDS keys, the bytes around them in
// byte order (' ' and '~' are the lowest and highest printable bytes) and
// one letter, so rendered keys nest glue inside glue.
const towerAlphabet = " (){}|S~a"

// checkTower compares the tower writer against the keyed oracle on the
// levels of the chain over root, restricted by keep, up to level b, and
// reports whether the top level took the tower path. On the tower path it
// also checks every level's rendered keys against the materialized ones,
// and its ranks against their byte order.
func checkTower(t *testing.T, name string, root *Complex, b int, keep FacetFilter) (tower bool) {
	t.Helper()
	c := root
	for lvl := 1; lvl <= b; lvl++ {
		next, err := Subdivide(context.Background(), c, 1, keep)
		if err != nil {
			t.Fatalf("%s: level %d: %v", name, lvl, err)
		}
		c = next
		levels, k := towerKeys(c)
		if got, want := c.CanonicalString(), keyedCanonical(c); got != want {
			t.Fatalf("%s: level %d (tower %v): canonical encodings differ\n got %q\nwant %q", name, lvl, k != nil, got, want)
		}
		if k == nil {
			continue
		}
		tower = true
		for _, x := range levels[1:] {
			k = nextLevelKeys(x, k)
		}
		byRank := make([]string, c.NumVertices())
		for v := range byRank {
			if got := string(k.key(Vertex(v))); got != c.Key(Vertex(v)) {
				t.Fatalf("%s: level %d: rendered key %q, materialized %q", name, lvl, got, c.Key(Vertex(v)))
			}
			byRank[k.rank[v]] = c.Key(Vertex(v))
		}
		if !sort.StringsAreSorted(byRank) {
			t.Fatalf("%s: level %d: rank order is not the keys' byte order", name, lvl)
		}
	}
	return tower
}

// towerKeys reports whether writeCanonical takes the tower path for c, as
// c's chain and its root's keys, or nils.
func towerKeys(c *Complex) ([]*Complex, *levelKeys) {
	levels := c.sdsTower()
	if levels == nil {
		return nil, nil
	}
	k := rootKeys(levels[0])
	if k == nil {
		return nil, nil
	}
	return levels, k
}

// sizeFilter keeps the ordered partitions whose block sizes hash, with
// the seed, to a kept bucket — an arbitrary filter reading block sizes.
func sizeFilter(seed int64) FacetFilter {
	return func(blocks []int) bool {
		h := seed
		for _, b := range blocks {
			h = h*31 + int64(b)
		}
		return h%3 != 0 || len(blocks) == 1
	}
}

// TestTowerMatchesKeyedWriter is the tower writer's differential: random
// prefix-free roots (through two levels, wait-free and restricted), random
// prefix-sharing roots, which must take the keyed path, and SDS^b(sⁿ) —
// each encoded both ways and compared byte for byte.
func TestTowerMatchesKeyedWriter(t *testing.T) {
	towers, shared := 0, 0
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := randomRootComplex(rng, towerAlphabet, true)
		if rootKeys(root) == nil {
			t.Fatalf("seed %d: generator made a prefix-sharing root", seed)
		}
		if !checkTower(t, "prefix-free", root, 2, nil) {
			t.Fatalf("seed %d: a prefix-free root took the keyed path", seed)
		}
		checkTower(t, "prefix-free restricted", root, 2, sizeFilter(seed))
		towers++

		root = randomRootComplex(rng, towerAlphabet, false)
		if rootKeys(root) != nil {
			continue
		}
		shared++
		if checkTower(t, "prefix-sharing", root, 1, nil) {
			t.Fatalf("seed %d: a prefix-sharing root took the tower path", seed)
		}
	}
	if shared < 50 {
		t.Fatalf("only %d of 150 seeds drew a prefix-sharing root", shared)
	}
	for n := 0; n <= 2; n++ {
		if !checkTower(t, "standard simplex", Simplex(n), 3-n/2, nil) {
			t.Fatalf("SDS(s%d) took the keyed path", n)
		}
	}
}

// TestTowerFallbacks pins the complexes that keep the keyed writer: an
// explicit complex, a chain through a Bsd level, the root {"P1", "P10"}
// and the aliasing case {a, "b c"} beside {a, b, c}.
func TestTowerFallbacks(t *testing.T) {
	twoRoots := NewComplex()
	twoRoots.MustAddSimplex(twoRoots.MustAddVertex("P1", 0), twoRoots.MustAddVertex("P10", 1))
	alias := NewComplex()
	a := alias.MustAddVertex("a", 0)
	alias.MustAddSimplex(a, alias.MustAddVertex("b c", 1))
	alias.MustAddSimplex(a, alias.MustAddVertex("b", 1), alias.MustAddVertex("c", 2))
	cases := map[string]*Complex{
		"explicit":            Simplex(2),
		"bsd":                 Bsd(Simplex(2)),
		"sds over bsd":        SDS(Bsd(Simplex(1))),
		"P1 P10":              SDS(twoRoots.Seal()),
		"a, b c, b, c":        SDS(alias.Seal()),
		"level under a level": SDS(SDS(Simplex(1))).prov.src,
	}
	for name, c := range cases {
		_, k := towerKeys(c)
		tower := k != nil
		if want := name == "level under a level"; tower != want {
			t.Errorf("%s: tower path %v, want %v", name, tower, want)
		}
		if got, want := c.CanonicalString(), keyedCanonical(c); got != want {
			t.Errorf("%s: canonical encodings differ", name)
		}
	}
}

// FuzzTowerEncoding extends the differential past its seeds: a random
// root over the glue alphabet, prefix-free or not, subdivided once or
// twice, wait-free or under a random size filter. Wherever the root is
// prefix-free the tower path must be taken, and both writers must agree.
func FuzzTowerEncoding(f *testing.F) {
	for _, s := range []int64{0, 1, 7, 42, 1 << 33} {
		f.Add(s, true, uint8(2), false)
		f.Add(s, false, uint8(1), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, pf bool, b uint8, restrict bool) {
		root := randomRootComplex(rand.New(rand.NewSource(seed)), towerAlphabet, pf)
		var keep FacetFilter
		if restrict {
			keep = sizeFilter(seed)
		}
		if tower, prefixFree := checkTower(t, "fuzz", root, 1+int(b%2), keep), rootKeys(root) != nil; tower != prefixFree {
			t.Fatalf("tower path %v for a root with prefix-free %v", tower, prefixFree)
		}
	})
}
