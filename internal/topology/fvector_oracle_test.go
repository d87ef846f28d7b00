package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// allSimplicesOracle is the listing oracle: every simplex by definition,
// each non-empty subset of each facet, deduplicated through a map of packed
// vertex lists and sorted per dimension. It shares nothing with Faces but
// the sealed facets.
func allSimplicesOracle(c *Complex) [][][]Vertex {
	seen := make(map[string]struct{})
	byDim := make([][][]Vertex, c.Dimension()+1)
	var (
		buf []byte
		s   []Vertex
	)
	for _, f := range c.Facets() {
		for mask := 1; mask < 1<<len(f); mask++ {
			s = s[:0]
			for i, v := range f {
				if mask&(1<<i) != 0 {
					s = append(s, v)
				}
			}
			buf = EncodeVerts(buf[:0], s)
			if _, ok := seen[string(buf)]; ok {
				continue
			}
			seen[string(buf)] = struct{}{}
			byDim[len(s)-1] = append(byDim[len(s)-1], slices.Clone(s))
		}
	}
	for _, ss := range byDim {
		slices.SortFunc(ss, slices.Compare[[]Vertex])
	}
	return byDim
}

// fvectorOracle is the f-vector by definition: the length of each
// dimension's list in the listing oracle.
func fvectorOracle(c *Complex) []int {
	all := allSimplicesOracle(c)
	f := make([]int, len(all))
	for d, ss := range all {
		f[d] = len(ss)
	}
	return f
}

// checkFVector compares FVector, and Faces(k) element for element for every
// k from 0 to one past the dimension, with the listing oracle.
func checkFVector(t *testing.T, name string, c *Complex) {
	t.Helper()
	all := allSimplicesOracle(c)
	want := make([]int, len(all))
	for d, ss := range all {
		want[d] = len(ss)
	}
	if got := c.FVector(); !slices.Equal(got, want) {
		t.Errorf("%s: FVector %v, oracle %v", name, got, want)
	}
	for k := 0; k <= len(all)+1; k++ {
		var wantFaces [][]Vertex
		if k >= 1 && k <= len(all) {
			wantFaces = all[k-1]
		}
		got := c.Faces(k)
		if len(got) != len(wantFaces) {
			t.Errorf("%s: Faces(%d) lists %d faces, oracle %d", name, k, len(got), len(wantFaces))
			continue
		}
		for i := range got {
			if !slices.Equal(got[i], wantFaces[i]) {
				t.Errorf("%s: Faces(%d)[%d] is %v, oracle %v", name, k, i, got[i], wantFaces[i])
				break
			}
		}
	}
}

// simplexKey canonically encodes a sorted vertex slice.
func simplexKey(s []Vertex) string {
	var b strings.Builder
	for i, v := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// TestGoldenFVector checks FVector and Faces against the listing oracle on
// every level of the Lemma 3.3 golden table. SDS³(s³) runs behind GOLDEN_FULL
// and is checked against the closed form instead: its simplices, listed,
// would hold millions of map entries.
func TestGoldenFVector(t *testing.T) {
	for _, g := range sdsGolden {
		if g.n == 3 && g.b == 3 {
			if !goldenFull() {
				t.Log("skipping (n=3, b=3): set GOLDEN_FULL=1 to include the 421875-facet level")
				continue
			}
			want, err := SDSFVector(Simplex(3).FVector(), 3)
			if err != nil {
				t.Fatal(err)
			}
			if got := SDSPow(Simplex(3), 3).FVector(); !slices.Equal(got, want) {
				t.Errorf("SDS^3(s3): FVector %v, closed form %v", got, want)
			}
			continue
		}
		checkFVector(t, "golden level", SDSPow(Simplex(g.n), g.b))
	}
}

// TestFVectorMatchesOracle covers what the golden levels do not: several
// facets sharing faces (random chromatic complexes and their subdivisions),
// facets of different sizes, restricted levels, Bsd and the empty complex.
func TestFVectorMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		c := RandomChromaticComplex(rand.New(rand.NewSource(seed)))
		checkFVector(t, "random", c)
		s := SDS(c)
		checkFVector(t, "SDS(random)", s)
		checkFVector(t, "SDS²(random)", SDS(s))
		checkFVector(t, "Bsd(random)", Bsd(c))
		// Keep facets whose last block holds at least two processes (the
		// 1-resilient shape); a level of single-vertex facets keeps none.
		if r, err := RestrictSDS(s, func(blocks []int) bool { return blocks[len(blocks)-1] >= 2 }); err == nil {
			checkFVector(t, "restricted", r)
			checkFVector(t, "SDS(restricted)", SDS(r))
		}
	}

	impure := NewComplex()
	a := impure.MustAddVertex("a", 0)
	b := impure.MustAddVertex("b", 1)
	d := impure.MustAddVertex("d", 2)
	e := impure.MustAddVertex("e", 0)
	impure.MustAddVertex("x", 3) // in no facet, so no simplex
	impure.MustAddSimplex(a, b, d)
	impure.MustAddSimplex(b, e)
	impure.MustAddSimplex(d, e)
	impure.MustAddSimplex(a)
	impure.Seal()
	if got, want := impure.FVector(), []int{4, 5, 1}; !slices.Equal(got, want) {
		t.Errorf("impure: FVector %v, want %v", got, want)
	}
	checkFVector(t, "impure", impure)
	checkFVector(t, "SDS(impure)", SDS(impure))

	empty := NewComplex().Seal()
	if got := empty.FVector(); got == nil || len(got) != 0 {
		t.Errorf("empty: FVector %#v, want an empty non-nil slice", got)
	}
	checkFVector(t, "empty", empty)
}

// FuzzFVector builds a complex from arbitrary bytes — up to 8 vertices,
// facets of one to five of them, shared faces, duplicates and absorbed
// faces included — and checks FVector and Faces against the listing oracle
// on the complex and on its subdivision when it is chromatic.
func FuzzFVector(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 2, 1, 3})
	f.Add([]byte{5, 0, 1, 2, 3, 4, 4, 4, 5, 6, 7})
	f.Add([]byte{1, 0, 1, 1, 2, 0, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewComplex()
		verts := make([]Vertex, 8)
		for i := range verts {
			verts[i] = c.MustAddVertex(string(rune('a'+i)), i%4)
		}
		for len(data) > 0 {
			size := 1 + int(data[0])%5
			data = data[1:]
			var facet []Vertex
			for j := 0; j < size && len(data) > 0; j++ {
				v := verts[int(data[0])%len(verts)]
				data = data[1:]
				if !slices.Contains(facet, v) {
					facet = append(facet, v)
				}
			}
			if len(facet) > 0 {
				c.MustAddSimplex(facet...)
			}
		}
		c.Seal()
		checkFVector(t, "fuzzed", c)
		if c.IsChromatic() && c.Dimension() >= 0 {
			checkFVector(t, "SDS(fuzzed)", SDS(c))
		}
	})
}

// TestFVectorConcurrentReaders runs FVector, HasSimplex, CanonicalHash and
// RestrictSDS at once on one fresh level, as concurrent queries do on a
// cached one: the first two race to build the lazy incidence index, and
// the compaction reads colors and carriers while keys materialize. Under
// -race it pins that sharing; the assertions pin agreement with an equal
// level read by one goroutine.
func TestFVectorConcurrentReaders(t *testing.T) {
	base := SDS(Simplex(2))
	keep := func(blocks []int) bool { return blocks[len(blocks)-1] >= 2 }
	ref := SDS(base)
	wantF := fvectorOracle(ref)
	wantHash := ref.CanonicalHash()
	r, err := restrictSDSRebuild(ref, keep)
	if err != nil {
		t.Fatal(err)
	}
	wantRestricted := r.CanonicalString()
	for trial := 0; trial < 4; trial++ {
		s := SDS(base) // fresh: no incidence, no keys
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g {
				case 0:
					if !slices.Equal(s.FVector(), wantF) {
						errs <- "FVector mismatch"
					}
				case 1:
					for _, f := range s.Facets() {
						if !s.HasSimplex(f[:2]) {
							errs <- "HasSimplex missed an edge"
							return
						}
					}
				case 2:
					if s.CanonicalHash() != wantHash {
						errs <- "CanonicalHash mismatch"
					}
				case 3:
					r, err := RestrictSDS(s, keep)
					if err != nil || r.CanonicalString() != wantRestricted {
						errs <- "RestrictSDS mismatch"
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}
