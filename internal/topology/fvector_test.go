package topology

import (
	"math/rand"
	"slices"
	"testing"
)

// interiorFromBuilt counts, in a built SDS(s^k), the j-simplices whose
// carrier is all of s^k: the definition of M[k][j], read off the complex
// instead of the formula.
func interiorFromBuilt(k int) []int {
	sub := SDS(Simplex(k))
	row := make([]int, k+1)
	for j, simplices := range sub.AllSimplices() {
		for _, s := range simplices {
			if len(sub.CarrierOfSimplex(s)) == k+1 {
				row[j]++
			}
		}
	}
	return row
}

// TestSDSClosedFormMatrix derives M from built SDS(s^k), k ≤ 3, and
// compares it with the closed form's literal rows.
func TestSDSClosedFormMatrix(t *testing.T) {
	for k := 0; k <= 3; k++ {
		if built := interiorFromBuilt(k); !slices.Equal(built, sdsInterior[k]) {
			t.Errorf("built SDS(s%d): interior counts %v, closed form %v", k, built, sdsInterior[k])
		}
	}
}

// TestGoldenSDSClosedForm checks the closed form against every level of the
// Lemma 3.3 golden table, and against the full f-vector of each built level
// except SDS³(s³) (421,875 facets, whose vertex and facet counts the table
// pins).
func TestGoldenSDSClosedForm(t *testing.T) {
	for _, g := range sdsGolden {
		base := Simplex(g.n)
		v, f, err := SDSLevelSize(base, g.b)
		if err != nil {
			t.Fatalf("SDSLevelSize(s%d, %d): %v", g.n, g.b, err)
		}
		if v != g.vertices || f != g.facets {
			t.Errorf("SDS^%d(s%d): closed form %d vertices, %d facets; golden %d, %d", g.b, g.n, v, f, g.vertices, g.facets)
		}
		if g.n == 3 && g.b == 3 {
			continue
		}
		fv, err := SDSFVector(base.FVector(), g.b)
		if err != nil {
			t.Fatal(err)
		}
		if built := SDSPow(base, g.b).FVector(); !slices.Equal(fv, built) {
			t.Errorf("SDS^%d(s%d): closed-form f-vector %v, built %v", g.b, g.n, fv, built)
		}
	}
}

// TestSDSClosedFormOnMultiFacetComplexes checks the closed form where
// facets share faces: random chromatic complexes (non-pure among them) at
// b ≤ 2.
func TestSDSClosedFormOnMultiFacetComplexes(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		c := RandomChromaticComplex(rand.New(rand.NewSource(seed)))
		level := c
		for b := 0; b <= 2; b++ {
			if b > 0 {
				level = SDS(level)
			}
			fv, err := SDSFVector(c.FVector(), b)
			if err != nil {
				t.Fatal(err)
			}
			if built := level.FVector(); !slices.Equal(fv, built) {
				t.Fatalf("b=%d: closed-form f-vector %v, built %v", b, fv, built)
			}
			v, f, err := SDSLevelSize(c, b)
			if err != nil || v != level.NumVertices() || f != len(level.Facets()) {
				t.Fatalf("b=%d: SDSLevelSize = (%d, %d, %v), built (%d, %d)", b, v, f, err, level.NumVertices(), len(level.Facets()))
			}
		}
	}
}

// TestSDSFVectorGuards pins the error paths: overflow is reported, not
// wrapped, and dimension-0 complexes are fixed points at any level.
func TestSDSFVectorGuards(t *testing.T) {
	if _, err := SDSFVector([]int{4, 6, 4, 1}, 40); err == nil {
		t.Error("SDSFVector(s³, 40) should overflow")
	}
	if fv, err := SDSFVector([]int{3}, 1<<40); err != nil || !slices.Equal(fv, []int{3}) {
		t.Errorf("SDSFVector([3], 2^40) = %v, %v; want [3]", fv, err)
	}
	if _, err := SDSFVector([]int{5, 10, 10, 5, 1}, 1); err == nil {
		t.Error("SDSFVector of a 4-dimensional complex should fail")
	}
	if _, err := SDSFVector([]int{1}, -1); err == nil {
		t.Error("negative level should fail")
	}
}
