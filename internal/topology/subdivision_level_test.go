package topology

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// complexesIdentical asserts the two complexes are bit-identical builds:
// same vertex table in the same order (key, color, carrier), same facet
// lists in the same order. Stronger than Equal, which ignores numbering.
func complexesIdentical(t *testing.T, seq, par *Complex) {
	t.Helper()
	if seq.NumVertices() != par.NumVertices() {
		t.Fatalf("vertex count: seq %d, par %d", seq.NumVertices(), par.NumVertices())
	}
	for v := 0; v < seq.NumVertices(); v++ {
		sv, pv := Vertex(v), Vertex(v)
		if seq.Key(sv) != par.Key(pv) {
			t.Fatalf("vertex %d: key %q vs %q", v, seq.Key(sv), par.Key(pv))
		}
		if seq.Color(sv) != par.Color(pv) {
			t.Fatalf("vertex %d: color %d vs %d", v, seq.Color(sv), par.Color(pv))
		}
		sc, pc := seq.Carrier(sv), par.Carrier(pv)
		if fmt.Sprint(sc) != fmt.Sprint(pc) {
			t.Fatalf("vertex %d: carrier %v vs %v", v, sc, pc)
		}
	}
	sf, pf := seq.Facets(), par.Facets()
	if len(sf) != len(pf) {
		t.Fatalf("facet count: seq %d, par %d", len(sf), len(pf))
	}
	for i := range sf {
		if fmt.Sprint(sf[i]) != fmt.Sprint(pf[i]) {
			t.Fatalf("facet %d: %v vs %v", i, sf[i], pf[i])
		}
	}
}

// sdsPowParallelCtx iterates the deprecated SDSParallelCtx wrapper, the
// entry point cmd/wfbench's direct phase calls.
func sdsPowParallelCtx(t testing.TB, c *Complex, b, workers int) *Complex {
	t.Helper()
	for i := 0; i < b; i++ {
		next, err := SDSParallelCtx(context.Background(), c, workers)
		if err != nil {
			t.Fatal(err)
		}
		c = next
	}
	return c
}

// TestSDSParallelMatchesSequential pins the deprecated SDSParallelCtx
// wrapper to SDSPow: vertex-for-vertex, facet-for-facet and canonically
// identical for all n ≤ 2 procs and b ≤ 3, whatever worker count a caller
// still passes.
func TestSDSParallelMatchesSequential(t *testing.T) {
	for n := 0; n <= 2; n++ {
		for b := 0; b <= 3; b++ {
			t.Run(fmt.Sprintf("n=%d/b=%d", n, b), func(t *testing.T) {
				seq := SDSPow(Simplex(n), b)
				par := sdsPowParallelCtx(t, Simplex(n), b, 2)
				complexesIdentical(t, seq, par)
				if seq.CanonicalString() != par.CanonicalString() {
					t.Fatal("canonical strings differ")
				}
			})
		}
	}
}

// TestSDSStructuredMatchesLegacy checks the (u, S) construction structure
// the arena builder keeps in its provenance against the string-keyed
// oracle's.
func TestSDSStructuredMatchesLegacy(t *testing.T) {
	c := SDS(Simplex(2))
	got := SDS(c)
	want, wantU, wantS := legacySDSStructured(c)
	complexesIdentical(t, want, got)
	gotU, gotS := levelStructure(got)
	if len(gotU) != len(wantU) || len(gotS) != len(wantS) {
		t.Fatalf("U/S length: %d/%d vs %d/%d", len(gotU), len(gotS), len(wantU), len(wantS))
	}
	for i := range wantU {
		if gotU[i] != wantU[i] {
			t.Fatalf("U[%d]: %v vs %v", i, gotU[i], wantU[i])
		}
		if fmt.Sprint(gotS[i]) != fmt.Sprint(wantS[i]) {
			t.Fatalf("S[%d]: %v vs %v", i, gotS[i], wantS[i])
		}
	}
}

// TestSDSParallelOnTaskLikeComplex exercises gluing across facets (shared
// faces) on a complex with several facets sharing vertices, like the
// consensus input complex.
func TestSDSParallelOnTaskLikeComplex(t *testing.T) {
	c := NewComplex()
	var vs []Vertex
	for p := 0; p < 2; p++ {
		for _, val := range []string{"0", "1"} {
			vs = append(vs, c.MustAddVertex("P"+strconv.Itoa(p)+"="+val, p))
		}
	}
	for i := 0; i < 2; i++ {
		for j := 2; j < 4; j++ {
			c.MustAddSimplex(vs[i], vs[j])
		}
	}
	c.Seal()
	for b := 1; b <= 3; b++ {
		complexesIdentical(t, legacySDSPow(c, b), sdsPowParallelCtx(t, c, b, 3))
	}
}

// TestHasSimplexOnSubdivisionConcurrent pins the lazy incidence index of a
// trusted-sealed level: the seal leaves it unbuilt, and goroutines racing to
// the first HasSimplex share one index that agrees with the closure.
func TestHasSimplexOnSubdivisionConcurrent(t *testing.T) {
	c := SDSPow(Simplex(2), 2)
	if c.incidence != nil {
		t.Fatal("sealTrusted built the incidence index eagerly")
	}
	inClosure := make(map[string]bool)
	for _, byDim := range allSimplicesOracle(c) {
		for _, s := range byDim {
			inClosure[simplexKey(s)] = true
		}
	}
	n := c.NumVertices()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					s := []Vertex{Vertex(a), Vertex(b)}
					if got, want := c.HasSimplex(s), inClosure[simplexKey(s)]; got != want {
						t.Errorf("HasSimplex(%v) = %v, closure says %v", s, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestCountOrderedPartitionsOverflow(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("overflow boundary pinned for 64-bit int")
	}
	// a(18) is the last Fubini number that fits in int64.
	if MaxOrderedPartitionsN != 18 {
		t.Fatalf("MaxOrderedPartitionsN = %d, want 18", MaxOrderedPartitionsN)
	}
	// Out-of-range n is refused before the recurrence's n+1-entry table is
	// allocated: a hostile n = 2e9 would otherwise ask for 16 GB.
	for _, n := range []int{-1, 19, 2_000_000_000} {
		if _, err := CountOrderedPartitionsChecked(n); err == nil {
			t.Fatalf("CountOrderedPartitionsChecked(%d) should be refused", n)
		}
	}
	got, err := CountOrderedPartitionsChecked(18)
	if err != nil {
		t.Fatalf("CountOrderedPartitionsChecked(18): %v", err)
	}
	if want := int(3385534663256845323); got != want {
		t.Fatalf("a(18) = %d, want %d", got, want)
	}
	// a(19) ≈ 9.28e19 is the first overflowing n: explicit error, not a wrap.
	if _, err := CountOrderedPartitionsChecked(19); err == nil {
		t.Fatal("CountOrderedPartitionsChecked(19) should overflow")
	} else if !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("overflow error should say so: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CountOrderedPartitions(19) should panic on overflow")
		}
		if !strings.Contains(fmt.Sprint(r), "overflow") {
			t.Fatalf("panic message should mention overflow: %v", r)
		}
	}()
	CountOrderedPartitions(19)
}

func TestBinomialCheckedOverflow(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("overflow boundary pinned for 64-bit int")
	}
	if v, err := binomialChecked(60, 30); err != nil || v != 118264581564861424 {
		t.Fatalf("C(60,30) = %d, %v; want 118264581564861424", v, err)
	}
	if _, err := binomialChecked(66, 33); err == nil {
		t.Fatal("C(66,33) should overflow int64")
	}
}

func TestCanonicalStringDistinguishes(t *testing.T) {
	a := Simplex(2)
	b := Simplex(2)
	if a.CanonicalString() != b.CanonicalString() {
		t.Fatal("equal complexes must have equal canonical strings")
	}
	if a.CanonicalString() == Simplex(1).CanonicalString() {
		t.Fatal("different complexes must differ")
	}
	if SDS(a).CanonicalString() == SDSPow(a, 2).CanonicalString() {
		t.Fatal("different subdivision levels must differ")
	}
}

// The SDSPow benchmarks are gated by cmd/benchguard against
// BENCH_engine.json. The *Parallel pair predates the single builder and
// keeps its baseline lines by timing the deprecated SDSParallelCtx wrapper
// level by level; the (3,3) pair exercises the 421875-facet level from the
// golden table. The SDS³(s²) pair runs one untimed construction first:
// without it the process's one-time set-up lands in the timed loop, and at
// 20 iterations it moves the exactly gated allocs/op by one from run to run.

func BenchmarkSDSPowSequential(b *testing.B) {
	base := Simplex(2)
	SDSPow(base, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SDSPow(base, 3)
	}
}

func BenchmarkSDSPowParallel(b *testing.B) {
	base := Simplex(2)
	sdsPowParallelCtx(b, base, 3, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sdsPowParallelCtx(b, base, 3, 0)
	}
}

func BenchmarkSDSPow33Sequential(b *testing.B) {
	base := Simplex(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SDSPow(base, 3)
	}
}

func BenchmarkSDSPow33Parallel(b *testing.B) {
	base := Simplex(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sdsPowParallelCtx(b, base, 3, 0)
	}
}
