package engine

import (
	"fmt"
	"testing"

	"waitfree/internal/topology"
)

// identical asserts a rebuilt complex is vertex-for-vertex identical to the
// original: numbering, keys, colors, carriers, facets, f-vector.
func identical(t *testing.T, want, got *topology.Complex) {
	t.Helper()
	if !want.Equal(got) {
		t.Fatal("decoded complex not Equal to original")
	}
	if want.NumVertices() != got.NumVertices() {
		t.Fatalf("vertices: %d vs %d", want.NumVertices(), got.NumVertices())
	}
	for v := 0; v < want.NumVertices(); v++ {
		wv := topology.Vertex(v)
		if want.Key(wv) != got.Key(wv) || want.Color(wv) != got.Color(wv) {
			t.Fatalf("vertex %d: (%q,%d) vs (%q,%d)", v, want.Key(wv), want.Color(wv), got.Key(wv), got.Color(wv))
		}
		if fmt.Sprint(want.Carrier(wv)) != fmt.Sprint(got.Carrier(wv)) {
			t.Fatalf("vertex %d carrier: %v vs %v", v, want.Carrier(wv), got.Carrier(wv))
		}
	}
	if fmt.Sprint(want.FVector()) != fmt.Sprint(got.FVector()) {
		t.Fatalf("f-vector: %v vs %v", want.FVector(), got.FVector())
	}
	if want.CanonicalString() != got.CanonicalString() {
		t.Fatal("canonical strings differ")
	}
}

func TestComplexCodecRoundTrip(t *testing.T) {
	cases := map[string]*topology.Complex{
		"s2":       topology.Simplex(2),
		"SDS(s1)":  topology.SDS(topology.Simplex(1)),
		"SDS2(s1)": topology.SDSPow(topology.Simplex(1), 2),
		"SDS(s2)":  topology.SDS(topology.Simplex(2)),
	}
	for name, c := range cases {
		t.Run(name+"/gob", func(t *testing.T) {
			data, err := EncodeComplexGob(c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeComplexGob(data)
			if err != nil {
				t.Fatal(err)
			}
			identical(t, c, got)
		})
	}
}

// TestCacheKeyDiscipline pins the content-address contract: equal canonical
// encodings hash equal; different specs, levels, or complexes hash apart.
func TestCacheKeyDiscipline(t *testing.T) {
	a := TaskSpec{Family: "consensus", Procs: 2}
	b := TaskSpec{Family: "consensus", Procs: 2}
	if a.Canonical() != b.Canonical() || a.Hash() != b.Hash() {
		t.Fatal("equal specs must hash equal")
	}
	// Irrelevant parameters are normalized out of the encoding.
	withNoise := TaskSpec{Family: "consensus", Procs: 2, K: 7, D: 9, M: 3}
	if withNoise.Hash() != a.Hash() {
		t.Fatal("irrelevant parameters must not change the hash")
	}
	if (TaskSpec{Family: "consensus", Procs: 3}).Hash() == a.Hash() {
		t.Fatal("different procs must hash apart")
	}
	if (TaskSpec{Family: "set-consensus", Procs: 3, K: 2}).Hash() == (TaskSpec{Family: "set-consensus", Procs: 3, K: 3}).Hash() {
		t.Fatal("different k must hash apart")
	}

	s1 := topology.Simplex(1)
	if hashString(s1.CanonicalString()) != hashString(topology.Simplex(1).CanonicalString()) {
		t.Fatal("equal complexes must hash equal")
	}
	if hashString(topology.SDS(s1).CanonicalString()) == hashString(topology.SDSPow(s1, 2).CanonicalString()) {
		t.Fatal("different subdivision levels must hash apart")
	}

	if (SolveRequest{Spec: a, MaxLevel: 1}).Key() == (SolveRequest{Spec: a, MaxLevel: 2}).Key() {
		t.Fatal("different max levels must key apart")
	}
}

// TestDecodeRejectsControlByteKeys: the gob DTO decoder, which reads spill
// files and peer artifacts, builds through AddVertex, so a vertex key
// holding a byte below 0x20 — which would break the rank order of the
// canonical encoding — is a decode failure.
func TestDecodeRejectsControlByteKeys(t *testing.T) {
	for _, key := range []string{"P0\x1fP1", "\x00", "P\n"} {
		data, err := gobEncode(&ComplexDTO{Verts: []VertexDTO{{Key: key, Color: 0}}, Facets: [][]int{{0}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeComplexGob(data); err == nil {
			t.Errorf("DecodeComplexGob accepted vertex key %q", key)
		}
	}
}
