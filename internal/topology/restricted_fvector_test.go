package topology_test

import (
	"context"
	"slices"
	"testing"

	"waitfree/internal/model"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// TestRestrictedClosedForm checks f(R^b(I)) = M^b·f(I) against built
// levels: for every model valid at m processes, m ≤ 4, over the standard
// simplex and the consensus input complex (pure, with 2^m facets sharing
// faces), at b ≤ 2 (b ≤ 1 for consensus-4p's 90,000-facet level). Vertex
// and facet counts are f₀ and f_{m−1}; with a nil filter the closed form
// is SDSFVector's.
func TestRestrictedClosedForm(t *testing.T) {
	ctx := context.Background()
	for m := 1; m <= 4; m++ {
		specs := []model.Spec{model.WaitFree()}
		for p := 0; p < m; p++ {
			specs = append(specs, model.TResilient(p))
		}
		for k := 1; k <= m; k++ {
			specs = append(specs, model.KConcurrency(k), model.KSet(k))
		}
		for _, spec := range specs {
			round, err := topology.Subdivide(ctx, topology.Simplex(m-1), 1, spec.Filter())
			if err != nil {
				t.Fatal(err)
			}
			for _, input := range []struct {
				name string
				c    *topology.Complex
				maxB int
			}{
				{"simplex", topology.Simplex(m - 1), 2},
				{"consensus", tasks.Consensus(m).Inputs, 2 - m/4},
			} {
				level := input.c
				for b := 0; b <= input.maxB; b++ {
					if b > 0 {
						if level, err = topology.Subdivide(ctx, level, 1, spec.Filter()); err != nil {
							t.Fatal(err)
						}
					}
					f, err := topology.RestrictedFVector(input.c.FVector(), round, b)
					if err != nil {
						t.Fatalf("m=%d %s %s b=%d: %v", m, spec.Canonical(), input.name, b, err)
					}
					built := level.FVector()
					if !slices.Equal(f, built) || f[0] != level.NumVertices() || f[m-1] != len(level.Facets()) {
						t.Errorf("m=%d %s %s b=%d: closed form %v, built %v (%d vertices, %d facets)",
							m, spec.Canonical(), input.name, b, f, built, level.NumVertices(), len(level.Facets()))
					}
					if spec.IsWaitFree() {
						if sds, err := topology.SDSFVector(input.c.FVector(), b); err != nil || !slices.Equal(f, sds) {
							t.Errorf("m=%d %s b=%d: restricted closed form %v, SDSFVector %v", m, input.name, b, f, sds)
						}
					}
				}
			}
		}
	}
}

// TestRestrictedFVectorGuards: a round over the wrong simplex, a
// dimension past the closed form and a negative level are errors.
func TestRestrictedFVectorGuards(t *testing.T) {
	round := topology.SDS(topology.Simplex(2))
	for _, tc := range []struct {
		f []int
		b int
	}{
		{[]int{2, 1}, 1},            // round over s², complex of dimension 1
		{[]int{5, 10, 10, 5, 1}, 1}, // dimension 4
		{[]int{3, 3, 1}, -1},        // negative level
	} {
		if _, err := topology.RestrictedFVector(tc.f, round, tc.b); err == nil {
			t.Errorf("RestrictedFVector(%v, SDS(s²), %d) succeeded", tc.f, tc.b)
		}
	}
	if _, err := topology.RestrictedFVector([]int{3, 3, 1}, topology.Simplex(2), 1); err == nil {
		t.Error("RestrictedFVector over an explicit complex succeeded")
	}
}
