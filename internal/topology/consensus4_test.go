package topology_test

import (
	"testing"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// The Consensus(4) input complex at b = 2 is the heaviest subdivision the
// served query mix builds: 16 input facets → 1,200 → 90,000 facets over
// 15,048 vertices. It lives in the external test package because tasks
// imports topology.

// TestFacetOrderConsensus4 checks the sealed facet order of both levels
// against the oracle comparator.
func TestFacetOrderConsensus4(t *testing.T) {
	c := tasks.Consensus(4).Inputs
	for b := 1; b <= 2; b++ {
		c = topology.SDS(c)
		fs := c.Facets()
		for i := 1; i < len(fs); i++ {
			if topology.CmpFacetOrder(fs[i-1], fs[i]) >= 0 {
				t.Fatalf("b=%d: facets %d and %d out of oracle order: %v, %v", b, i-1, i, fs[i-1], fs[i])
			}
		}
	}
	if got := len(c.Facets()); got != 90_000 {
		t.Fatalf("SDS²(Consensus(4) inputs): %d facets, want 90000", got)
	}
}

// BenchmarkSDSPowConsensus4 times the heavy level alone: level 1 is built
// once, outside the loop, and each iteration subdivides it.
func BenchmarkSDSPowConsensus4(b *testing.B) {
	lvl1 := topology.SDS(tasks.Consensus(4).Inputs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topology.SDS(lvl1)
	}
}
