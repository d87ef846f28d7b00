package solver_test

import (
	"context"
	"fmt"
	"testing"

	"waitfree/internal/model"
	"waitfree/internal/solver"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// statsLine renders every deterministic field of a solver.Result — verdict,
// level, node count and the search's pruning telemetry — as one comparable
// line.
func statsLine(res *solver.Result) string {
	s := res.Stats
	return fmt.Sprintf("solvable=%v level=%d nodes=%d pruned=%d components=%d component_nodes=%v",
		res.Solvable, res.Level, res.Nodes, s.PrunedValues, s.Components, s.ComponentNodes)
}

// TestStructuredStatsGolden pins the search's full Result on the E6 verdict
// table, the 14-row model matrix, and consensus-4p at each level b ≤ 2.
// Verdicts alone would let a precompute change silently alter the pruning:
// PrunedValues depends on the order AC-3 revises edges, and the component
// split on the exact simplex structure the search sees. Any drift in any
// field fails here. The rows walk the chain with SearchUpTo, the search
// without the Sperner certificate that SolveUpToCtx tries first: the
// certificate answers the consensus and wait-free set-consensus rows before
// any search (TestCertifiedStatsGolden).
func TestStructuredStatsGolden(t *testing.T) {
	ctx := context.Background()
	upTo := []struct {
		name string
		task *tasks.Task
		spec model.Spec
		maxB int
		want string
	}{
		// E6 verdict table (wait-free).
		{"e6/identity-3p", tasks.IdentityTask(3), model.WaitFree(), 0,
			"solvable=true level=0 nodes=3 pruned=0 components=1 component_nodes=[3]"},
		{"e6/set-consensus-3-3", tasks.SetConsensus(3, 3), model.WaitFree(), 0,
			"solvable=true level=0 nodes=3 pruned=0 components=1 component_nodes=[3]"},
		{"e6/renaming-2p-M3", tasks.Renaming(2, 3), model.WaitFree(), 0,
			"solvable=true level=0 nodes=2 pruned=0 components=1 component_nodes=[2]"},
		{"e6/approx-agreement-1/2", tasks.ApproxAgreement(2), model.WaitFree(), 2,
			"solvable=true level=1 nodes=12 pruned=4 components=1 component_nodes=[12]"},
		{"e6/approx-agreement-1/4", tasks.ApproxAgreement(4), model.WaitFree(), 2,
			"solvable=true level=2 nodes=36 pruned=24 components=1 component_nodes=[36]"},
		{"e6/binary-consensus-2p", tasks.Consensus(2), model.WaitFree(), 3,
			"solvable=false level=3 nodes=0 pruned=53 components=0 component_nodes=[]"},
		{"e6/binary-consensus-3p", tasks.Consensus(3), model.WaitFree(), 1,
			"solvable=false level=1 nodes=0 pruned=23 components=0 component_nodes=[]"},
		{"e6/set-consensus-3-2", tasks.SetConsensus(3, 2), model.WaitFree(), 1,
			"solvable=false level=1 nodes=1299 pruned=0 components=1 component_nodes=[1299]"},
		// The model matrix (TestModelMatrix's 14 rows).
		{"matrix/consensus-3p/wait-free", tasks.Consensus(3), model.WaitFree(), 2,
			"solvable=false level=2 nodes=0 pruned=281 components=0 component_nodes=[]"},
		{"matrix/consensus-3p/1-resilient", tasks.Consensus(3), model.TResilient(1), 2,
			"solvable=false level=2 nodes=0 pruned=31 components=0 component_nodes=[]"},
		{"matrix/consensus-3p/2-concurrency", tasks.Consensus(3), model.KConcurrency(2), 2,
			"solvable=false level=2 nodes=0 pruned=266 components=0 component_nodes=[]"},
		{"matrix/set-consensus-3-2/wait-free", tasks.SetConsensus(3, 2), model.WaitFree(), 1,
			"solvable=false level=1 nodes=1299 pruned=0 components=1 component_nodes=[1299]"},
		{"matrix/set-consensus-3-2/1-resilient", tasks.SetConsensus(3, 2), model.TResilient(1), 2,
			"solvable=true level=1 nodes=6 pruned=0 components=1 component_nodes=[6]"},
		{"matrix/set-consensus-3-2/2-concurrency", tasks.SetConsensus(3, 2), model.KConcurrency(2), 2,
			"solvable=true level=1 nodes=15 pruned=0 components=1 component_nodes=[15]"},
		{"matrix/approx-1/2/wait-free", tasks.ApproxAgreement(2), model.WaitFree(), 2,
			"solvable=true level=1 nodes=12 pruned=4 components=1 component_nodes=[12]"},
		{"matrix/approx-1/2/1-resilient", tasks.ApproxAgreement(2), model.TResilient(1), 2,
			"solvable=true level=1 nodes=12 pruned=4 components=1 component_nodes=[12]"},
		{"matrix/approx-1/2/2-concurrency", tasks.ApproxAgreement(2), model.KConcurrency(2), 2,
			"solvable=true level=1 nodes=12 pruned=4 components=1 component_nodes=[12]"},
		{"matrix/consensus-2p/0-resilient", tasks.Consensus(2), model.TResilient(0), 2,
			"solvable=true level=1 nodes=8 pruned=0 components=4 component_nodes=[2 2 2 2]"},
		{"matrix/consensus-3p/0-resilient", tasks.Consensus(3), model.TResilient(0), 2,
			"solvable=true level=1 nodes=24 pruned=0 components=8 component_nodes=[3 3 3 3 3 3 3 3]"},
		{"matrix/consensus-2p/1-resilient", tasks.Consensus(2), model.TResilient(1), 2,
			"solvable=false level=2 nodes=0 pruned=17 components=0 component_nodes=[]"},
		{"matrix/consensus-2p/1-concurrency", tasks.Consensus(2), model.KConcurrency(1), 2,
			"solvable=true level=1 nodes=12 pruned=4 components=4 component_nodes=[3 3 3 3]"},
		{"matrix/consensus-3p/1-set", tasks.Consensus(3), model.KSet(1), 2,
			"solvable=true level=1 nodes=24 pruned=0 components=8 component_nodes=[3 3 3 3 3 3 3 3]"},
	}
	for _, tc := range upTo {
		opts := solver.Options{Restrict: tc.spec.Filter()}
		if !tc.spec.IsWaitFree() {
			opts.Model = tc.spec.Canonical()
		}
		res, err := solver.SearchUpTo(ctx, tc.task, tc.maxB, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := statsLine(res); got != tc.want {
			t.Errorf("%s:\n got: %s\nwant: %s", tc.name, got, tc.want)
		}
	}

	// consensus-4p level by level: b = 2 is the heavy service query, decided
	// by propagation alone.
	task := tasks.Consensus(4)
	wantC4 := []string{
		"solvable=false level=0 nodes=0 pruned=1 components=0 component_nodes=[]",
		"solvable=false level=1 nodes=0 pruned=127 components=0 component_nodes=[]",
		"solvable=false level=2 nodes=0 pruned=3920 components=0 component_nodes=[]",
	}
	sub := task.Inputs
	for b := range wantC4 {
		if b > 0 {
			sub = topology.SDS(sub)
		}
		res, err := solver.SolveAtLevelOn(ctx, task, b, sub, solver.Options{})
		if err != nil {
			t.Fatalf("consensus-4p/b=%d: %v", b, err)
		}
		if got := statsLine(res); got != wantC4[b] {
			t.Errorf("consensus-4p/b=%d:\n got: %s\nwant: %s", b, got, wantC4[b])
		}
	}
}

// TestCertifiedStatsGolden pins what SolveUpToCtx reports on the rows of
// TestStructuredStatsGolden that a certificate decides, and on the model
// matrix's rows that a path certificate decides: unsolvable
// at the deepest level asked, no search nodes and no search telemetry, and
// that level's sizes from the closed form, equal to the built level's.
func TestCertifiedStatsGolden(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		task *tasks.Task
		spec model.Spec
		maxB int
		want string
	}{
		{"e6/binary-consensus-2p", tasks.Consensus(2), model.WaitFree(), 3,
			"solvable=false level=3 nodes=0 pruned=0 components=0 component_nodes=[] vertices=108 facets=108"},
		{"e6/binary-consensus-3p", tasks.Consensus(3), model.WaitFree(), 1,
			"solvable=false level=1 nodes=0 pruned=0 components=0 component_nodes=[] vertices=54 facets=104"},
		{"e6/set-consensus-3-2", tasks.SetConsensus(3, 2), model.WaitFree(), 1,
			"solvable=false level=1 nodes=0 pruned=0 components=0 component_nodes=[] vertices=12 facets=13"},
		{"matrix/consensus-3p/wait-free", tasks.Consensus(3), model.WaitFree(), 2,
			"solvable=false level=2 nodes=0 pruned=0 components=0 component_nodes=[] vertices=678 facets=1352"},
		{"matrix/consensus-2p/1-resilient", tasks.Consensus(2), model.TResilient(1), 2,
			"solvable=false level=2 nodes=0 pruned=0 components=0 component_nodes=[] vertices=36 facets=36"},
		{"set-consensus-3-2/b=2", tasks.SetConsensus(3, 2), model.WaitFree(), 2,
			"solvable=false level=2 nodes=0 pruned=0 components=0 component_nodes=[] vertices=99 facets=169"},
		// Path certificates: the model drops an ordered partition, and
		// the level's sizes come from the restricted closed form.
		{"matrix/consensus-3p/1-resilient", tasks.Consensus(3), model.TResilient(1), 2,
			"solvable=false level=2 nodes=0 pruned=0 components=0 component_nodes=[] vertices=126 facets=128"},
		{"matrix/consensus-3p/2-concurrency", tasks.Consensus(3), model.KConcurrency(2), 2,
			"solvable=false level=2 nodes=0 pruned=0 components=0 component_nodes=[] vertices=654 facets=1152"},
		{"consensus-4p/1-resilient", tasks.Consensus(4), model.TResilient(1), 2,
			"solvable=false level=2 nodes=0 pruned=0 components=0 component_nodes=[] vertices=392 facets=400"},
	}
	for _, tc := range cases {
		opts := solver.Options{Restrict: tc.spec.Filter()}
		if !tc.spec.IsWaitFree() {
			opts.Model = tc.spec.Canonical()
		}
		res, err := solver.SolveUpToCtx(ctx, tc.task, tc.maxB, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("%s vertices=%d facets=%d", statsLine(res), res.Vertices, res.Facets)
		if got != tc.want {
			t.Errorf("%s:\n got: %s\nwant: %s", tc.name, got, tc.want)
		}
		wantKind := solver.CertificateSperner
		if !solver.KeepsAllPartitions(tc.task.Inputs, tc.spec.Filter()) {
			wantKind = solver.CertificatePath
		}
		if res.Certificate == nil || res.CertificateKind != wantKind || res.Subdivision != nil {
			t.Errorf("%s: %s certificate %v (want %s), level built: %v", tc.name, res.CertificateKind, res.Certificate, wantKind, res.Subdivision != nil)
		}
		built, err := topology.Subdivide(context.Background(), tc.task.Inputs, tc.maxB, tc.spec.Filter())
		if err != nil {
			t.Fatal(err)
		}
		if res.Vertices != built.NumVertices() || res.Facets != len(built.Facets()) {
			t.Errorf("%s: closed form %d vertices, %d facets; built level %d, %d",
				tc.name, res.Vertices, res.Facets, built.NumVertices(), len(built.Facets()))
		}
	}
}
