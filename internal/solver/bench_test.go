package solver

import (
	"context"
	"testing"

	"waitfree/internal/model"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// The solver benchmarks report a custom nodes/op metric alongside ns/op.
// Node counts are fully deterministic (pinned by the differential and
// determinism tests), so cmd/benchguard gates them EXACTLY: any increase in
// nodes/op is a pruning regression, caught even when ns/op noise would hide
// it. The subdivision is built once outside the loop — these benchmarks
// measure the search, not SDS construction — and so is its incidence index,
// which the level keeps once its first solve builds it (Faces), so every
// timed iteration does the same work.

func benchSolve(b *testing.B, task *tasks.Task, level int, solve func(context.Context, *tasks.Task, int, *topology.Complex) (*Result, error)) {
	b.Helper()
	sub := topology.SDSPow(task.Inputs, level)
	sub.Faces(1) // builds the incidence index the level keeps
	ctx := context.Background()
	var nodes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solve(ctx, task, level, sub)
		if err != nil {
			b.Fatal(err)
		}
		nodes = res.Nodes
	}
	b.ReportMetric(float64(nodes), "nodes/op")
}

// solveDefault is the production search with default options.
func solveDefault(ctx context.Context, task *tasks.Task, level int, sub *topology.Complex) (*Result, error) {
	return SolveAtLevelOn(ctx, task, level, sub, Options{})
}

// BenchmarkSolverStructuredSetConsensus: the hardest level both the search
// and the oracle finish — set agreement's binding constraints are
// 2-dimensional, so forward checking explores the same 1299 nodes as the
// oracle. This pins the node count of the real search path.
func BenchmarkSolverStructuredSetConsensus(b *testing.B) {
	benchSolve(b, tasks.SetConsensus(3, 2), 1, solveDefault)
}

// BenchmarkSolverExhaustiveSetConsensus keeps the oracle measured so a speed
// regression in either search is attributable.
func BenchmarkSolverExhaustiveSetConsensus(b *testing.B) {
	benchSolve(b, tasks.SetConsensus(3, 2), 1, solveExhaustive)
}

// BenchmarkSolverStructuredConsensusDeep: binary consensus at the deepest E6
// level. Propagation alone decides it — nodes/op must stay exactly 0; any
// nonzero value means AC-3 stopped closing the consensus family.
func BenchmarkSolverStructuredConsensusDeep(b *testing.B) {
	benchSolve(b, tasks.Consensus(2), 3, solveDefault)
}

// BenchmarkSolverExhaustiveConsensusDeep: the same instance under the
// oracle's 68-node search — the before/after pair documented in
// EXPERIMENTS.md E23.
func BenchmarkSolverExhaustiveConsensusDeep(b *testing.B) {
	benchSolve(b, tasks.Consensus(2), 3, solveExhaustive)
}

// BenchmarkSolverStructuredApproxAgreement: a solvable instance where the
// search still branches (36 nodes vs the oracle's 85) — exercises
// propagation, decomposition, and forward checking together on the
// success path.
func BenchmarkSolverStructuredApproxAgreement(b *testing.B) {
	benchSolve(b, tasks.ApproxAgreement(4), 2, solveDefault)
}

// BenchmarkSolverStructuredConsensus4: the service's heavy query, binary
// consensus for 4 processes at level 2 (90,000 facets). Propagation alone
// decides it, so nodes/op must stay exactly 0 and ns/op is pure precompute:
// the edge enumeration, carrier interning and support tables AC-3 reads.
func BenchmarkSolverStructuredConsensus4(b *testing.B) {
	benchSolve(b, tasks.Consensus(4), 2, solveDefault)
}

// BenchmarkSolverTResilient: the restricted-subdivision search path —
// 2-set consensus on R²(I) under 1-resilience, the solvable t < k instance
// of the model matrix. The restriction is built once outside the loop, so
// this measures the search over a restricted complex; its node count is
// deterministic and gated exactly like the wait-free benchmarks.
func BenchmarkSolverTResilient(b *testing.B) {
	task := tasks.SetConsensus(3, 2)
	sub, err := topology.Subdivide(context.Background(), task.Inputs, 2, model.TResilient(1).Filter())
	if err != nil {
		b.Fatal(err)
	}
	sub.Faces(1) // builds the incidence index the level keeps
	ctx := context.Background()
	var nodes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveAtLevelOn(ctx, task, 2, sub, Options{Model: "1-resilient"})
		if err != nil {
			b.Fatal(err)
		}
		nodes = res.Nodes
	}
	b.ReportMetric(float64(nodes), "nodes/op")
}
