package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// TestSubdivisionErrorNotMisclassified is the regression test for the PR-8
// error-misclassification bug: SolveUpToCtx used to wrap EVERY subdivision
// failure as ErrCanceled, so a genuine construction failure surfaced to the
// serving layer as a client disconnect (HTTP 499) instead of a server error
// (500). A poisoned subdivision step under a live context must surface as
// itself; under a dead context it must still read as cancellation. The task
// is approximate agreement at d = 4, which has no Sperner certificate and
// no map at level 0, so SolveUpToCtx must subdivide to reach level 1.
func TestSubdivisionErrorNotMisclassified(t *testing.T) {
	defer func() { subdivide = topology.Subdivide }()

	boom := errors.New("subdivision exploded")
	subdivide = func(ctx context.Context, c *topology.Complex, b int, keep topology.FacetFilter) (*topology.Complex, error) {
		return nil, boom
	}

	// Live context: the failure is not a cancellation and must not claim to
	// be one.
	_, err := SolveUpToCtx(context.Background(), tasks.ApproxAgreement(4), 2, Options{})
	if err == nil {
		t.Fatal("poisoned subdivision returned no error")
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("non-cancellation subdivision failure misclassified as ErrCanceled: %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("underlying failure not preserved: %v", err)
	}
	if !strings.Contains(err.Error(), "subdivision to level 1") {
		t.Errorf("error %q does not name the failing level", err)
	}

	// Dead context: a subdivision aborted because the caller went away is a
	// cancellation, exactly as before the fix.
	ctx, cancel := context.WithCancel(context.Background())
	subdivide = func(sctx context.Context, c *topology.Complex, b int, keep topology.FacetFilter) (*topology.Complex, error) {
		cancel()
		return nil, sctx.Err()
	}
	if _, err := SolveUpToCtx(ctx, tasks.ApproxAgreement(4), 2, Options{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled subdivision: got %v, want ErrCanceled", err)
	}
}

// TestChainTotals: SolveUpToCtx's Result.Chain sums the per-level search
// telemetry of every level it searched — the level that found a map or ran
// out of budget included — is zero for a certified result, and when a
// subdivision step fails the returned level carries the totals so far.
func TestChainTotals(t *testing.T) {
	ctx := context.Background()
	perLevel := func(task *tasks.Task, upTo int, opts Options) (nodes, pruned int64, components int) {
		for b := 0; b <= upTo; b++ {
			res, _ := SolveAtLevelOn(ctx, task, b, topology.SDSPow(task.Inputs, b), opts)
			nodes, pruned, components = nodes+res.Nodes, pruned+res.Stats.PrunedValues, components+res.Stats.Components
		}
		return nodes, pruned, components
	}
	check := func(name string, res *Result, task *tasks.Task, upTo int, opts Options) {
		t.Helper()
		nodes, pruned, components := perLevel(task, upTo, opts)
		if res.Chain.Nodes != nodes || res.Chain.PrunedValues != pruned || res.Chain.Components != components {
			t.Errorf("%s: chain %+v; levels 0…%d sum to nodes %d, pruned %d, components %d",
				name, res.Chain, upTo, nodes, pruned, components)
		}
	}

	approxN := tasks.ApproxAgreementN(3, 4)
	res, err := SolveUpToCtx(ctx, approxN, 2, Options{})
	if err != nil || !res.Solvable || res.Level != 2 {
		t.Fatalf("approx-agreement-n: %+v, %v; want solvable at level 2", res, err)
	}
	check("solvable", res, approxN, 2, Options{})

	budget := Options{MaxNodes: 100}
	res, err = SolveUpToCtx(ctx, approxN, 2, budget)
	if !errors.Is(err, ErrBudget) || res == nil || res.Level != 2 {
		t.Fatalf("budget: %+v, %v; want ErrBudget at level 2", res, err)
	}
	check("budget", res, approxN, 2, budget)

	res, err = SolveUpToCtx(ctx, tasks.Consensus(3), 2, Options{})
	if err != nil || res.Certificate == nil || res.Chain.Nodes != 0 || res.Chain.PrunedValues != 0 || res.Chain.Components != 0 {
		t.Fatalf("consensus-3p: %+v, %v; want a certificate and zero totals", res, err)
	}

	// Poison the step to level 2 only: level 1's result comes back with the
	// totals of levels 0 and 1.
	defer func() { subdivide = topology.Subdivide }()
	subdivide = func(ctx context.Context, c *topology.Complex, b int, keep topology.FacetFilter) (*topology.Complex, error) {
		if c.NumVertices() > approxN.Inputs.NumVertices() {
			return nil, errors.New("subdivision exploded")
		}
		return topology.Subdivide(ctx, c, b, keep)
	}
	res, err = SolveUpToCtx(ctx, approxN, 2, Options{})
	if err == nil || res == nil || res.Level != 1 {
		t.Fatalf("poisoned level 2: %+v, %v; want level 1's result and an error", res, err)
	}
	check("subdivision failure", res, approxN, 1, Options{})
}

// TestSolveUpToRejectsNegativeLevel: a negative max level searches nothing
// and is an error. It used to return a nil Result with a nil error, which
// `wfrepro converge -maxk -1` and `wfrepro solve -maxb -1` dereferenced.
func TestSolveUpToRejectsNegativeLevel(t *testing.T) {
	for _, task := range []*tasks.Task{tasks.ApproxAgreement(2), tasks.Consensus(2)} {
		if res, err := SolveUpTo(task, -1, Options{}); res != nil || err == nil {
			t.Errorf("%s at max level -1: %+v, %v; want an error", task.Name, res, err)
		}
	}
}

// TestConsistentAllocFree pins that the per-node consistency check
// allocates nothing: it fills a caller-owned scratch buffer through
// SimplicialMap.AppendImage on a stack map, once per check item per search
// node, and the edge items make it ask Outputs.HasSimplex, which sorts a
// small simplex in place.
// Renaming's Allowed is a pure function of nothing, so the whole call must
// be allocation-free.
func TestConsistentAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	task := tasks.Renaming(2, 3)
	sub := task.Inputs
	nv := sub.NumVertices()
	// Every input facet maps onto one output facet, color by color, so the
	// image of each input edge is an output edge.
	target := task.Outputs.Facets()[0]
	assign := make([]topology.Vertex, nv)
	var items []checkItem
	for v := 0; v < nv; v++ {
		for _, w := range target {
			if task.Outputs.Color(w) == sub.Color(topology.Vertex(v)) {
				assign[v] = w
			}
		}
		s := []topology.Vertex{topology.Vertex(v)}
		items = append(items, checkItem{simplex: s, carrier: sub.CarrierOfSimplex(s)})
	}
	for _, f := range sub.Facets() {
		if len(f) < 2 {
			continue
		}
		// Reversed, so HasSimplex has to sort it.
		edge := []topology.Vertex{f[1], f[0]}
		items = append(items, checkItem{simplex: edge, carrier: sub.CarrierOfSimplex(edge)})
	}
	var scratch []topology.Vertex
	if !consistent(task, items, assign, &scratch) {
		t.Fatal("setup: assignment should be consistent")
	}
	got := testing.AllocsPerRun(100, func() {
		if !consistent(task, items, assign, &scratch) {
			t.Fatal("assignment became inconsistent")
		}
	})
	if got != 0 {
		t.Errorf("consistent: %.1f allocs/run, want 0 (scratch buffer not reused?)", got)
	}
}

// TestStructuredNodesDropTenfold pins the PR's acceptance target: on
// unsolvable E6 entries at their deciding levels, the search's node count is
// at least 10× below the exhaustive oracle's. For the whole
// consensus family the AC-3 pass alone empties a domain — the verdict costs
// ZERO search nodes where the oracle backtracked through dozens.
func TestStructuredNodesDropTenfold(t *testing.T) {
	cases := []struct {
		name string
		task *tasks.Task
		b    int // the E6 entry's deciding (deepest proven-unsolvable) level
	}{
		{"binary-consensus-2p", tasks.Consensus(2), 3},
		{"binary-consensus-3p", tasks.Consensus(3), 1},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub := topology.SDSPow(tc.task.Inputs, tc.b)
			exh, err := solveExhaustive(ctx, tc.task, tc.b, sub)
			if err != nil {
				t.Fatal(err)
			}
			str, err := SolveAtLevelOn(ctx, tc.task, tc.b, sub, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if exh.Solvable || str.Solvable {
				t.Fatalf("verdicts: exhaustive %v, structured %v; want both unsolvable", exh.Solvable, str.Solvable)
			}
			if exh.Nodes < 10 || str.Nodes*10 > exh.Nodes {
				t.Errorf("nodes: exhaustive %d, structured %d; want ≥10× drop", exh.Nodes, str.Nodes)
			}
			if str.Stats.PrunedValues == 0 {
				t.Errorf("structured search reported no pruned domain values")
			}
		})
	}
}

// TestCarrierTableMatchesCarrierOfSimplex pins the interned carriers the
// search reads against the complex's own: for every face of dimension ≥ 1
// the search could check, carrierTable must give exactly CarrierOfSimplex.
// Covers restricted, non-pure and level-0 complexes.
func TestCarrierTableMatchesCarrierOfSimplex(t *testing.T) {
	restricted, err := topology.Subdivide(context.Background(), tasks.SetConsensus(3, 2).Inputs, 2, func(blocks []int) bool { return blocks[0] >= 2 })
	if err != nil {
		t.Fatal(err)
	}
	complexes := map[string]*topology.Complex{
		"consensus-3p/b0":  tasks.Consensus(3).Inputs,
		"consensus-3p/b2":  topology.SDSPow(tasks.Consensus(3).Inputs, 2),
		"approx-1/4/b2":    topology.SDSPow(tasks.ApproxAgreement(4).Inputs, 2),
		"set-3-2/b2-restr": restricted,
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		c := topology.RandomChromaticComplex(rng)
		complexes[fmt.Sprintf("random-%d/b1", i)] = topology.SDS(c)
	}
	for name, c := range complexes {
		ct := newCarrierTable(c)
		for k := 2; k <= c.Dimension()+1; k++ {
			for _, s := range c.Faces(k) {
				if gc, wc := ct.list[ct.of(s)], c.CarrierOfSimplex(s); !slices.Equal(gc, wc) {
					t.Fatalf("%s: carrier of %v is %v, want %v", name, s, gc, wc)
				}
			}
		}
	}
}

// TestPropagationDecidedLevelSkipsSimplices pins the stage order of the
// structured precompute on the service's heavy query, consensus-4p at level
// 2: propagation decides it, so the level must never enumerate its dim ≥ 2
// simplices. Face enumeration shares one backing array per dimension, so
// the allocation count alone cannot see those simplices; their ~140 MB can.
// Building every simplex up front, each with its own carrier, cost 2.68M
// allocations and 254 MB per solve.
func TestPropagationDecidedLevelSkipsSimplices(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	task := tasks.Consensus(4)
	ctx := context.Background()
	solve := func(sub *topology.Complex) {
		res, err := SolveAtLevelOn(ctx, task, 2, sub, Options{})
		if err != nil || res.Solvable || res.Nodes != 0 {
			t.Fatalf("consensus-4p b=2: solvable=%v nodes=%d err=%v; want unsolvable at 0 nodes", res.Solvable, res.Nodes, err)
		}
	}
	sub := topology.SDSPow(task.Inputs, 2)
	if allocs := testing.AllocsPerRun(3, func() { solve(sub) }); allocs > 25_000 {
		t.Errorf("%.0f allocations per solve, want ≤ 25,000", allocs)
	}
	// A level keeps the incidence index its first solve builds, so the byte
	// count solves a fresh level and counts the index too.
	fresh := topology.SDSPow(task.Inputs, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve(fresh)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 48<<20 {
		t.Errorf("%d bytes allocated per solve, want ≤ 48 MiB (were dim ≥ 2 simplices built?)", bytes)
	}
}
