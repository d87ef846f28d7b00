// Package solver_test (external) so the harness can import internal/engine
// — which itself imports solver — without a cycle: the differential below
// round-trips arena-built subdivisions through the engine's DTO codec (an
// explicit, string-keyed reconstruction) and requires the search to be
// bit-identical on both representations.
package solver_test

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"waitfree/internal/engine"
	"waitfree/internal/solver"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// TestE6VerdictTable pins the full EXPERIMENTS.md E6 verdict table: each
// task's solvability verdict and level must come out exactly as the theory
// demands, on the arena-backed subdivision path. Any representation bug
// that changes carriers, colors, or the facet structure flips one of these
// verdicts.
func TestE6VerdictTable(t *testing.T) {
	cases := []struct {
		name     string
		task     *tasks.Task
		maxLevel int
		solvable bool
		level    int // checked only when solvable
	}{
		{"identity-3p", tasks.IdentityTask(3), 0, true, 0},
		{"set-consensus-3-3", tasks.SetConsensus(3, 3), 0, true, 0},
		{"renaming-2p-M3", tasks.Renaming(2, 3), 0, true, 0},
		{"approx-agreement-1/2", tasks.ApproxAgreement(2), 2, true, 1},
		{"approx-agreement-1/4", tasks.ApproxAgreement(4), 2, true, 2},
		{"binary-consensus-2p", tasks.Consensus(2), 3, false, 0},
		{"binary-consensus-3p", tasks.Consensus(3), 1, false, 0},
		{"set-consensus-3-2", tasks.SetConsensus(3, 2), 1, false, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := solver.SolveUpTo(tc.task, tc.maxLevel, solver.Options{})
			if err != nil {
				t.Fatalf("SolveUpTo: %v", err)
			}
			if res.Solvable != tc.solvable {
				t.Fatalf("solvable = %v, want %v", res.Solvable, tc.solvable)
			}
			if tc.solvable {
				if res.Level != tc.level {
					t.Errorf("solved at level %d, want %d", res.Level, tc.level)
				}
				if err := solver.VerifyDecisionMap(tc.task, res); err != nil {
					t.Errorf("VerifyDecisionMap: %v", err)
				}
			}
		})
	}
}

// TestE6DifferentialStructuredVsExhaustive cross-checks the search against
// the exhaustive oracle on every level of the E6 table that the oracle can
// finish, plus a fully slack edge task whose every value fits everywhere:
// verdicts must match exactly, every solvable result must pass
// VerifyDecisionMap, and the search's node count must never exceed the
// oracle's (forward checking explores a subset of the plain backtracking's
// nodes; propagation and decomposition only shrink it further).
func TestE6DifferentialStructuredVsExhaustive(t *testing.T) {
	cases := []struct {
		task *tasks.Task
		b    int
	}{
		{tasks.IdentityTask(3), 0},
		{tasks.SetConsensus(3, 3), 0},
		{tasks.Renaming(2, 3), 0},
		{tasks.ApproxAgreement(2), 0},
		{tasks.ApproxAgreement(2), 1},
		{tasks.ApproxAgreement(4), 1},
		{tasks.ApproxAgreement(4), 2},
		{tasks.Consensus(2), 0},
		{tasks.Consensus(2), 1},
		{tasks.Consensus(2), 2},
		{tasks.Consensus(2), 3},
		{tasks.Consensus(3), 0},
		{tasks.Consensus(3), 1},
		{tasks.SetConsensus(3, 2), 0},
		{tasks.SetConsensus(3, 2), 1},
		{slackEdgeTask(), 0},
	}
	ctx := context.Background()
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/b=%d", tc.task.Name, tc.b), func(t *testing.T) {
			sub := topology.SDSPow(tc.task.Inputs, tc.b)
			exh, err := solver.SolveExhaustive(ctx, tc.task, tc.b, sub)
			if err != nil {
				t.Fatalf("exhaustive: %v", err)
			}
			str, err := solver.SolveAtLevelOn(ctx, tc.task, tc.b, sub, solver.Options{})
			if err != nil {
				t.Fatalf("structured: %v", err)
			}
			if str.Solvable != exh.Solvable {
				t.Fatalf("verdicts differ: structured %v, exhaustive oracle %v", str.Solvable, exh.Solvable)
			}
			if str.Nodes > exh.Nodes {
				t.Errorf("structured explored %d nodes, oracle %d — pruning made the search LARGER", str.Nodes, exh.Nodes)
			}
			if str.Solvable {
				if err := solver.VerifyDecisionMap(tc.task, str); err != nil {
					t.Errorf("VerifyDecisionMap(structured): %v", err)
				}
			}
		})
	}
}

// slackEdgeTask maps a single input edge into a complete two-value output
// complex under an all-permissive Δ: every value of either endpoint is
// consistent with every value of the other.
func slackEdgeTask() *tasks.Task {
	in := topology.NewComplex()
	a := in.MustAddVertex("a", 0)
	b := in.MustAddVertex("b", 1)
	in.MustAddSimplex(a, b)

	out := topology.NewComplex()
	var outV []topology.Vertex
	for col := 0; col < 2; col++ {
		for val := 0; val < 2; val++ {
			outV = append(outV, out.MustAddVertex(fmt.Sprintf("o%d_%d", col, val), col))
		}
	}
	for _, v0 := range outV[:2] {
		for _, v1 := range outV[2:] {
			out.MustAddSimplex(v0, v1)
		}
	}
	return &tasks.Task{
		Name:    "slack-edge",
		Procs:   2,
		Inputs:  in.Seal(),
		Outputs: out.Seal(),
		Allowed: func(in, out []topology.Vertex) bool { return true },
	}
}

// TestRandomTasksDifferential runs the differential over
// topology.RandomChromaticComplex inputs with randomized pairwise output
// constraints (monotone by construction: a face has fewer pairs than its
// coface). Seeded, so any failure is a reproducible case, not a flake. The
// bans drive a spread of solvable and unsolvable instances; the search and
// the oracle must agree on all of them, at level 0 and level 1.
func TestRandomTasksDifferential(t *testing.T) {
	var solvableSeen, unsolvableSeen, certified int
	for seed := int64(0); seed < 40; seed++ {
		verdicts, fired := randomTaskDifferential(t, seed)
		for _, solvable := range verdicts {
			if solvable {
				solvableSeen++
			} else {
				unsolvableSeen++
			}
		}
		if fired {
			certified++
		}
	}
	// The differential only means something if it exercises both verdicts.
	if solvableSeen == 0 || unsolvableSeen == 0 {
		t.Fatalf("degenerate corpus: %d solvable, %d unsolvable", solvableSeen, unsolvableSeen)
	}
	// Likewise the certificate check, and it must not fire everywhere.
	if certified == 0 || certified == 40 {
		t.Fatalf("degenerate corpus: the certificate fired on %d of 40 validity tasks", certified)
	}
}

// FuzzSolverDifferential extends TestRandomTasksDifferential past its 40
// seeds, and TestRandomModelDifferential past its 60. The corpus seeds
// from 4 on have levels with dominated vertices that carry a universal
// value, the case a vertex-elimination pass would remove before searching.
func FuzzSolverDifferential(f *testing.F) {
	for _, seed := range []int64{0, 1, 4, 5, 6, 9, 10, 13, 14, 25, 29, 30} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		randomTaskDifferential(t, seed)
		randomModelDifferential(t, seed)
	})
}

// TestRandomModelDifferential runs randomModelDifferential over 60 seeds
// and requires the corpus to exercise both certificates.
func TestRandomModelDifferential(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(0); seed < 60; seed++ {
		kinds[randomModelDifferential(t, seed)]++
	}
	if kinds[solver.CertificateSperner] == 0 || kinds[solver.CertificatePath] == 0 || kinds[""] == 0 {
		t.Fatalf("degenerate corpus: certificates fired %v", kinds)
	}
	t.Logf("certificates over 60 seeds: %v", kinds)
}

// randomModelDifferential draws a random agreement task and a random
// model and checks the search against the oracle on the model's levels
// R^0 and R^1. Where Certify answers, with either certificate, neither
// may find a map. It returns the kind of certificate that fired, or "".
func randomModelDifferential(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	task := randomAgreementTask(rng, seed)
	specs := gridModels(task.Procs)
	spec := specs[rng.Intn(len(specs))]
	opts := solver.Options{Restrict: spec.Filter()}
	if !spec.IsWaitFree() {
		opts.Model = spec.Canonical()
	}
	ctx := context.Background()
	cert, err := solver.Certify(ctx, task, 1, opts)
	if err != nil {
		t.Fatalf("seed %d: Certify: %v", seed, err)
	}
	sub := task.Inputs
	for b := 0; b <= 1; b++ {
		if b > 0 {
			if sub, err = topology.Subdivide(ctx, sub, 1, spec.Filter()); err != nil {
				t.Fatalf("seed %d %s: Subdivide: %v", seed, spec.Canonical(), err)
			}
		}
		exh, err := solver.SolveExhaustive(ctx, task, b, sub)
		if err != nil {
			t.Fatalf("seed %d %s b=%d exhaustive: %v", seed, spec.Canonical(), b, err)
		}
		str, err := solver.SolveAtLevelOn(ctx, task, b, sub, opts)
		if err != nil {
			t.Fatalf("seed %d %s b=%d structured: %v", seed, spec.Canonical(), b, err)
		}
		if str.Solvable != exh.Solvable {
			t.Fatalf("seed %d %s b=%d: verdicts differ: structured %v, oracle %v", seed, spec.Canonical(), b, str.Solvable, exh.Solvable)
		}
		if cert != nil && str.Solvable {
			t.Fatalf("seed %d %s b=%d: a %s certificate fired, but a map exists", seed, spec.Canonical(), b, cert.CertificateKind)
		}
		if str.Solvable {
			if err := solver.VerifyDecisionMap(task, str); err != nil {
				t.Errorf("seed %d %s b=%d: VerifyDecisionMap: %v", seed, spec.Canonical(), b, err)
			}
		}
	}
	if cert == nil {
		return ""
	}
	if cert.Vertices != sub.NumVertices() || cert.Facets != len(sub.Facets()) {
		t.Errorf("seed %d %s: certified sizes %d, %d; built level %d, %d", seed, spec.Canonical(), cert.Vertices, cert.Facets, sub.NumVertices(), len(sub.Facets()))
	}
	return cert.CertificateKind
}

// randomAgreementTask is a consensus-like task over 2 or 3 processes:
// every input facet assigns each process a value in {0, 1, 2} (a random
// nonempty set of the 27 or 9 assignments, so the input complex is pure),
// a decision must be an input of its carrier (validity, in Allowed), and
// the output complex holds exactly the assignments on which a set of
// agreeing color pairs decide equal values — all pairs in half the tasks
// (consensus with three values), a random set in the rest.
func randomAgreementTask(rng *rand.Rand, seed int64) *tasks.Task {
	n := 2 + rng.Intn(2)
	var assignments [][]int
	var build func(cur []int)
	build = func(cur []int) {
		if len(cur) == n {
			assignments = append(assignments, append([]int(nil), cur...))
			return
		}
		for val := 0; val < 3; val++ {
			build(append(cur, val))
		}
	}
	build(nil)
	agree := make(map[[2]int]bool)
	all := rng.Intn(2) == 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			agree[[2]int{a, b}] = all || rng.Intn(2) == 0
		}
	}
	in, out := topology.NewComplex(), topology.NewComplex()
	inVal := map[topology.Vertex]string{}
	outVal := map[topology.Vertex]string{}
	add := func(c *topology.Complex, vals map[topology.Vertex]string, prefix string, a []int) {
		facet := make([]topology.Vertex, n)
		for p, val := range a {
			facet[p] = c.MustAddVertex(fmt.Sprintf("%s%d=%d", prefix, p, val), p)
			vals[facet[p]] = strconv.Itoa(val)
		}
		c.MustAddSimplex(facet...)
	}
	picked := false
	for _, a := range assignments {
		if rng.Intn(3) == 0 {
			add(in, inVal, "P", a)
			picked = true
		}
	}
	if !picked {
		add(in, inVal, "P", assignments[len(assignments)-1])
	}
	for _, a := range assignments {
		ok := true
		for pair, must := range agree {
			ok = ok && (!must || a[pair[0]] == a[pair[1]])
		}
		if ok {
			add(out, outVal, "D", a)
		}
	}
	inputs := in.Seal()
	return &tasks.Task{
		Name:    fmt.Sprintf("random-agreement-%d", seed),
		Procs:   n,
		Inputs:  inputs,
		Outputs: out.Seal(),
		Allowed: func(inS, outS []topology.Vertex) bool {
			valid := make(map[string]bool, len(inS))
			for _, v := range inS {
				valid[inVal[v]] = true
			}
			for _, w := range outS {
				if !valid[outVal[w]] {
					return false
				}
			}
			return true
		},
		InputValue:  func(v topology.Vertex) string { return inVal[v] },
		OutputValue: func(w topology.Vertex) string { return outVal[w] },
	}
}

// randomTaskDifferential checks the search against the oracle on
// randomPairwiseTask(seed) at levels 0 and 1 — equal verdicts, no more
// nodes than the oracle, verified maps — and returns the verdicts. It runs
// the same differential on randomValidityTask(seed) and checks the Sperner
// certificate against it: where solver.Obstruct fires, neither search may
// find a map. fired reports whether it did.
func randomTaskDifferential(t *testing.T, seed int64) (verdicts []bool, fired bool) {
	t.Helper()
	verdicts = levelDifferential(t, seed, randomPairwiseTask(rand.New(rand.NewSource(seed)), seed))
	vt := randomValidityTask(rand.New(rand.NewSource(seed)), seed)
	fired = solver.Obstruct(vt, nil) != nil
	for b, solvable := range levelDifferential(t, seed, vt) {
		if fired && solvable {
			t.Fatalf("seed %d b=%d: %s has a map, but the Sperner certificate fired", seed, b, vt.Name)
		}
	}
	return verdicts, fired
}

// levelDifferential checks the search against the oracle on task at levels
// 0 and 1 and returns the verdicts.
func levelDifferential(t *testing.T, seed int64, task *tasks.Task) []bool {
	t.Helper()
	ctx := context.Background()
	var verdicts []bool
	for b := 0; b <= 1; b++ {
		sub := topology.SDSPow(task.Inputs, b)
		exh, err := solver.SolveExhaustive(ctx, task, b, sub)
		if err != nil {
			t.Fatalf("seed %d b=%d exhaustive: %v", seed, b, err)
		}
		str, err := solver.SolveAtLevelOn(ctx, task, b, sub, solver.Options{})
		if err != nil {
			t.Fatalf("seed %d b=%d structured: %v", seed, b, err)
		}
		if str.Solvable != exh.Solvable {
			t.Fatalf("seed %d b=%d: verdicts differ: structured %v, oracle %v", seed, b, str.Solvable, exh.Solvable)
		}
		if str.Nodes > exh.Nodes {
			t.Errorf("seed %d b=%d: structured %d nodes > oracle %d", seed, b, str.Nodes, exh.Nodes)
		}
		if str.Solvable {
			if err := solver.VerifyDecisionMap(task, str); err != nil {
				t.Errorf("seed %d b=%d: VerifyDecisionMap: %v", seed, b, err)
			}
		}
		verdicts = append(verdicts, str.Solvable)
	}
	return verdicts
}

// randomValidityTask wraps a random chromatic input complex in a task with
// consensus-like structure: each input vertex holds a value in {0, 1, 2},
// every decision must be an input value of its carrier (validity), and a
// random set of color pairs must decide equal values (agreement). An edge
// with distinct inputs between agreeing colors is a Sperner certificate,
// so the certificate fires on part of the corpus.
func randomValidityTask(rng *rand.Rand, seed int64) *tasks.Task {
	inputs := topology.RandomChromaticComplex(rng)
	colors := inputs.Colors()
	inVal := make(map[topology.Vertex]string)
	for v := 0; v < inputs.NumVertices(); v++ {
		inVal[topology.Vertex(v)] = strconv.Itoa(rng.Intn(3))
	}
	out := topology.NewComplex()
	outVal := make(map[topology.Vertex]string)
	byColor := make(map[int][]topology.Vertex)
	for _, col := range colors {
		for val := 0; val < 3; val++ {
			w := out.MustAddVertex(fmt.Sprintf("o%d_%d", col, val), col)
			outVal[w] = strconv.Itoa(val)
			byColor[col] = append(byColor[col], w)
		}
	}
	var build func(i int, cur []topology.Vertex)
	build = func(i int, cur []topology.Vertex) {
		if i == len(colors) {
			out.MustAddSimplex(cur...)
			return
		}
		for _, w := range byColor[colors[i]] {
			build(i+1, append(cur, w))
		}
	}
	build(0, nil)
	outputs := out.Seal()
	agree := make(map[[2]int]bool)
	for i, a := range colors {
		for _, b := range colors[i+1:] {
			agree[[2]int{a, b}] = rng.Intn(2) == 0
		}
	}
	return &tasks.Task{
		Name:    fmt.Sprintf("random-validity-%d", seed),
		Procs:   len(colors),
		Inputs:  inputs,
		Outputs: outputs,
		Allowed: func(in, outS []topology.Vertex) bool {
			valid := make(map[string]bool, len(in))
			for _, v := range in {
				valid[inVal[v]] = true
			}
			for i, w := range outS {
				if !valid[outVal[w]] {
					return false
				}
				for _, x := range outS[i+1:] {
					a, b := outputs.Color(w), outputs.Color(x)
					if a > b {
						a, b = b, a
					}
					if agree[[2]int{a, b}] && outVal[w] != outVal[x] {
						return false
					}
				}
			}
			return true
		},
		InputValue:  func(v topology.Vertex) string { return inVal[v] },
		OutputValue: func(w topology.Vertex) string { return outVal[w] },
	}
}

// randomPairwiseTask wraps a random chromatic input complex in a task whose
// outputs form a complete two-value chromatic complex over the input's
// colors and whose Δ bans a random set of cross-color output pairs.
func randomPairwiseTask(rng *rand.Rand, seed int64) *tasks.Task {
	inputs := topology.RandomChromaticComplex(rng)
	colors := inputs.Colors()

	out := topology.NewComplex()
	byColor := make(map[int][]topology.Vertex)
	for _, col := range colors {
		for val := 0; val < 2; val++ {
			v := out.MustAddVertex(fmt.Sprintf("o%d_%d", col, val), col)
			byColor[col] = append(byColor[col], v)
		}
	}
	// Facets: every one-value-per-color assignment, so every distinct-color
	// vertex set is a simplex and banning happens purely in Δ.
	var build func(i int, cur []topology.Vertex)
	build = func(i int, cur []topology.Vertex) {
		if i == len(colors) {
			out.MustAddSimplex(cur...)
			return
		}
		for _, v := range byColor[colors[i]] {
			build(i+1, append(cur, v))
		}
	}
	build(0, nil)
	outputs := out.Seal()

	// Ban density spans sparse (always satisfiable) to near-total (usually
	// not): with ≤3 colors there are at most 12 cross-color value pairs.
	banned := make(map[[2]topology.Vertex]bool)
	nBans := rng.Intn(13)
	for i := 0; i < nBans; i++ {
		ca, cb := colors[rng.Intn(len(colors))], colors[rng.Intn(len(colors))]
		if ca == cb {
			continue
		}
		a := byColor[ca][rng.Intn(2)]
		b := byColor[cb][rng.Intn(2)]
		if a > b {
			a, b = b, a
		}
		banned[[2]topology.Vertex{a, b}] = true
	}

	return &tasks.Task{
		Name:    fmt.Sprintf("random-pairwise-%d", seed),
		Procs:   len(colors),
		Inputs:  inputs,
		Outputs: outputs,
		Allowed: func(in, outS []topology.Vertex) bool {
			for i := 0; i < len(outS); i++ {
				for j := i + 1; j < len(outS); j++ {
					a, b := outS[i], outS[j]
					if a > b {
						a, b = b, a
					}
					if banned[[2]topology.Vertex{a, b}] {
						return false
					}
				}
			}
			return true
		},
	}
}

// TestSolverDifferentialDTORoundTrip runs the same search twice — once on
// the arena-built SDS^b(I), once on that complex rehydrated through the
// engine's gob DTO codec (which reconstructs it through the explicit
// string-keyed path) — and requires identical verdicts AND identical node
// counts. Equal node counts mean the two representations present the exact
// same vertex order, domains, and simplex structure to the backtracking
// search, not merely isomorphic ones.
func TestSolverDifferentialDTORoundTrip(t *testing.T) {
	cases := []struct {
		task *tasks.Task
		b    int
	}{
		{tasks.Consensus(2), 1},
		{tasks.Consensus(2), 2},
		{tasks.ApproxAgreement(2), 1},
		{tasks.ApproxAgreement(4), 2},
		{tasks.SetConsensus(3, 2), 1},
	}
	ctx := context.Background()
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/b=%d", tc.task.Name, tc.b), func(t *testing.T) {
			sub := topology.SDSPow(tc.task.Inputs, tc.b)

			data, err := engine.EncodeComplexGob(sub)
			if err != nil {
				t.Fatalf("EncodeComplexGob: %v", err)
			}
			rehydrated, err := engine.DecodeComplexGob(data)
			if err != nil {
				t.Fatalf("DecodeComplexGob: %v", err)
			}
			if sub.CanonicalString() != rehydrated.CanonicalString() {
				t.Fatal("DTO round-trip changed the canonical encoding")
			}

			arena, err := solver.SolveAtLevelOn(ctx, tc.task, tc.b, sub, solver.Options{})
			if err != nil {
				t.Fatalf("SolveAtLevelOn(arena): %v", err)
			}
			explicit, err := solver.SolveAtLevelOn(ctx, tc.task, tc.b, rehydrated, solver.Options{})
			if err != nil {
				t.Fatalf("SolveAtLevelOn(rehydrated): %v", err)
			}
			if arena.Solvable != explicit.Solvable {
				t.Fatalf("verdicts differ: arena %v, rehydrated %v", arena.Solvable, explicit.Solvable)
			}
			if arena.Nodes != explicit.Nodes {
				t.Fatalf("node counts differ: arena %d, rehydrated %d — representations not search-identical",
					arena.Nodes, explicit.Nodes)
			}
			if arena.Solvable {
				if err := solver.VerifyDecisionMap(tc.task, arena); err != nil {
					t.Errorf("VerifyDecisionMap(arena): %v", err)
				}
				if err := solver.VerifyDecisionMap(tc.task, explicit); err != nil {
					t.Errorf("VerifyDecisionMap(rehydrated): %v", err)
				}
			}
		})
	}
}

// TestConvergeTasksDifferential runs the differential over the tasks whose
// decision maps internal/converge asks the search for: chromatic simplex
// agreement over SDS^t(sⁿ) (Theorem 5.1's map) and over a hand-built
// 5-edge subdivision of s¹, and two-process NCSAC over paths and over two
// components. At every level up to the first solvable one the oracle must
// finish within its budget, the verdicts must match, and the search may
// use no more nodes.
func TestConvergeTasksDifferential(t *testing.T) {
	var cases []*tasks.Task
	for n := 1; n <= 2; n++ {
		for target := 1; target <= 2; target++ {
			task, err := tasks.SimplexAgreement(topology.SDSPow(topology.Simplex(n), target))
			if err != nil {
				t.Fatal(err)
			}
			task.Name = fmt.Sprintf("csass-n%d-t%d", n, target)
			cases = append(cases, task)
		}
	}
	path, err := tasks.SimplexAgreement(fiveEdgeSubdivision())
	if err != nil {
		t.Fatal(err)
	}
	path.Name = "csass-5-edge"
	cases = append(cases, path)
	for _, c := range []*topology.Complex{pathComplex(2), pathComplex(3), pathComplex(4), twoEdges()} {
		task, _ := tasks.NCSAC(c)
		task.Name = fmt.Sprintf("ncsac-%dv-%dc", c.NumVertices(), len(c.ConnectedComponents()))
		cases = append(cases, task)
	}
	ctx := context.Background()
	for _, task := range cases {
		sub := task.Inputs
		for b := 0; b <= 2; b++ {
			if b > 0 {
				sub = topology.SDS(sub)
			}
			exh, err := solver.SolveExhaustiveWithin(ctx, task, b, sub, 2_000_000)
			if err != nil {
				t.Fatalf("%s b=%d exhaustive: %v", task.Name, b, err)
			}
			str, err := solver.SolveAtLevelOn(ctx, task, b, sub, solver.Options{})
			if err != nil {
				t.Fatalf("%s b=%d structured: %v", task.Name, b, err)
			}
			t.Logf("%s b=%d: solvable=%v nodes %d (oracle %d)", task.Name, b, str.Solvable, str.Nodes, exh.Nodes)
			if str.Solvable != exh.Solvable {
				t.Fatalf("%s b=%d: verdicts differ: structured %v, oracle %v", task.Name, b, str.Solvable, exh.Solvable)
			}
			if str.Nodes > exh.Nodes {
				t.Errorf("%s b=%d: structured explored %d nodes, oracle %d", task.Name, b, str.Nodes, exh.Nodes)
			}
			if str.Solvable {
				if err := solver.VerifyDecisionMap(task, str); err != nil {
					t.Errorf("%s b=%d: VerifyDecisionMap: %v", task.Name, b, err)
				}
				break
			}
		}
	}
}

// fiveEdgeSubdivision is the chromatic subdivision c0—x1—x2—x3—x4—c1 of s¹:
// colors alternate, the corners sit on the base vertices and the interior
// vertices on the whole edge.
func fiveEdgeSubdivision() *topology.Complex {
	a := topology.NewSubdivision(topology.Simplex(1))
	var prev topology.Vertex
	for i := 0; i <= 5; i++ {
		v := a.MustAddVertex(fmt.Sprintf("p%d", i), i%2)
		switch i {
		case 0:
			a.SetCarrier(v, []topology.Vertex{0})
		case 5:
			a.SetCarrier(v, []topology.Vertex{1})
		default:
			a.SetCarrier(v, []topology.Vertex{0, 1})
		}
		if i > 0 {
			a.MustAddSimplex(prev, v)
		}
		prev = v
	}
	return a.Seal()
}

// pathComplex is the uncolored path a0—a1—…—a(n−1).
func pathComplex(n int) *topology.Complex {
	c := topology.NewComplex()
	for i := 0; i < n; i++ {
		v := c.MustAddVertex(fmt.Sprintf("a%d", i), topology.Uncolored)
		if i > 0 {
			c.MustAddSimplex(v-1, v)
		}
	}
	return c.Seal()
}

// twoEdges is two disjoint uncolored edges: a disconnected complex.
func twoEdges() *topology.Complex {
	c := topology.NewComplex()
	for i := 0; i < 4; i++ {
		c.MustAddVertex(fmt.Sprintf("e%d", i), topology.Uncolored)
	}
	c.MustAddSimplex(0, 1)
	c.MustAddSimplex(2, 3)
	return c.Seal()
}
