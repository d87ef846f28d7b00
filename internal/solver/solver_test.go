package solver

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"waitfree/internal/model"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

func TestIdentitySolvableAtLevelZero(t *testing.T) {
	task := tasks.IdentityTask(3)
	res, err := SolveAtLevelOn(context.Background(), task, 0, topology.SDSPow(task.Inputs, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable {
		t.Fatal("identity task must be solvable at level 0")
	}
	if err := VerifyDecisionMap(tasks.IdentityTask(3), res); err != nil {
		t.Fatal(err)
	}
}

func TestRenamingSolvableWithLargeNamespace(t *testing.T) {
	// With ids usable directly and M ≥ procs the complex-level task is
	// trivially solvable (see the Renaming doc comment).
	task := tasks.Renaming(2, 3)
	res, err := SolveAtLevelOn(context.Background(), task, 0, topology.SDSPow(task.Inputs, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable {
		t.Fatal("renaming(2,3) must be solvable at level 0")
	}
	if err := VerifyDecisionMap(task, res); err != nil {
		t.Fatal(err)
	}
}

// TestConsensusUnsolvable is the FLP-rooted impossibility through the
// paper's characterization: no decision map exists at any level (we prove
// levels 0–3 exhaustively).
func TestConsensusUnsolvable(t *testing.T) {
	task := tasks.Consensus(2)
	for b := 0; b <= 3; b++ {
		res, err := SolveAtLevelOn(context.Background(), task, b, topology.SDSPow(task.Inputs, b), Options{})
		if err != nil {
			t.Fatalf("level %d: %v", b, err)
		}
		if res.Solvable {
			t.Fatalf("2-process consensus reported solvable at level %d", b)
		}
	}
}

func TestThreeProcConsensusUnsolvable(t *testing.T) {
	task := tasks.Consensus(3)
	res, err := SolveAtLevelOn(context.Background(), task, 1, topology.SDSPow(task.Inputs, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solvable {
		t.Fatal("3-process consensus reported solvable at level 1")
	}
}

// TestSetConsensusUnsolvable is the k-set consensus impossibility (Sperner's
// lemma in disguise): (3,2)-set consensus has no decision map at level 1.
func TestSetConsensusUnsolvable(t *testing.T) {
	task := tasks.SetConsensus(3, 2)
	for b := 0; b <= 1; b++ {
		res, err := SolveAtLevelOn(context.Background(), task, b, topology.SDSPow(task.Inputs, b), Options{})
		if err != nil {
			t.Fatalf("level %d: %v", b, err)
		}
		if res.Solvable {
			t.Fatalf("(3,2)-set consensus reported solvable at level %d", b)
		}
	}
}

func TestTrivialSetConsensusSolvable(t *testing.T) {
	// k = procs: decide your own id.
	task := tasks.SetConsensus(3, 3)
	res, err := SolveAtLevelOn(context.Background(), task, 0, topology.SDSPow(task.Inputs, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable {
		t.Fatal("(3,3)-set consensus must be solvable at level 0")
	}
	if err := VerifyDecisionMap(task, res); err != nil {
		t.Fatal(err)
	}
}

// TestApproxAgreementLevels pins the solvable level to the geometry: SDS
// cuts an edge into 3, so reaching grid distance D needs 3^b ≥ D.
func TestApproxAgreementLevels(t *testing.T) {
	cases := []struct {
		d         int
		wantLevel int
	}{
		{2, 1}, // 3 ≥ 2
		{3, 1}, // 3 ≥ 3
		{4, 2}, // 9 ≥ 4 > 3
		{9, 2},
	}
	for _, tc := range cases {
		task := tasks.ApproxAgreement(tc.d)
		res, err := SolveUpTo(task, tc.wantLevel, Options{})
		if err != nil {
			t.Fatalf("d=%d: %v", tc.d, err)
		}
		if !res.Solvable || res.Level != tc.wantLevel {
			t.Fatalf("d=%d: solvable=%v at level %d, want level %d",
				tc.d, res.Solvable, res.Level, tc.wantLevel)
		}
		if err := VerifyDecisionMap(task, res); err != nil {
			t.Fatalf("d=%d: %v", tc.d, err)
		}
	}
}

// TestThreeProcApproxAgreementSolvable: the n-process generalization is
// solvable too — at level 1 for the unit grid — in contrast with the
// consensus-like tasks. 76 search nodes against SDS of eight glued
// triangles.
func TestThreeProcApproxAgreementSolvable(t *testing.T) {
	task := tasks.ApproxAgreementN(3, 2)
	res, err := SolveUpTo(task, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable || res.Level != 1 {
		t.Fatalf("solvable=%v level=%d, want solvable at 1", res.Solvable, res.Level)
	}
	if err := VerifyDecisionMap(task, res); err != nil {
		t.Fatal(err)
	}
}

func TestApproxAgreementUnsolvableBelowLevel(t *testing.T) {
	task := tasks.ApproxAgreement(4)
	res, err := SolveAtLevelOn(context.Background(), task, 1, topology.SDSPow(task.Inputs, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solvable {
		t.Fatal("1/4-agreement reported solvable at level 1 (needs 9 segments)")
	}
}

// TestWeakSymmetryBreaking documents a boundary of the (I, O, Δ) formalism:
// the famous WSB impossibility holds only for symmetric (comparison-based)
// protocols, a restriction colored tasks do not express. With ids usable in
// decisions, the checker rightly finds a level-0 map ("P0 says 0, the rest
// say 1") for every process count.
func TestWeakSymmetryBreaking(t *testing.T) {
	for _, procs := range []int{2, 3} {
		task := tasks.WeakSymmetryBreaking(procs)
		res, err := SolveAtLevelOn(context.Background(), task, 0, topology.SDSPow(task.Inputs, 0), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solvable {
			t.Fatalf("%d-process WSB (non-symmetric formulation) must be solvable at level 0", procs)
		}
		if err := VerifyDecisionMap(task, res); err != nil {
			t.Fatal(err)
		}
		// The found map must actually break symmetry: the full-tuple image
		// is non-constant by the output complex construction.
		img := res.Map.AppendImage(nil, res.Subdivision.Facets()[0])
		vals := map[string]bool{}
		for _, w := range img {
			vals[task.OutputValue(w)] = true
		}
		if len(vals) < 2 && procs > 1 {
			t.Fatal("full-participation image is constant")
		}
	}
}

// TestLoopAgreementContractibility probes the Herlihy–Rajsbaum loop
// agreement family — the source of the 3-process undecidability the paper
// cites: a contractible loop (boundary of a solid triangle) is solvable
// immediately, while the same loop around a hollow triangle has no decision
// map at the levels we can exhaust. (No bounded level can *prove* the
// hollow case unsolvable for all b — that is the undecidability.)
func TestLoopAgreementContractibility(t *testing.T) {
	mk := func(hollow bool) *tasks.Task {
		c := topology.NewComplex()
		a := c.MustAddVertex("a", topology.Uncolored)
		b := c.MustAddVertex("b", topology.Uncolored)
		d := c.MustAddVertex("d", topology.Uncolored)
		if hollow {
			c.MustAddSimplex(a, b)
			c.MustAddSimplex(b, d)
			c.MustAddSimplex(a, d)
		} else {
			c.MustAddSimplex(a, b, d)
		}
		c.Seal()
		task, err := tasks.LoopAgreement(c, [3]topology.Vertex{a, b, d},
			[3][]topology.Vertex{{a, b}, {b, d}, {a, d}})
		if err != nil {
			t.Fatal(err)
		}
		return task
	}

	solid := mk(false)
	res, err := SolveAtLevelOn(context.Background(), solid, 0, topology.SDSPow(solid.Inputs, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solvable {
		t.Fatal("contractible loop agreement must be solvable at level 0")
	}
	if err := VerifyDecisionMap(solid, res); err != nil {
		t.Fatal(err)
	}

	hollowTask := mk(true)
	for b := 0; b <= 1; b++ {
		res, err := SolveAtLevelOn(context.Background(), hollowTask, b, topology.SDSPow(hollowTask.Inputs, b), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Solvable {
			t.Fatalf("non-contractible loop agreement reported solvable at level %d", b)
		}
	}
}

func TestBudgetExceeded(t *testing.T) {
	task := tasks.SetConsensus(3, 2)
	_, err := SolveAtLevelOn(context.Background(), task, 1, topology.SDSPow(task.Inputs, 1), Options{MaxNodes: 3})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestBudgetCoversTheLevel: MaxNodes bounds a level, not each of its
// components. Consensus(4) under 2-set memory at b=2 splits into 48
// components of 16–29 nodes each, 1,184 in all, so no single component
// reaches a 100-node budget while the level overruns it twelvefold.
func TestBudgetCoversTheLevel(t *testing.T) {
	task := tasks.Consensus(4)
	sub, err := topology.Subdivide(context.Background(), task.Inputs, 2, model.KSet(2).Filter())
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveAtLevelOn(context.Background(), task, 2, sub, Options{MaxNodes: 100})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if res.Nodes > 101 {
		t.Errorf("explored %d nodes under MaxNodes 100 (%d components)", res.Nodes, res.Stats.Components)
	}
}

func TestSolveUpToReturnsLastUnsolvable(t *testing.T) {
	res, err := SolveUpTo(tasks.Consensus(2), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solvable {
		t.Fatal("consensus must stay unsolvable")
	}
	if res.Level != 2 {
		t.Fatalf("last level checked = %d, want 2", res.Level)
	}
}

func TestVerifyDecisionMapRejectsUnsolvable(t *testing.T) {
	task := tasks.Consensus(2)
	res, err := SolveAtLevelOn(context.Background(), task, 0, topology.SDSPow(task.Inputs, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDecisionMap(tasks.Consensus(2), res); err == nil {
		t.Fatal("VerifyDecisionMap must reject results without maps")
	}
}

// TestVerifyDecisionMapRejectsWrongMaps changes one vertex's image in a found
// map three ways, each breaking exactly one of the conditions
// VerifyDecisionMap checks, and requires each to fail with its own error.
func TestVerifyDecisionMapRejectsWrongMaps(t *testing.T) {
	found := func(task *tasks.Task, b int) *Result {
		t.Helper()
		res, err := SolveAtLevelOn(context.Background(), task, b, topology.SDSPow(task.Inputs, b), Options{})
		if err != nil || !res.Solvable {
			t.Fatalf("%s b=%d: solvable=%v err=%v", task.Name, b, res.Solvable, err)
		}
		if err := VerifyDecisionMap(task, res); err != nil {
			t.Fatalf("%s b=%d: found map rejected: %v", task.Name, b, err)
		}
		return res
	}
	// with returns res with v's image replaced by w, res itself untouched.
	with := func(res *Result, v, w topology.Vertex) *Result {
		m := *res.Map
		m.Image = slices.Clone(m.Image)
		m.Image[v] = w
		bad := *res
		bad.Map = &m
		return &bad
	}
	reject := func(name string, task *tasks.Task, bad *Result, simplicial, colored bool, want string) {
		t.Helper()
		if got := bad.Map.Validate() == nil; got != simplicial {
			t.Fatalf("%s: setup: simplicial = %v, want %v", name, got, simplicial)
		}
		if got := bad.Map.ColorPreserving(); got != colored {
			t.Fatalf("%s: setup: color preserving = %v, want %v", name, got, colored)
		}
		if err := VerifyDecisionMap(task, bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: VerifyDecisionMap = %v, want an error containing %q", name, err, want)
		}
	}

	// Another color's output: input vertex 0 of the identity task decides
	// what a process of another color in its facet decides, so every facet's
	// image is a face of that facet's image.
	identity := tasks.IdentityTask(3)
	res := found(identity, 0)
	f := res.Subdivision.Facets()[0]
	reject("another color", identity, with(res, f[0], res.Map.Image[f[1]]), true, false, "solver: map not color preserving")

	approx := tasks.ApproxAgreementN(3, 4)
	res = found(approx, 2)
	sub := res.Subdivision
	value := func(w topology.Vertex) int {
		x, err := strconv.Atoi(approx.OutputValue(w))
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	output := func(color, x int) topology.Vertex {
		for _, w := range approx.Outputs.VerticesOfColor(color) {
			if value(w) == x {
				return w
			}
		}
		t.Fatalf("no output of color %d decides %d", color, x)
		return -1
	}
	inputs := func(v topology.Vertex) map[string]bool {
		vals := map[string]bool{}
		for _, u := range sub.Carrier(v) {
			vals[approx.InputValue(u)] = true
		}
		return vals
	}
	// A same-color output far from the vertex's decision, at a vertex that
	// sees both inputs, so Δ allows every value for every simplex containing
	// it: some facet's decisions now span more than one grid step.
	far, corner := topology.Vertex(-1), topology.Vertex(-1)
	for v := 0; v < sub.NumVertices(); v++ {
		if in := inputs(topology.Vertex(v)); in["0"] && in["4"] && far < 0 {
			far = topology.Vertex(v)
		} else if len(sub.Carrier(topology.Vertex(v))) == 1 && in["0"] && corner < 0 {
			corner = topology.Vertex(v)
		}
	}
	if far < 0 || corner < 0 {
		t.Fatalf("setup: no vertex seeing both inputs (%d) or no solo corner with input 0 (%d)", far, corner)
	}
	x := value(res.Map.Image[far])
	y := 4
	if x >= 2 {
		y = 0
	}
	reject("non-simplex image", approx, with(res, far, output(sub.Color(far), y)), false, true, "solver: map not simplicial")

	// A solo corner with input 0 moved one grid step: its neighbors decide 0
	// or 1, so every image stays a simplex, but Δ allows only 0 for its
	// carrier.
	if value(res.Map.Image[corner]) != 0 {
		t.Fatalf("setup: solo corner %d decides %d, want 0", corner, value(res.Map.Image[corner]))
	}
	moved := output(sub.Color(corner), 1)
	want := fmt.Sprintf("solver: simplex [%d] image [%d] not allowed for its carrier", corner, moved)
	reject("not allowed", approx, with(res, corner, moved), true, true, want)
}
