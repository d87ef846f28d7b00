package converge

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"waitfree/internal/solver"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

func TestFindChromaticMapIdentityAtLevelZero(t *testing.T) {
	// A = SDS(base): the identity works at k = 1, and k = 0 must fail
	// (the three corners of the base do not span a simplex of SDS).
	base := topology.Simplex(2)
	sds := topology.SDS(base)
	m, k, err := FindChromaticMapCtx(context.Background(), base, sds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("found at k=%d, want 1 (identity on SDS)", k)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.ColorPreserving() || !m.CarrierRespecting() {
		t.Fatal("map must preserve colors and respect carriers")
	}
}

// TestTheorem51OnLongerPath builds a non-standard chromatic subdivision of
// s¹ (a 5-edge alternating path) and finds the Theorem 5.1 map onto it.
func TestTheorem51OnLongerPath(t *testing.T) {
	base := topology.Simplex(1)
	a := topology.NewSubdivision(base)
	// Path c0 — x1 — x2 — x3 — x4 — c1, colors 0,1,0,1,0,1.
	keys := []string{"c0", "x1", "x2", "x3", "x4", "c1"}
	colors := []int{0, 1, 0, 1, 0, 1}
	vs := make([]topology.Vertex, len(keys))
	for i := range keys {
		vs[i] = a.MustAddVertex(keys[i], colors[i])
		switch i {
		case 0:
			a.SetCarrier(vs[i], []topology.Vertex{0})
		case len(keys) - 1:
			a.SetCarrier(vs[i], []topology.Vertex{1})
		default:
			a.SetCarrier(vs[i], []topology.Vertex{0, 1})
		}
	}
	for i := 0; i+1 < len(vs); i++ {
		a.MustAddSimplex(vs[i], vs[i+1])
	}
	a.Seal()

	m, k, err := FindChromaticMapCtx(context.Background(), base, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	// SDS^k(s¹) has 3^k edges; a 5-edge path needs 3^k ≥ 5 ⇒ k = 2.
	if k != 2 {
		t.Fatalf("found at k=%d, want 2", k)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.ColorPreserving() || !m.CarrierRespecting() {
		t.Fatal("map must preserve colors and respect carriers")
	}
	// Corners must map to corners (carrier containment forces it).
	for v := 0; v < m.From.NumVertices(); v++ {
		if len(m.From.Carrier(topology.Vertex(v))) == 1 {
			img := m.Image[v]
			if len(a.Carrier(img)) != 1 {
				t.Fatalf("corner vertex %d mapped to interior %d", v, img)
			}
		}
	}
}

// TestTheorem51LevelMatchesGeometryQuick: for random alternating paths of
// odd length L (chromatic subdivisions of s¹), the found level is exactly
// the smallest k with 3^k ≥ L.
func TestTheorem51LevelMatchesGeometryQuick(t *testing.T) {
	base := topology.Simplex(1)
	for _, edges := range []int{1, 3, 5, 7, 9, 11} {
		a := topology.NewSubdivision(base)
		vs := make([]topology.Vertex, edges+1)
		for i := range vs {
			color := i % 2
			if i == edges && color == 0 {
				t.Fatalf("edges=%d must be odd for alternating colors", edges)
			}
			vs[i] = a.MustAddVertex(fmt.Sprintf("p%d", i), color)
			switch i {
			case 0:
				a.SetCarrier(vs[i], []topology.Vertex{0})
			case edges:
				a.SetCarrier(vs[i], []topology.Vertex{1})
			default:
				a.SetCarrier(vs[i], []topology.Vertex{0, 1})
			}
		}
		for i := 0; i+1 < len(vs); i++ {
			a.MustAddSimplex(vs[i], vs[i+1])
		}
		a.Seal()

		wantK := 0
		for p := 1; p < edges; p *= 3 {
			wantK++
		}
		m, k, err := FindChromaticMapCtx(context.Background(), base, a, wantK+1)
		if err != nil {
			t.Fatalf("edges=%d: %v", edges, err)
		}
		if k != wantK {
			t.Errorf("edges=%d: level %d, want %d", edges, k, wantK)
		}
		if err := m.Validate(); err != nil || !m.ColorPreserving() || !m.CarrierRespecting() {
			t.Errorf("edges=%d: map properties violated: %v", edges, err)
		}
	}
}

// TestLemma53CarrierMapToBsd finds the non-chromatic Lemma 5.3 map onto
// barycentric subdivisions.
func TestLemma53CarrierMapToBsd(t *testing.T) {
	for n := 1; n <= 2; n++ {
		base := topology.Simplex(n)
		bsd := topology.Bsd(base)
		m, k, err := FindCarrierMapCtx(context.Background(), base, bsd, 2)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if k != 1 {
			t.Fatalf("n=%d: found at k=%d, want 1 (canonical SDS→Bsd exists)", n, k)
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if !m.CarrierRespecting() {
			t.Fatal("map must respect carriers")
		}
	}
}

func TestFindChromaticMapRejectsNonChromaticTarget(t *testing.T) {
	base := topology.Simplex(1)
	if _, _, err := FindChromaticMapCtx(context.Background(), base, topology.Bsd(base), 1); err == nil {
		t.Fatal("Bsd target must be rejected for the chromatic search")
	}
}

func TestFindMapRejectsForeignBase(t *testing.T) {
	b1, b2 := topology.Simplex(1), topology.Simplex(1)
	if _, _, err := FindCarrierMapCtx(context.Background(), b1, topology.Bsd(b2), 1); err == nil {
		t.Fatal("subdivision of a different base must be rejected")
	}
}

func TestFindMapNotFound(t *testing.T) {
	// A 5-edge path cannot be reached from SDS^1 (3 edges); maxK=1 → not
	// found.
	base := topology.Simplex(1)
	a := topology.NewSubdivision(base)
	var vs []topology.Vertex
	for i := 0; i < 6; i++ {
		v := a.MustAddVertex(string(rune('a'+i)), i%2)
		if i == 0 {
			a.SetCarrier(v, []topology.Vertex{0})
		} else if i == 5 {
			a.SetCarrier(v, []topology.Vertex{1})
		} else {
			a.SetCarrier(v, []topology.Vertex{0, 1})
		}
		vs = append(vs, v)
	}
	for i := 0; i+1 < len(vs); i++ {
		a.MustAddSimplex(vs[i], vs[i+1])
	}
	a.Seal()
	_, _, err := FindChromaticMapCtx(context.Background(), base, a, 1)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// csass returns chromatic simplex agreement on a with phi, the map
// FindChromaticMapCtx found at level k, as its decision map, for
// solver.Execute.
func csass(t *testing.T, a *topology.Complex, phi *topology.SimplicialMap, k int) (*tasks.Task, *solver.Result) {
	t.Helper()
	task, err := tasks.SimplexAgreement(a)
	if err != nil {
		t.Fatal(err)
	}
	return task, &solver.Result{Task: task, Level: k, Solvable: true, Map: phi, Subdivision: phi.From}
}

// TestCSASSRuntime runs distributed chromatic simplex agreement over the
// real IIS runtime, targeting A = SDS(s²), with and without crashes.
func TestCSASSRuntime(t *testing.T) {
	const procs = 3
	base := topology.Simplex(procs - 1)
	a := topology.SDS(base)
	phi, k, err := FindChromaticMapCtx(context.Background(), base, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	task, res := csass(t, a, phi, k)

	inputs := []topology.Vertex{0, 1, 2}
	for trial := 0; trial < 30; trial++ {
		out, err := solver.Execute(task, res, inputs, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := solver.ValidateExecution(task, inputs, out, []int{0, 1, 2}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, v := range out {
			if v < 0 {
				t.Fatalf("trial %d: P%d did not decide", trial, i)
			}
		}
	}
}

func TestCSASSRuntimeWithCrash(t *testing.T) {
	const procs = 3
	base := topology.Simplex(procs - 1)
	a := topology.SDS(base)
	phi, k, err := FindChromaticMapCtx(context.Background(), base, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	task, res := csass(t, a, phi, k)
	inputs := []topology.Vertex{0, 1, 2}
	for trial := 0; trial < 20; trial++ {
		out, err := solver.Execute(task, res, inputs, []int{0, -1, -1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// P0 took no steps: not participating; survivors' outputs must be
		// carried by {1, 2}.
		if err := solver.ValidateExecution(task, inputs, out, []int{1, 2}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if out[0] != -1 {
			t.Fatal("crashed process decided")
		}
	}
}

// TestCSASSSoloRun: a solo process must converge to its own corner of A.
func TestCSASSSoloRun(t *testing.T) {
	base := topology.Simplex(1)
	a := topology.SDS(base)
	phi, k, err := FindChromaticMapCtx(context.Background(), base, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	task, res := csass(t, a, phi, k)
	inputs := []topology.Vertex{0, 1}
	out, err := solver.Execute(task, res, inputs, []int{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.ValidateExecution(task, inputs, out, []int{0}); err != nil {
		t.Fatal(err)
	}
	car := a.Carrier(out[0])
	if len(car) != 1 || car[0] != 0 {
		t.Fatalf("solo P0 decided vertex with carrier %v, want its own corner", car)
	}
}

// TestAdmittedQueries pins the level of every converge query the service
// admits (1 ≤ n ≤ 2, 1 ≤ target ≤ 2, 0 ≤ maxK ≤ 4): A = SDS^target(sⁿ) is
// first reached at k = target, so the search answers target when maxK
// reaches it and ErrNotFound otherwise.
func TestAdmittedQueries(t *testing.T) {
	for n := 1; n <= 2; n++ {
		base := topology.Simplex(n)
		for target := 1; target <= 2; target++ {
			a := topology.SDSPow(base, target)
			for maxK := 0; maxK <= 4; maxK++ {
				phi, k, err := FindChromaticMapCtx(context.Background(), base, a, maxK)
				if maxK < target {
					if !errors.Is(err, ErrNotFound) {
						t.Errorf("n=%d target=%d maxK=%d: err = %v, want ErrNotFound", n, target, maxK, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("n=%d target=%d maxK=%d: %v", n, target, maxK, err)
					continue
				}
				if k != target || phi.Validate() != nil || !phi.ColorPreserving() || !phi.CarrierRespecting() {
					t.Errorf("n=%d target=%d maxK=%d: k = %d, want %d with a valid map", n, target, maxK, k, target)
				}
			}
		}
	}
}
