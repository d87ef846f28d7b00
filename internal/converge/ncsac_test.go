package converge

import (
	"errors"
	"fmt"
	"testing"

	"waitfree/internal/topology"
)

// pathComplex builds a path a0—a1—…—a(n−1): connected, no holes.
func pathComplex(n int) *topology.Complex {
	c := topology.NewComplex()
	var vs []topology.Vertex
	for i := 0; i < n; i++ {
		vs = append(vs, c.MustAddVertex(fmt.Sprintf("a%d", i), topology.Uncolored))
	}
	for i := 0; i+1 < n; i++ {
		c.MustAddSimplex(vs[i], vs[i+1])
	}
	return c.Seal()
}

// twoComponents builds two disjoint edges: disconnected (a dimension-1
// hole in the paper's S⁰-fill-in sense).
func twoComponents() *topology.Complex {
	c := topology.NewComplex()
	a := c.MustAddVertex("a", topology.Uncolored)
	b := c.MustAddVertex("b", topology.Uncolored)
	d := c.MustAddVertex("d", topology.Uncolored)
	e := c.MustAddVertex("e", topology.Uncolored)
	c.MustAddSimplex(a, b)
	c.MustAddSimplex(d, e)
	return c.Seal()
}

func TestNCSACSolvableOnPath(t *testing.T) {
	c := pathComplex(3)
	sol, err := SolveNCSACTwoProcess(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Phi.Validate(); err != nil {
		t.Fatalf("map not simplicial: %v", err)
	}
	t.Logf("solved at level %d", sol.K)
}

func TestNCSACUnsolvableOnDisconnected(t *testing.T) {
	// Corollary of the "no holes" hypothesis: with inputs in different
	// components, no decision map exists at any level (we exhaust ≤ 2).
	_, err := SolveNCSACTwoProcess(twoComponents(), 2)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestNCSACRuntime(t *testing.T) {
	c := pathComplex(3)
	sol, err := SolveNCSACTwoProcess(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Opposite ends of the path: outputs must meet on a simplex.
	inputs := [2]topology.Vertex{0, 2}
	for trial := 0; trial < 20; trial++ {
		out, err := RunNCSAC(sol, inputs, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ValidateNCSAC(sol, inputs, out, -1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if out[0] < 0 || out[1] < 0 {
			t.Fatalf("trial %d: missing outputs %v", trial, out)
		}
	}
}

func TestNCSACSoloDecidesOwnInput(t *testing.T) {
	c := pathComplex(3)
	sol, err := SolveNCSACTwoProcess(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	inputs := [2]topology.Vertex{2, 0}
	for trial := 0; trial < 10; trial++ {
		out, err := RunNCSAC(sol, inputs, []int{-1, 0}) // P1 takes no steps
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateNCSAC(sol, inputs, out, 0); err != nil {
			t.Fatal(err)
		}
		if out[0] != inputs[0] {
			t.Fatalf("solo P0 decided %d, want its input %d", out[0], inputs[0])
		}
	}
}

func TestNCSACSameInputs(t *testing.T) {
	c := pathComplex(4)
	sol, err := SolveNCSACTwoProcess(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	inputs := [2]topology.Vertex{1, 1}
	out, err := RunNCSAC(sol, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateNCSAC(sol, inputs, out, -1); err != nil {
		t.Fatal(err)
	}
}

// TestNCSACLongPaths pins NCSAC over 5- and 9-vertex paths, which the
// plain backtracking search this package once ran did not finish: both are
// solved at level 2, and 20 runs from opposite ends validate.
func TestNCSACLongPaths(t *testing.T) {
	for _, n := range []int{5, 9} {
		sol, err := SolveNCSACTwoProcess(pathComplex(n), 3)
		if err != nil {
			t.Fatalf("path %d: %v", n, err)
		}
		if sol.K != 2 {
			t.Fatalf("path %d: solved at level %d, want 2", n, sol.K)
		}
		inputs := [2]topology.Vertex{0, topology.Vertex(n - 1)}
		for trial := 0; trial < 20; trial++ {
			out, err := RunNCSAC(sol, inputs, nil)
			if err != nil {
				t.Fatalf("path %d trial %d: %v", n, trial, err)
			}
			if err := ValidateNCSAC(sol, inputs, out, -1); err != nil {
				t.Fatalf("path %d trial %d: %v", n, trial, err)
			}
		}
	}
}

func TestNCSACRejectsForeignInput(t *testing.T) {
	c := pathComplex(3)
	sol, err := SolveNCSACTwoProcess(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunNCSAC(sol, [2]topology.Vertex{0, 99}, nil); err == nil {
		t.Fatal("foreign input vertex must be rejected")
	}
}
