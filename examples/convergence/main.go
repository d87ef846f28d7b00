// Convergence: Theorem 5.1 and chromatic simplex agreement, end to end.
//
// A non-standard chromatic subdivision A of the edge s¹ is built by hand (a
// 5-edge alternating path). The solver finds the level k and the color- and
// carrier-preserving simplicial map SDS^k(s¹) → A of Theorem 5.1, which is
// its decision map for chromatic simplex agreement on A; two concurrent
// processes then run k rounds of iterated immediate snapshots and apply the
// map (solver.Execute), converging onto a single edge (or vertex) of A.
package main

import (
	"fmt"
	"log"

	"waitfree/internal/solver"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	base := topology.Simplex(1)

	// A: c0 —x1—x2—x3—x4— c1, alternating colors; carriers: corners sit on
	// the base vertices, interior vertices on the whole edge.
	a := topology.NewSubdivision(base)
	keys := []string{"c0", "x1", "x2", "x3", "x4", "c1"}
	colors := []int{0, 1, 0, 1, 0, 1}
	vs := make([]topology.Vertex, len(keys))
	for i, key := range keys {
		vs[i] = a.MustAddVertex(key, colors[i])
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
	fmt.Printf("target A: a %d-edge chromatic subdivision of s¹\n", len(a.Facets()))

	// The Theorem 5.1 map is the solver's decision map for chromatic simplex
	// agreement on A.
	task, err := tasks.SimplexAgreement(a)
	if err != nil {
		return err
	}
	res, err := solver.SolveUpTo(task, 3, solver.Options{})
	if err != nil {
		return err
	}
	if !res.Solvable {
		return fmt.Errorf("no map SDS^k(s¹) → A for k ≤ 3")
	}
	k := res.Level
	fmt.Printf("Theorem 5.1 map found at k = %d (SDS^%d has %d edges)\n", k, k, pow(3, k))

	inputs := []topology.Vertex{0, 1}
	for trial := 0; trial < 5; trial++ {
		out, err := solver.Execute(task, res, inputs, nil)
		if err != nil {
			return err
		}
		if err := solver.ValidateExecution(task, inputs, out, []int{0, 1}); err != nil {
			return err
		}
		fmt.Printf("  trial %d: P0 → %s, P1 → %s\n", trial, a.Key(out[0]), a.Key(out[1]))
	}
	fmt.Println("every pair of outputs spans an edge of A — chromatic simplex agreement")
	return nil
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}
