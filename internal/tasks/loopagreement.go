package tasks

import (
	"fmt"

	"waitfree/internal/topology"
)

// LoopAgreement builds the 3-process loop agreement task of
// Herlihy–Rajsbaum, the family behind the undecidability result the paper
// cites ([9], Gafni–Koutsoupias): fix a complex K, three corner vertices,
// and three connecting paths forming a loop λ. Each process starts with its
// id; outputs are vertices of K spanning a simplex; a solo process decides
// its corner, a pair decides on its connecting path, the full triple decides
// anywhere in K. The task is wait-free solvable iff λ is contractible in K —
// which is what makes solvability undecidable in general, and what the
// bounded checker probes on small instances.
//
// corners[i] is process i's corner; paths[0] connects corners 0–1, paths[1]
// corners 1–2, paths[2] corners 0–2. Paths are vertex sequences in K
// (including both endpoints) along edges of K.
func LoopAgreement(k *topology.Complex, corners [3]topology.Vertex, paths [3][]topology.Vertex) (*Task, error) {
	const procs = 3
	// Validate paths.
	ends := [3][2]topology.Vertex{
		{corners[0], corners[1]},
		{corners[1], corners[2]},
		{corners[0], corners[2]},
	}
	for pi, path := range paths {
		if len(path) == 0 {
			return nil, fmt.Errorf("tasks: path %d empty", pi)
		}
		if path[0] != ends[pi][0] || path[len(path)-1] != ends[pi][1] {
			return nil, fmt.Errorf("tasks: path %d does not connect its corners", pi)
		}
		for i := 0; i+1 < len(path); i++ {
			if !k.HasSimplex([]topology.Vertex{path[i], path[i+1]}) {
				return nil, fmt.Errorf("tasks: path %d leaves the complex between %d and %d", pi, path[i], path[i+1])
			}
		}
	}

	ids := []string{"0", "1", "2"}
	inputs, inVals := buildAssignments(procs, inKey, [][]string{ids})

	// Output complex: vertices (process, K-vertex); a tuple is a simplex when
	// its K-parts span a simplex of K — K's colored copy.
	out := NewColoredCopy(k, procs)

	pathSets := [3]map[topology.Vertex]bool{}
	for pi, path := range paths {
		pathSets[pi] = make(map[topology.Vertex]bool, len(path))
		for _, v := range path {
			pathSets[pi][v] = true
		}
	}
	pairPath := map[[2]int]int{{0, 1}: 0, {1, 2}: 1, {0, 2}: 2}

	task := &Task{
		Name:    "loop-agreement",
		Procs:   procs,
		Inputs:  inputs,
		Outputs: out.Complex,
		Allowed: func(in, outSimplex []topology.Vertex) bool {
			// Participating processes (input vertices are one per color).
			var participants []int
			for _, v := range in {
				participants = append(participants, inputs.Color(v))
			}
			switch len(participants) {
			case 1:
				corner := corners[participants[0]]
				for _, w := range outSimplex {
					if out.Project(w) != corner {
						return false
					}
				}
				return true
			case 2:
				a, b := participants[0], participants[1]
				if a > b {
					a, b = b, a
				}
				set := pathSets[pairPath[[2]int{a, b}]]
				for _, w := range outSimplex {
					if !set[out.Project(w)] {
						return false
					}
				}
				return true
			default:
				return true
			}
		},
		InputValue:  inVals.get,
		OutputValue: func(v topology.Vertex) string { return k.Key(out.Project(v)) },
	}
	return task, nil
}
