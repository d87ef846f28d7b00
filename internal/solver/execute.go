package solver

import (
	"fmt"
	"slices"

	"waitfree/internal/protocol"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// Execute runs a solvable task for real: the decision map δ : SDS^b(I) → O
// found by the checker is compiled into a distributed protocol — every
// process runs b rounds of the iterated immediate snapshot full-information
// protocol starting from its input vertex and decides δ(final view). This is
// the constructive content of the paper's characterization: solvability
// verdicts are not just certificates, they are runnable programs.
//
// inputs[i] is process i's input vertex in task.Inputs (the vertex must have
// color i, and the tuple must be an input simplex). crashAfter[i] ≥ 0 stops
// process i after that many rounds. The returned slice has the decided
// output vertex per process, or −1 for processes that crashed before
// deciding.
func Execute(task *tasks.Task, res *Result, inputs []topology.Vertex, crashAfter []int) ([]topology.Vertex, error) {
	if !res.Solvable || res.Map == nil {
		return nil, fmt.Errorf("solver: cannot execute an unsolvable result")
	}
	if len(inputs) != task.Procs {
		return nil, fmt.Errorf("solver: %d inputs for %d processes", len(inputs), task.Procs)
	}
	keys := make([]string, task.Procs)
	for i, v := range inputs {
		if int(v) < 0 || int(v) >= task.Inputs.NumVertices() {
			return nil, fmt.Errorf("solver: input %d out of range", v)
		}
		if task.Inputs.Color(v) != i {
			return nil, fmt.Errorf("solver: input vertex %d has color %d, want %d", v, task.Inputs.Color(v), i)
		}
		keys[i] = task.Inputs.Key(v)
	}
	if !task.Inputs.HasSimplex(inputs) {
		return nil, fmt.Errorf("solver: inputs %v are not an input simplex", inputs)
	}

	run, err := protocol.RunFullInfoWithInputs(keys, res.Level, crashAfter)
	if err != nil {
		return nil, err
	}
	out := make([]topology.Vertex, task.Procs)
	for i := range out {
		out[i] = -1
	}
	for i, key := range run.Keys {
		if key == "" {
			continue
		}
		v, ok := res.Subdivision.VertexByKey(key)
		if !ok {
			return nil, fmt.Errorf("solver: P%d view %q is not a vertex of SDS^%d(I)", i, key, res.Level)
		}
		out[i] = res.Map.Image[v]
	}
	return out, nil
}

// ValidateExecution checks a run's outputs against the task: the finishers'
// decisions span a simplex of the output complex, each process decided a
// vertex of its own color, and the decisions are allowed for the
// participants' input simplex. participating lists the processes that took
// at least one step (crashed-before-start processes are excluded from the
// carrier).
func ValidateExecution(task *tasks.Task, inputs []topology.Vertex, outputs []topology.Vertex, participating []int) error {
	var inSimplex []topology.Vertex
	for _, p := range participating {
		inSimplex = append(inSimplex, inputs[p])
	}
	var outSimplex []topology.Vertex
	for p, w := range outputs {
		if w < 0 {
			continue
		}
		if task.Outputs.Color(w) != p {
			return fmt.Errorf("solver: P%d decided a vertex of color %d", p, task.Outputs.Color(w))
		}
		outSimplex = append(outSimplex, w)
	}
	if len(outSimplex) == 0 {
		return nil
	}
	slices.Sort(outSimplex)
	outSimplex = slices.Compact(outSimplex)
	if !task.Outputs.HasSimplex(outSimplex) {
		return fmt.Errorf("solver: decisions %v do not span an output simplex", outSimplex)
	}
	if len(inSimplex) == 0 {
		return fmt.Errorf("solver: decisions exist but no process participated")
	}
	slices.Sort(inSimplex)
	inSimplex = slices.Compact(inSimplex)
	if !task.Allowed(inSimplex, outSimplex) {
		return fmt.Errorf("solver: decisions %v not allowed for participating inputs %v", outSimplex, inSimplex)
	}
	return nil
}
