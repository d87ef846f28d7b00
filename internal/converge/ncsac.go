package converge

import (
	"fmt"

	"waitfree/internal/solver"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// NCSACSolution is a compiled solution of the paper's NCSAC task
// (non-chromatic simplex agreement over a complex with no holes, §5) for
// two processes: the input complex I (vertices = (process, vertex-of-C)
// pairs, facets = all input combinations), the decision map
// φ : SDS^K(I) → C, and the level K.
type NCSACSolution struct {
	C   *topology.Complex // the target complex
	I   *topology.Complex // the input complex
	Phi *topology.SimplicialMap
	K   int

	colored *tasks.ColoredCopy // the outputs of tasks.NCSAC over C
	solved  *solver.Result     // its decision map, into the copy
}

// SolveNCSACTwoProcess compiles the two-process NCSAC task over c: each
// process holds any vertex of c as input; outputs must span a simplex of c;
// a process that runs solo must output its own input.
//
// For two processes the paper's "no holes of dimension < n+1" hypothesis is
// connectivity (every image of an S⁰ — two points — has a fill-in, i.e. a
// path). The solver finds the decision map at increasing levels; it fails
// with ErrNotFound if c is disconnected (the task is then unsolvable: a
// solo-started pair with inputs in different components has no joint
// simplex reachable without violating the solo condition).
func SolveNCSACTwoProcess(c *topology.Complex, maxK int) (*NCSACSolution, error) {
	if !c.IsConnected() {
		// Fail fast with the topological reason rather than exhausting the
		// level search: two solo-constrained inputs in different components
		// can never meet on a simplex.
		return nil, fmt.Errorf("%w: target complex is disconnected (%d components) — the no-holes hypothesis fails",
			ErrNotFound, len(c.ConnectedComponents()))
	}
	task, cp := tasks.NCSAC(c)
	res, err := solver.SolveUpTo(task, maxK, solver.Options{})
	if err != nil {
		return nil, err
	}
	if !res.Solvable {
		return nil, fmt.Errorf("%w (maxK=%d)", ErrNotFound, maxK)
	}
	return &NCSACSolution{C: c, I: task.Inputs, Phi: cp.ProjectMap(res.Map), K: res.Level, colored: cp, solved: res}, nil
}

// RunNCSAC executes the compiled solution for real (solver.Execute): both
// processes run K rounds of iterated immediate snapshots starting from
// their inputs and decide through the map. inputs are vertices of C;
// crashAfter as usual. Outputs are vertices of C (-1 for crashed
// processes).
func RunNCSAC(sol *NCSACSolution, inputs [2]topology.Vertex, crashAfter []int) ([]topology.Vertex, error) {
	in, err := sol.taskVertices(inputs[:])
	if err != nil {
		return nil, err
	}
	out, err := solver.Execute(sol.solved.Task, sol.solved, in, crashAfter)
	if err != nil {
		return nil, err
	}
	for p, w := range out {
		if w >= 0 {
			out[p] = sol.colored.Project(w)
		}
	}
	return out, nil
}

// ValidateNCSAC checks the task conditions on a run (solver.
// ValidateExecution): finisher outputs span a simplex of C, and soloProc,
// when ≥ 0, ran entirely solo and decided its input.
func ValidateNCSAC(sol *NCSACSolution, inputs [2]topology.Vertex, outputs []topology.Vertex, soloProc int) error {
	in, err := sol.taskVertices(inputs[:])
	if err != nil {
		return err
	}
	out, err := sol.taskVertices(outputs)
	if err != nil {
		return err
	}
	if soloProc >= 0 {
		solo := []topology.Vertex{-1, -1}
		solo[soloProc] = out[soloProc]
		if err := solver.ValidateExecution(sol.solved.Task, in, solo, []int{soloProc}); err != nil {
			return fmt.Errorf("converge: solo P%d: %w", soloProc, err)
		}
	}
	return solver.ValidateExecution(sol.solved.Task, in, out, []int{0, 1})
}

// taskVertices translates process p's vertex of C into the task's vertex
// (p, w); a negative entry (no vertex) stays negative.
func (sol *NCSACSolution) taskVertices(vs []topology.Vertex) ([]topology.Vertex, error) {
	out := make([]topology.Vertex, len(vs))
	for p, w := range vs {
		switch {
		case w < 0:
			out[p] = w
		case int(w) >= sol.C.NumVertices():
			return nil, fmt.Errorf("converge: %d is not a vertex of C", w)
		default:
			out[p] = sol.colored.Vertex(p, w)
		}
	}
	return out, nil
}
