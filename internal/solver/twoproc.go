package solver

import (
	"fmt"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// TwoProcResult is the outcome of the exact two-process decision procedure.
type TwoProcResult struct {
	Solvable bool
	// Level is a sufficient subdivision level when solvable: the smallest b
	// with 3^b ≥ the longest connecting path over any input edge (SDS cuts
	// an edge into 3 per level).
	Level int
	// Corners records the chosen decision for each input vertex when
	// solvable.
	Corners map[topology.Vertex]topology.Vertex
}

// DecideTwoProcess decides wait-free solvability of a two-process task
// EXACTLY — no level bound. In contrast with three or more processes
// (undecidable, Gafni–Koutsoupias), for n+1 = 2 the characterization
// reduces to graph connectivity:
//
// A decision map on SDS^b of an input edge e = {u0, u1} is a walk in the
// output graph H_e (vertices: outputs allowed for carrier e; edges: output
// edges allowed for e) from a decision for the u0-corner to a decision for
// the u1-corner, where corner decisions must additionally be allowed for
// the solo carriers {u0}, {u1}. Since input edges share corner vertices,
// corner decisions must be chosen consistently across the whole input
// complex. The task is solvable iff such a global corner assignment exists
// — a finite search — and the required level is the longest shortest-path,
// log₃-compressed.
func DecideTwoProcess(task *tasks.Task) (*TwoProcResult, error) {
	if task.Procs != 2 {
		return nil, fmt.Errorf("solver: DecideTwoProcess requires a 2-process task, got %d", task.Procs)
	}
	in, out := task.Inputs, task.Outputs

	// Per input vertex: the solo-allowed output vertices of its color.
	soloAllowed := make(map[topology.Vertex][]topology.Vertex)
	for v := 0; v < in.NumVertices(); v++ {
		iv := topology.Vertex(v)
		for _, w := range out.VerticesOfColor(in.Color(iv)) {
			if task.Allowed([]topology.Vertex{iv}, []topology.Vertex{w}) {
				soloAllowed[iv] = append(soloAllowed[iv], w)
			}
		}
		if len(soloAllowed[iv]) == 0 {
			return &TwoProcResult{Solvable: false}, nil
		}
	}

	// Per input edge: pairwise shortest-path distances in H_e between
	// output vertices (∞ if disconnected or not allowed for e).
	type edgeInfo struct {
		u0, u1 topology.Vertex // corners colored 0 and 1 (by in colors)
		dist   map[[2]topology.Vertex]int
	}
	var edges []edgeInfo
	for _, e := range in.Facets() {
		if len(e) != 2 {
			if len(e) == 1 {
				continue // isolated input vertex: solo constraint only
			}
			return nil, fmt.Errorf("solver: input complex has a facet of size %d", len(e))
		}
		info := edgeInfo{u0: e[0], u1: e[1], dist: edgeDistances(task, e)}
		edges = append(edges, info)
	}

	// Search for a global corner assignment: pick c(v) ∈ soloAllowed[v]
	// such that for every edge, dist(c(u0), c(u1)) < ∞.
	order := make([]topology.Vertex, 0, in.NumVertices())
	for v := 0; v < in.NumVertices(); v++ {
		order = append(order, topology.Vertex(v))
	}
	assign := make(map[topology.Vertex]topology.Vertex, len(order))
	longest := 0

	var dfs func(idx int) bool
	dfs = func(idx int) bool {
		if idx == len(order) {
			// All assigned; compute the longest needed path.
			longest = 0
			for _, e := range edges {
				d := e.dist[[2]topology.Vertex{assign[e.u0], assign[e.u1]}]
				if d > longest {
					longest = d
				}
			}
			return true
		}
		v := order[idx]
		for _, w := range soloAllowed[v] {
			assign[v] = w
			ok := true
			for _, e := range edges {
				c0, has0 := assign[e.u0]
				c1, has1 := assign[e.u1]
				if !has0 || !has1 {
					continue
				}
				if _, conn := e.dist[[2]topology.Vertex{c0, c1}]; !conn {
					ok = false
					break
				}
			}
			if ok && dfs(idx+1) {
				return true
			}
		}
		delete(assign, v)
		return false
	}
	if !dfs(0) {
		return &TwoProcResult{Solvable: false}, nil
	}

	// Smallest b with 3^b ≥ longest (integer arithmetic — no float logs).
	level := 0
	for p := 1; p < longest; p *= 3 {
		level++
	}
	corners := make(map[topology.Vertex]topology.Vertex, len(assign))
	for k, v := range assign {
		corners[k] = v
	}
	return &TwoProcResult{Solvable: true, Level: level, Corners: corners}, nil
}

// edgeDistances computes shortest path lengths (in edges) between all pairs
// of output vertices within the graph of outputs allowed for the input edge
// e, walking only output edges allowed for e. Distance 0 is the vertex
// itself; absent key means unreachable.
func edgeDistances(task *tasks.Task, e []topology.Vertex) map[[2]topology.Vertex]int {
	out := task.Outputs
	nv := out.NumVertices()
	allowedVertex := make([]bool, nv)
	for w := 0; w < nv; w++ {
		allowedVertex[w] = task.Allowed(e, []topology.Vertex{topology.Vertex(w)})
	}
	// Adjacency restricted to allowed edges.
	adj := make([][]topology.Vertex, nv)
	for _, oe := range out.Faces(2) {
		a, b := oe[0], oe[1]
		if !allowedVertex[a] || !allowedVertex[b] {
			continue
		}
		if !task.Allowed(e, []topology.Vertex{a, b}) {
			continue
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	dist := make(map[[2]topology.Vertex]int)
	for s := 0; s < nv; s++ {
		if !allowedVertex[s] {
			continue
		}
		// BFS from s.
		d := map[topology.Vertex]int{topology.Vertex(s): 0}
		queue := []topology.Vertex{topology.Vertex(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range adj[v] {
				if _, seen := d[u]; !seen {
					d[u] = d[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for v, dv := range d {
			dist[[2]topology.Vertex{topology.Vertex(s), v}] = dv
		}
	}
	return dist
}
