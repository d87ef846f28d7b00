package solver

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// The exhaustive oracle: the solver's original plain backtracking search,
// kept only to check the production search against. It shares nothing with
// the production path but the domains and the consistency check — no face
// listing, no propagation, no decomposition, no forward checking, no
// interned carriers — so its vertex order, check schedule and node counts
// are byte-for-byte those of the pre-structured solver. The differential
// suites require the production search to reach the same verdict in no
// more nodes.

// solveExhaustive decides level b of task on sub (SDS^b of the inputs, or a
// restriction of it) by plain backtracking within DefaultMaxNodes.
func solveExhaustive(ctx context.Context, task *tasks.Task, b int, sub *topology.Complex) (*Result, error) {
	return solveExhaustiveWithin(ctx, task, b, sub, DefaultMaxNodes)
}

// solveExhaustiveWithin is solveExhaustive with a caller-chosen node budget.
func solveExhaustiveWithin(ctx context.Context, task *tasks.Task, b int, sub *topology.Complex, maxNodes int64) (*Result, error) {
	res := &Result{Task: task, Level: b, Subdivision: sub}
	domains, _ := buildDomains(task, sub)
	for _, d := range domains {
		if len(d) == 0 {
			return res, nil // unsolvable: a vertex has no legal decision
		}
	}
	nv := sub.NumVertices()
	order := searchOrder(sub, domains)
	pos := make([]int, nv) // vertex → position in order
	for p, v := range order {
		pos[v] = p
	}

	// For each simplex, the position at which its last vertex is assigned;
	// checks[p] lists simplices fully assigned exactly when position p is.
	// Carriers are precomputed: they are looked up once per search node.
	flat, carriers := flatSimplices(sub)
	checks := make([][]checkItem, nv)
	for i, s := range flat {
		last := 0
		for _, v := range s {
			if pos[v] > last {
				last = pos[v]
			}
		}
		checks[last] = append(checks[last], checkItem{simplex: s, carrier: carriers[i]})
	}

	assign := make([]topology.Vertex, nv)
	var scratch []topology.Vertex // reused image buffer; see consistent
	var dfs func(p int) (bool, error)
	dfs = func(p int) (bool, error) {
		if p == nv {
			return true, nil
		}
		v := order[p]
		for _, w := range domains[v] {
			res.Nodes++
			if res.Nodes > maxNodes {
				return false, ErrBudget
			}
			if res.Nodes&(cancelCheckInterval-1) == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return false, fmt.Errorf("%w: %w", ErrCanceled, cerr)
				}
			}
			assign[v] = w
			if consistent(task, checks[p], assign, &scratch) {
				ok, err := dfs(p + 1)
				if ok || err != nil {
					return ok, err
				}
			}
		}
		return false, nil
	}
	ok, err := dfs(0)
	if err != nil {
		return res, fmt.Errorf("%w (level %d, %d nodes)", err, b, res.Nodes)
	}
	res.Solvable = ok
	if ok {
		res.Map = topology.NewSimplicialMap(sub, task.Outputs)
		copy(res.Map.Image, assign)
	}
	return res, nil
}

// listSimplices lists every simplex of sub by definition, not through
// sub.Faces: each non-empty subset of each facet, deduplicated through a
// map of packed vertex lists and sorted per dimension. So the oracle's
// check schedule and vertex order share no enumeration with the search.
func listSimplices(sub *topology.Complex) [][][]topology.Vertex {
	seen := make(map[string]struct{})
	byDim := make([][][]topology.Vertex, sub.Dimension()+1)
	var (
		buf []byte
		s   []topology.Vertex
	)
	for _, f := range sub.Facets() {
		for mask := 1; mask < 1<<len(f); mask++ {
			s = s[:0]
			for i, v := range f {
				if mask&(1<<i) != 0 {
					s = append(s, v)
				}
			}
			buf = topology.EncodeVerts(buf[:0], s)
			if _, ok := seen[string(buf)]; ok {
				continue
			}
			seen[string(buf)] = struct{}{}
			byDim[len(s)-1] = append(byDim[len(s)-1], slices.Clone(s))
		}
	}
	for _, ss := range byDim {
		slices.SortFunc(ss, slices.Compare[[]topology.Vertex])
	}
	return byDim
}

// flatSimplices enumerates every simplex of sub with its carrier.
func flatSimplices(sub *topology.Complex) ([][]topology.Vertex, [][]topology.Vertex) {
	var flat [][]topology.Vertex
	for _, byDim := range listSimplices(sub) {
		flat = append(flat, byDim...)
	}
	carriers := make([][]topology.Vertex, len(flat))
	for i, s := range flat {
		carriers[i] = sub.CarrierOfSimplex(s)
	}
	return flat, carriers
}

// searchOrder returns a vertex ordering for the backtracking search over
// the 1-skeleton, starting from the most constrained vertices. Depth-first
// matters: it assigns each locally-constrained chain of the subdivision
// consecutively, so a conflict backtracks within the chain instead of
// thrashing across independent regions of the complex.
func searchOrder(sub *topology.Complex, domains [][]topology.Vertex) []topology.Vertex {
	nv := sub.NumVertices()
	adj := make([][]topology.Vertex, nv)
	all := listSimplices(sub)
	if len(all) > 1 {
		for _, e := range all[1] {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
	}
	for v := range adj {
		ns := adj[v]
		sort.Slice(ns, func(i, j int) bool {
			di, dj := len(domains[ns[i]]), len(domains[ns[j]])
			if di != dj {
				return di < dj
			}
			return ns[i] < ns[j]
		})
	}
	visited := make([]bool, nv)
	var order []topology.Vertex
	var dfs func(v topology.Vertex)
	dfs = func(v topology.Vertex) {
		visited[v] = true
		order = append(order, v)
		for _, u := range adj[v] {
			if !visited[u] {
				dfs(u)
			}
		}
	}
	// Seed repeatedly from the unvisited vertex with the smallest domain
	// (handles disconnected input complexes).
	for len(order) < nv {
		seed := -1
		for v := 0; v < nv; v++ {
			if !visited[v] && (seed < 0 || len(domains[v]) < len(domains[seed])) {
				seed = v
			}
		}
		dfs(topology.Vertex(seed))
	}
	return order
}
