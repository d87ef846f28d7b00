package solver

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// Independent decomposition. A simplex is a clique of the 1-skeleton, so
// every constraint (binary or higher) lives entirely inside one connected
// component of the constraint graph. The level therefore splits into
// independent subproblems: a decision map exists iff every component admits
// one, and the assignments compose by disjoint union. Components are
// searched one after another in a fixed order, each sequentially and
// deterministically, and the level stops at the first component without a
// map. The node budget covers the whole level: each component searches with
// what the earlier ones left.

// component is one independent subproblem: its vertices in search order and
// the higher-dimensional (dim ≥ 2) check schedule, indexed by position in
// that order. Binary constraints are handled by forward checking; singleton
// constraints were folded into the domains.
type component struct {
	order  []int
	checks [][]checkItem
}

// components splits the vertices into the connected components of sub's
// 1-skeleton (isolated vertices form their own components), ordered by
// smallest vertex, each with a min-domain depth-first search order and its
// check schedule.
func (st *searchState) components(sub *topology.Complex) []*component {
	groups := sub.ConnectedComponents()
	out := make([]*component, len(groups))
	comp := make([]int, len(st.vals))
	pos := make([]int, len(st.vals))
	visited := make([]bool, len(st.vals))
	for id, members := range groups {
		c := &component{order: st.orderComponent(members, visited)}
		for p, v := range c.order {
			comp[v], pos[v] = id, p
		}
		c.checks = make([][]checkItem, len(c.order))
		out[id] = c
	}
	// Schedule each dim ≥ 2 simplex at the position (within its
	// component's order) where its last vertex is assigned. Dim 0 is folded
	// into domains, dim 1 into forward checking. Only levels propagation
	// left undecided get here, so only they list faces past the edges.
	for k := 3; k <= sub.Dimension()+1; k++ {
		for _, s := range sub.Faces(k) {
			last := -1
			for _, v := range s {
				last = max(last, pos[v])
			}
			cid := st.carriers.of(s)
			c := out[comp[s[0]]]
			c.checks[last] = append(c.checks[last], checkItem{simplex: s, carrier: st.carriers.list[cid]})
		}
	}
	return out
}

// orderComponent orders one component's vertices for the backtracking
// search: depth-first over the adjacency, seeded at the most constrained
// vertex, visiting neighbors by ascending current domain size (then index).
// The domain sizes are the post-propagation counts — the AC-3 pass
// typically leaves corner chains as singletons, which the ordering then
// assigns first. Each member's incident list is sorted into that visiting
// order in place, which moves only the order in which forwardCheck prunes
// the neighbors: whether a neighbor empties does not depend on it, and a
// failed check undoes every pruning, so node counts stay the same. visited
// marks vertices across the level's components.
func (st *searchState) orderComponent(members []topology.Vertex, visited []bool) []int {
	for _, m := range members {
		v := int(m)
		slices.SortFunc(st.incident[v], func(a, b int32) int {
			na, nb := st.edges[a].other(v), st.edges[b].other(v)
			return cmp.Or(cmp.Compare(st.count[na], st.count[nb]), cmp.Compare(na, nb))
		})
	}
	order := make([]int, 0, len(members))
	var dfs func(v int)
	dfs = func(v int) {
		visited[v] = true
		order = append(order, v)
		for _, ei := range st.incident[v] {
			if u := st.edges[ei].other(v); !visited[u] {
				dfs(u)
			}
		}
	}
	for len(order) < len(members) {
		seed := -1
		for _, v := range members {
			if !visited[int(v)] && (seed < 0 || st.count[v] < st.count[seed]) {
				seed = int(v)
			}
		}
		dfs(seed)
	}
	return order
}

// searchComponent runs the forward-checking backtracking search on one
// component within a budget of maxNodes. A found map stays in
// st.assign/st.assigned. Forward checking only prunes neighbors, which lie
// in the same component, so what a search leaves on its trail never reaches
// another component's domains.
func (st *searchState) searchComponent(ctx context.Context, c *component, maxNodes int64) (found bool, nodes int64, err error) {
	var (
		trail   []trailEntry
		scratch []topology.Vertex
	)
	n := len(c.order)
	var dfs func(p int) (bool, error)
	dfs = func(p int) (bool, error) {
		if p == n {
			return true, nil
		}
		v := c.order[p]
		for i, w := range st.vals[v] {
			if !st.active[v][i] {
				continue
			}
			nodes++
			if nodes > maxNodes {
				return false, ErrBudget
			}
			if nodes&(cancelCheckInterval-1) == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return false, fmt.Errorf("%w: %w", ErrCanceled, cerr)
				}
			}
			st.assign[v] = w
			st.assigned[v] = true
			if consistent(st.task, c.checks[p], st.assign, &scratch) {
				mark, ok := st.forwardCheck(v, i, &trail)
				if ok {
					found, err := dfs(p + 1)
					if found || err != nil {
						return found, err
					}
				}
				st.undo(&trail, mark)
			}
			st.assigned[v] = false
		}
		return false, nil
	}
	found, err = dfs(0)
	return found, nodes, err
}

// searchLevel decides the level: propagate, decompose, then search the
// components in order until one has no map or the level's budget runs out.
func searchLevel(ctx context.Context, task *tasks.Task, sub *topology.Complex, domains [][]topology.Vertex, domIDs []int32, maxNodes int64, res *Result) error {
	st := newSearchState(task, sub, domains, domIDs)
	pruned, ok, err := st.propagate(ctx)
	res.Stats.PrunedValues = pruned
	if err != nil {
		return err
	}
	if !ok {
		return nil // an emptied domain is an unsolvability proof
	}

	comps := st.components(sub)
	res.Stats.Components = len(comps)
	for _, c := range comps {
		found, nodes, err := st.searchComponent(ctx, c, maxNodes-res.Nodes)
		res.Nodes += nodes
		res.Stats.ComponentNodes = append(res.Stats.ComponentNodes, nodes)
		if err != nil || !found {
			return err
		}
	}
	res.Solvable = true
	res.Map = &topology.SimplicialMap{From: sub, To: task.Outputs, Image: st.assign}
	return nil
}
