package solver

import (
	"context"
	"fmt"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// Constraint propagation for the search. The binary constraints of the
// decision-map problem live on the 1-skeleton of the subdivision: for an
// edge {u, v}, the pair of decisions (δ(u), δ(v)) must be a simplex of the
// output complex and allowed for the edge's carrier. searchState
// materializes those constraints once — a boolean support table per edge,
// shared by every edge with the same carrier and endpoint domains — and
// then uses them twice: an AC-3 arc-consistency pass before the search
// (pruning per-vertex domains to values that have a support across every
// incident edge) and forward checking inside the backtracking (pruning
// unassigned neighbors' domains the moment a vertex is assigned, so a dead
// branch dies at its first emptied domain instead of after a full facet is
// assigned). Higher-dimensional constraints (triangles and up) cannot be
// tabulated this way without blowing memory; they are verified by an
// incremental checkItem schedule (decompose.go).

// edgeRec is one 1-simplex {u, v} (u < v) with a flat support table:
// ok[i*dv+j] reports whether (vals[u][i], vals[v][j]) is a legal decision
// pair for this edge. Tables are shared between edges with the same carrier
// and endpoint domains (see supportKey) and are never written after
// newSearchState.
type edgeRec struct {
	u, v int
	dv   int    // len(vals[v]), the row stride of ok
	ok   []bool // len(vals[u]) × len(vals[v])
}

// supportKey identifies a support table by what its entries are computed
// from: the edge's interned carrier and its endpoints' interned domains.
// Outputs.HasSimplex and task.Allowed are pure functions of the carrier and
// the decision pair, so two edges with equal keys have equal tables.
type supportKey struct {
	carrier, du, dv int32
}

// trailEntry records one forward-checking domain deactivation for undo.
type trailEntry struct {
	vert int
	idx  int
}

// searchState is the search's per-level state: fixed value tables with
// active masks (so pruning is O(1) flag flips, original value order is
// preserved, and undo is a trail walk), the edge support tables, and the
// one adjacency over them.
type searchState struct {
	task *tasks.Task

	vals   [][]topology.Vertex // initial (post-domain-build) values per vertex
	active [][]bool            // active[v][i]: vals[v][i] still in the domain
	count  []int               // number of active values per vertex

	carriers *carrierTable
	edges    []edgeRec
	// incident[v] lists the ids of v's edges, ascending until
	// orderComponent re-sorts a member's list by neighbor; the neighbor and
	// the orientation come from the edge record.
	incident [][]int32

	assigned []bool
	assign   []topology.Vertex
}

// newSearchState builds what propagation reads and nothing more: the
// domains' active masks, the edges (in sub.Faces(2) order, which fixes
// AC-3's revision order and so Stats.PrunedValues), their interned
// carriers, one support table per distinct (carrier, domain, domain)
// key — a handful per level, since chromatic output complexes have few
// vertices per color — and the incident-edge lists, carved from one array
// in edge order. domIDs are buildDomains' ids: vertices with equal ids
// share a domain.
func newSearchState(task *tasks.Task, sub *topology.Complex, domains [][]topology.Vertex, domIDs []int32) *searchState {
	nv := sub.NumVertices()
	st := &searchState{
		task:     task,
		vals:     domains,
		active:   make([][]bool, nv),
		count:    make([]int, nv),
		carriers: newCarrierTable(sub),
		assigned: make([]bool, nv),
		assign:   make([]topology.Vertex, nv),
	}
	for v := 0; v < nv; v++ {
		st.active[v] = make([]bool, len(domains[v]))
		for i := range st.active[v] {
			st.active[v][i] = true
		}
		st.count[v] = len(domains[v])
	}

	edgeFaces := sub.Faces(2)
	st.edges = make([]edgeRec, len(edgeFaces))
	tables := make(map[supportKey][]bool)
	pair := make([]topology.Vertex, 2)
	for i, s := range edgeFaces {
		u, v := s[0], s[1]
		cid := st.carriers.of(s)
		du, dv := st.vals[u], st.vals[v]
		key := supportKey{carrier: cid, du: domIDs[u], dv: domIDs[v]}
		ok, seen := tables[key]
		if !seen {
			carrier := st.carriers.list[cid]
			ok = make([]bool, len(du)*len(dv))
			for a, wu := range du {
				for b, wv := range dv {
					pair[0], pair[1] = wu, wv
					ok[a*len(dv)+b] = task.Outputs.HasSimplex(pair) && task.Allowed(carrier, pair)
				}
			}
			tables[key] = ok
		}
		st.edges[i] = edgeRec{u: int(u), v: int(v), dv: len(dv), ok: ok}
	}

	degree := make([]int32, nv)
	for _, e := range st.edges {
		degree[e.u]++
		degree[e.v]++
	}
	backing := make([]int32, 2*len(st.edges))
	st.incident = make([][]int32, nv)
	off := 0
	for v, d := range degree {
		st.incident[v] = backing[off : off : off+int(d)]
		off += int(d)
	}
	for i, e := range st.edges {
		st.incident[e.u] = append(st.incident[e.u], int32(i))
		st.incident[e.v] = append(st.incident[e.v], int32(i))
	}
	return st
}

// other returns the endpoint of e that is not v.
func (e *edgeRec) other(v int) int {
	if e.u == v {
		return e.v
	}
	return e.u
}

// propagate runs AC-3 to a fixpoint: a vertex-based worklist — when v's
// domain shrinks, every neighbor u is revised against v (a value of u
// survives only with at least one active support across the {u, v} edge).
// Returns the number of values pruned and whether every domain stayed
// non-empty (false = the level is unsolvable with zero search nodes: any
// decision map restricted to an edge would be a support).
func (st *searchState) propagate(ctx context.Context) (pruned int64, ok bool, err error) {
	nv := len(st.vals)
	inQueue := make([]bool, nv)
	queue := make([]int, 0, nv)
	for v := 0; v < nv; v++ {
		queue = append(queue, v)
		inQueue[v] = true
	}
	steps := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		if steps++; steps&(cancelCheckInterval-1) == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return pruned, false, fmt.Errorf("%w: %w", ErrCanceled, cerr)
			}
		}
		// Revise every neighbor u against v.
		for _, ei := range st.incident[v] {
			e := &st.edges[ei]
			u := e.other(v)
			changed := false
			for i, act := range st.active[u] {
				if !act {
					continue
				}
				if !st.hasSupport(e, u, i, v) {
					st.active[u][i] = false
					st.count[u]--
					pruned++
					changed = true
				}
			}
			if st.count[u] == 0 {
				return pruned, false, nil
			}
			if changed && !inQueue[u] {
				queue = append(queue, u)
				inQueue[u] = true
			}
		}
	}
	return pruned, true, nil
}

// hasSupport reports whether value index i of vertex u has at least one
// active supporting value at the other endpoint of edge e.
func (st *searchState) hasSupport(e *edgeRec, u, i, other int) bool {
	if u == e.u {
		for j, act := range st.active[other] {
			if act && e.ok[i*e.dv+j] {
				return true
			}
		}
		return false
	}
	for j, act := range st.active[other] {
		if act && e.ok[j*e.dv+i] {
			return true
		}
	}
	return false
}

// pairOK reports whether value index iOwner at endpoint owner of e and
// value index iNbr at the other endpoint satisfy the edge.
func (e *edgeRec) pairOK(owner, iOwner, iNbr int) bool {
	if owner == e.v {
		return e.ok[iNbr*e.dv+iOwner]
	}
	return e.ok[iOwner*e.dv+iNbr]
}

// forwardCheck prunes the domains of v's unassigned neighbors down to
// values supported by the assignment vals[v][iv], recording every
// deactivation on the caller's trail. Returns the trail mark to undo to and
// whether all neighbor domains stayed non-empty.
func (st *searchState) forwardCheck(v, iv int, trail *[]trailEntry) (mark int, ok bool) {
	mark = len(*trail)
	for _, ei := range st.incident[v] {
		e := &st.edges[ei]
		u := e.other(v)
		if st.assigned[u] {
			continue
		}
		for j, act := range st.active[u] {
			if !act {
				continue
			}
			if !e.pairOK(v, iv, j) {
				st.active[u][j] = false
				st.count[u]--
				*trail = append(*trail, trailEntry{vert: u, idx: j})
			}
		}
		if st.count[u] == 0 {
			return mark, false
		}
	}
	return mark, true
}

// undo rewinds the trail to mark, reactivating every value deactivated
// since.
func (st *searchState) undo(trail *[]trailEntry, mark int) {
	t := *trail
	for i := len(t) - 1; i >= mark; i-- {
		st.active[t[i].vert][t[i].idx] = true
		st.count[t[i].vert]++
	}
	*trail = t[:mark]
}
