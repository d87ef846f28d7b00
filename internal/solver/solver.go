// Package solver implements the decidable fragment of the paper's
// Proposition 3.1, the Herlihy–Shavit condition re-derived in the paper:
//
//	a bounded-input task T = (I, O, Δ) is wait-free solvable iff for some b
//	there is a color-preserving simplicial map δ : SDS^b(I) → O with
//	δ(s) ∈ Δ(carrier(s)) for every simplex s.
//
// SolveAtLevel decides whether such a map exists at a fixed subdivision
// level b, so "no map exists at level b" is a proof, not a timeout (unless
// the node budget is exceeded, which is reported as ErrBudget). Full
// solvability checking is undecidable for three or more processes
// [Gafni–Koutsoupias]; bounding b is what makes the checker terminate.
//
// Two search engines share the level: EngineStructured (the default)
// prunes with structure — an AC-3 arc-consistency pass over the
// 1-skeleton, dominated-vertex collapse preprocessing à la
// Benavides–Rajsbaum, independent search per connected component fanned
// out over the worker pool, and forward checking inside the backtracking —
// while EngineExhaustive is the original plain backtracking search, kept
// in-tree as the differential oracle (differential_test.go requires
// identical verdicts and structured node counts ≤ exhaustive ones).
package solver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"waitfree/internal/obs"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// ErrBudget reports that the search exceeded its node budget, so neither
// solvability nor unsolvability was established at that level.
var ErrBudget = errors.New("solver: node budget exceeded")

// ErrCanceled reports that the caller's context was canceled (or its
// deadline expired) mid-search. Like ErrBudget it means "no verdict" — the
// partial exploration proves nothing and must not be cached. It always
// wraps the underlying context error, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) distinguish the cause.
var ErrCanceled = errors.New("solver: search canceled")

// cancelCheckInterval is the cadence, in search nodes, of the cooperative
// cancellation checkpoint inside the backtracking loop. Power of two so the
// check compiles to a mask; at typical search rates (~300k nodes/s) 4096
// nodes bound the reaction latency well under the 250ms the service
// promises.
const cancelCheckInterval = 4096

// Order selects the vertex ordering strategy of the backtracking search.
type Order int

// Ordering strategies. OrderDFS is the default and is dramatically faster
// on subdivisions of low-dimensional complexes: it assigns each constrained
// chain consecutively so conflicts backtrack locally. OrderBFS is retained
// as an ablation (see bench_test.go) — it interleaves independent regions
// and can thrash across them.
const (
	OrderDFS Order = iota
	OrderBFS
)

// EngineKind selects the search engine.
type EngineKind int

const (
	// EngineStructured is the default: AC-3 arc consistency over the
	// 1-skeleton, dominated-vertex collapse preprocessing, per-component
	// decomposition with parallel fan-out, and forward checking inside the
	// backtracking. Verdicts are identical to EngineExhaustive; node counts
	// are typically far lower.
	EngineStructured EngineKind = iota
	// EngineExhaustive is the original plain backtracking search, kept as
	// the differential oracle.
	EngineExhaustive
)

// Options tunes the search.
type Options struct {
	// MaxNodes caps the number of assignment nodes explored per level.
	// 0 means DefaultMaxNodes. Under EngineStructured each independent
	// component is capped at MaxNodes and the level fails with ErrBudget
	// if any component exceeds it (or the component total does).
	MaxNodes int64

	// Order selects the vertex ordering of the exhaustive engine (default
	// OrderDFS). The structured engine always orders by current domain
	// size within each component.
	Order Order

	// Workers bounds the parallelism of the per-component search fan-out
	// under EngineStructured and of EngineExhaustive's per-simplex carrier
	// precompute: 0 means runtime.NumCPU(), 1 forces the sequential path.
	// The subdivision between levels (SolveUpTo) is sequential. The structured
	// engine's precompute — domains, edges, carriers, support tables — is
	// sequential: memoized on interned carriers and domains, it calls
	// task.Allowed once per distinct key, too few calls to fan out.
	// Verdicts and node counts are identical at any Workers value: each
	// component's search is sequential and deterministic, and the reported
	// node count is assembled in component order. Workers > 1 requires
	// task.Allowed to be safe for concurrent calls — true of every task in
	// this repository, whose Allowed closures only read immutable tables.
	Workers int

	// Engine selects the search engine (default EngineStructured).
	Engine EngineKind

	// NoCollapse disables the dominated-vertex collapse preprocessing of
	// the structured engine (ablation knob; propagation and decomposition
	// stay on). The solver also re-runs with collapse disabled internally
	// if restoring eliminated vertices ever fails, so the knob never
	// affects verdicts.
	NoCollapse bool

	// Restrict filters each subdivision level of SolveUpTo to the facets
	// of an affine model (internal/model builds these from t-resilience /
	// k-concurrency / k-set specs): level b is R^b(I), one RestrictSDS per
	// SDS application. nil means wait-free — the chain is exactly SDS^b(I),
	// the identical complexes, not merely equivalent ones.
	Restrict topology.FacetFilter

	// Model optionally names the restriction (a model canonical string)
	// for the solver.search span; purely observational.
	Model string
}

// DefaultMaxNodes is the per-level search budget.
const DefaultMaxNodes = 50_000_000

// Stats carries the structured engine's pruning telemetry for one level.
// All fields are deterministic for a given subdivision and task.
type Stats struct {
	// PrunedValues counts candidate output vertices removed from per-vertex
	// domains by the AC-3 pass (0 under EngineExhaustive).
	PrunedValues int64
	// CollapsedVertices counts vertices eliminated by the dominated-vertex
	// collapse preprocessing.
	CollapsedVertices int
	// Components is the number of independent subproblems the remaining
	// constraint graph decomposed into (0 when the search never ran, e.g.
	// propagation already emptied a domain).
	Components int
	// ComponentNodes lists the assignment nodes explored per component, in
	// deterministic component order.
	ComponentNodes []int64
	// CollapseFallback records that restoring eliminated vertices failed
	// and the level was re-searched with collapse disabled (the re-search's
	// nodes are included in Result.Nodes).
	CollapseFallback bool
}

// Result reports the outcome of a solvability check.
type Result struct {
	Task     *tasks.Task
	Level    int  // subdivision level b checked
	Solvable bool // whether a decision map exists at Level

	// Map is the decision map when Solvable (From = Subdivision, To =
	// task.Outputs).
	Map         *topology.SimplicialMap
	Subdivision *topology.Complex // SDS^Level(Inputs)

	Nodes int64 // assignment nodes explored
	Stats Stats // structured-engine pruning telemetry
}

// SolveAtLevel decides whether the task has a decision map at subdivision
// level b.
func SolveAtLevel(task *tasks.Task, b int, opts Options) (*Result, error) {
	return SolveAtLevelOn(context.Background(), task, b, topology.SDSPow(task.Inputs, b), opts)
}

// SolveAtLevelOn is SolveAtLevel with the subdivision supplied by the
// caller: sub must be SDS^b(task.Inputs) (or a vertex-for-vertex identical
// complex, e.g. one rehydrated from the engine's content-addressed cache).
// Sharing the subdivision is what lets the engine amortize the ~13^b
// construction across queries and levels.
//
// The search honors ctx cooperatively: the backtracking loop checks for
// cancellation every cancelCheckInterval nodes (amortized — the checkpoint
// does not perturb node counts, which stay deterministic) and returns
// ErrCanceled wrapping ctx.Err() if the caller has gone away.
func SolveAtLevelOn(ctx context.Context, task *tasks.Task, b int, sub *topology.Complex, opts Options) (res *Result, err error) {
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	res = &Result{Task: task, Level: b, Subdivision: sub}
	// Tracing: one solver.search span per level, carrying the search's
	// deterministic combinatorics — node counts, domain prunes, component
	// split, and collapse counts are identical run-to-run, so the trace is
	// a checkable witness, not a sample. Nil-safe no-op when ctx carries no
	// trace.
	ctx, span := obs.StartSpan(ctx, "solver.search")
	span.SetInt("level", int64(b))
	span.SetInt("vertices", int64(sub.NumVertices()))
	span.SetInt("facets", int64(len(sub.Facets())))
	span.SetStr("task", task.Name)
	span.SetStr("engine", engineName(opts.Engine))
	if opts.Model != "" {
		span.SetStr("model", opts.Model)
	}
	defer func() {
		span.SetInt("nodes", res.Nodes)
		span.SetInt("solvable", boolInt(res.Solvable))
		span.SetInt("pruned_domains", res.Stats.PrunedValues)
		span.SetInt("components", int64(res.Stats.Components))
		span.SetInt("collapsed_vertices", int64(res.Stats.CollapsedVertices))
		if len(res.Stats.ComponentNodes) > 0 {
			span.SetStr("component_nodes", int64List(res.Stats.ComponentNodes))
		}
		if err != nil {
			span.SetStr("error", errKind(err))
		}
		span.Finish()
	}()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("%w: %w", ErrCanceled, err)
	}

	domains, domIDs := buildDomains(task, sub)
	for _, d := range domains {
		if len(d) == 0 {
			return res, nil // unsolvable: a vertex has no legal decision
		}
	}

	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("%w: %w", ErrCanceled, err)
	}

	if opts.Engine == EngineExhaustive {
		err = solveExhaustive(ctx, task, sub, domains, opts, maxNodes, res)
	} else {
		err = solveStructured(ctx, task, sub, domains, domIDs, opts, maxNodes, res)
	}
	if err != nil {
		return res, fmt.Errorf("%w (level %d, %d nodes)", err, b, res.Nodes)
	}
	return res, nil
}

// buildDomains returns each vertex's domain: the output vertices of its
// color allowed as a singleton decision for its carrier. A domain depends
// only on the (carrier, color) pair, of which a subdivision has few, so each
// distinct pair is computed once and its vertices share the slice (domains
// are never written after this). ids[v] numbers v's domain by content:
// vertices have equal ids exactly when their domains are equal, which is
// what the structured engine keys its support tables on. Distinct pairs are
// few and their distinct domains fewer, so a linear scan numbers them.
func buildDomains(task *tasks.Task, sub *topology.Complex) (domains [][]topology.Vertex, ids []int32) {
	domains = make([][]topology.Vertex, sub.NumVertices())
	ids = make([]int32, len(domains))
	memo := make(map[string]int32) // (color, carrier) → domain id
	var distinct [][]topology.Vertex
	var key []byte
	single := make([]topology.Vertex, 1)
	for v := range domains {
		carrier, color := sub.Carrier(topology.Vertex(v)), sub.Color(topology.Vertex(v))
		key = topology.EncodeVerts(binary.LittleEndian.AppendUint32(key[:0], uint32(color)), carrier)
		id, ok := memo[string(key)]
		if !ok {
			var d []topology.Vertex
			for _, w := range task.Outputs.VerticesOfColor(color) {
				single[0] = w
				if task.Allowed(carrier, single) {
					d = append(d, w)
				}
			}
			id = int32(slices.IndexFunc(distinct, func(e []topology.Vertex) bool { return slices.Equal(e, d) }))
			if id < 0 {
				id = int32(len(distinct))
				distinct = append(distinct, d)
			}
			memo[string(key)] = id
		}
		domains[v], ids[v] = distinct[id], id
	}
	return domains, ids
}

// solveExhaustive is the original plain backtracking search, preserved as
// the differential oracle: vertex order, check schedule, and node counts
// are byte-for-byte those of the pre-structured solver.
func solveExhaustive(ctx context.Context, task *tasks.Task, sub *topology.Complex, domains [][]topology.Vertex, opts Options, maxNodes int64, res *Result) error {
	nv := sub.NumVertices()
	order := searchOrder(sub, domains, opts.Order)
	pos := make([]int, nv) // vertex → position in order
	for p, v := range order {
		pos[v] = p
	}

	// For each simplex, the position at which its last vertex is assigned;
	// checks[p] lists simplices fully assigned exactly when position p is.
	// Carriers are precomputed (in parallel — the dominant cost of this
	// phase): they are looked up once per search node.
	flat, carriers := flatSimplices(sub, opts.Workers)
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
	var nodes int64
	var dfs func(p int) (bool, error)
	dfs = func(p int) (bool, error) {
		if p == nv {
			return true, nil
		}
		v := order[p]
		for _, w := range domains[v] {
			nodes++
			if nodes > maxNodes {
				return false, ErrBudget
			}
			if nodes&(cancelCheckInterval-1) == 0 {
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
	res.Nodes = nodes
	if err != nil {
		return err
	}
	res.Solvable = ok
	if ok {
		m := topology.NewSimplicialMap(sub, task.Outputs)
		copy(m.Image, assign)
		res.Map = m
	}
	return nil
}

// flatSimplices enumerates every simplex of sub with its carrier, carriers
// computed on the worker pool (the dominant cost of precompute).
func flatSimplices(sub *topology.Complex, workers int) ([][]topology.Vertex, [][]topology.Vertex) {
	all := sub.AllSimplices()
	var flat [][]topology.Vertex
	for _, byDim := range all {
		flat = append(flat, byDim...)
	}
	carriers := make([][]topology.Vertex, len(flat))
	parallelRange(len(flat), workers, func(i int) {
		carriers[i] = sub.CarrierOfSimplex(flat[i])
	})
	return flat, carriers
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func engineName(e EngineKind) string {
	if e == EngineExhaustive {
		return "exhaustive"
	}
	return "structured"
}

// int64List renders per-component node counts as a compact span attribute.
func int64List(vs []int64) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
	return b.String()
}

// errKind names the search-failure class for span attributes.
func errKind(err error) string {
	switch {
	case errors.Is(err, ErrBudget):
		return "budget"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

// checkItem is a simplex with its precomputed carrier.
type checkItem struct {
	simplex []topology.Vertex
	carrier []topology.Vertex
}

// consistent verifies every newly completed simplex: its image must be a
// simplex of the output complex and allowed for the simplex's carrier.
// scratch is a caller-owned buffer reused across calls so the hot loop
// allocates nothing (the pre-PR-8 version allocated a fresh image slice per
// check item per search node); it is grown on demand and returned through
// the pointer.
func consistent(task *tasks.Task, newly []checkItem, assign []topology.Vertex, scratch *[]topology.Vertex) bool {
	for _, item := range newly {
		image := (*scratch)[:0]
		for _, v := range item.simplex {
			image = append(image, assign[v])
		}
		image = dedupe(image)
		*scratch = image[:0]
		if len(image) > 1 && !task.Outputs.HasSimplex(image) {
			return false
		}
		if !task.Allowed(item.carrier, image) {
			return false
		}
	}
	return true
}

// dedupe sorts and deduplicates in place. Insertion sort, deliberately:
// images are tiny (≤ procs vertices) and this runs once per check item per
// search node, where sort.Slice's closure allocation alone was measurable
// churn (see TestConsistentAllocFree).
func dedupe(vs []topology.Vertex) []topology.Vertex {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// searchOrder returns a vertex ordering for the backtracking search over
// the 1-skeleton, starting from the most constrained vertices. Depth-first
// (the default) matters: it assigns each locally-constrained chain of the
// subdivision consecutively, so a conflict backtracks within the chain
// instead of thrashing across independent regions of the complex.
// Breadth-first is kept for the ordering ablation.
//
// Adjacency lists are copied and sorted once up front (domain sizes are
// fixed for the duration of the ordering, so per-visit re-sorting — what
// the pre-PR-8 version did — produced the same order at O(deg log deg)
// extra cost per visit; solver_test.go pins the emitted order against that
// original formulation on the golden tasks).
func searchOrder(sub *topology.Complex, domains [][]topology.Vertex, strategy Order) []topology.Vertex {
	nv := sub.NumVertices()
	adj := make([][]topology.Vertex, nv)
	all := sub.AllSimplices()
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
	bfs := func(seed topology.Vertex) {
		queue := []topology.Vertex{seed}
		visited[seed] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, u := range adj[v] {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
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
		if strategy == OrderBFS {
			bfs(topology.Vertex(seed))
		} else {
			dfs(topology.Vertex(seed))
		}
	}
	return order
}

// SolveUpTo tries levels 0 … maxLevel and returns the first solvable result,
// or the last (unsolvable) one. A budget error at any level aborts.
func SolveUpTo(task *tasks.Task, maxLevel int, opts Options) (*Result, error) {
	return SolveUpToCtx(context.Background(), task, maxLevel, opts)
}

// subdivide is the between-levels subdivision step, a variable so tests can
// inject non-cancellation failures (SolveUpToCtx must not misreport those
// as client disconnects; see the ErrCanceled wrapping below).
var subdivide = topology.SDSCtx

// SolveUpToCtx is SolveUpTo honoring ctx: both the per-level search and the
// subdivision step between levels stop cooperatively when the caller goes
// away, returning ErrCanceled.
//
// The subdivision chain is built incrementally — level b's SDS^b(I) is one
// subdivision of level b−1's complex, not a recomputation from
// scratch — so the total subdivision cost is that of the last level alone.
func SolveUpToCtx(ctx context.Context, task *tasks.Task, maxLevel int, opts Options) (*Result, error) {
	var last *Result
	sub := task.Inputs
	for b := 0; b <= maxLevel; b++ {
		if b > 0 {
			next, err := subdivide(ctx, sub)
			if err != nil {
				// Only a subdivision failure caused by the caller going away
				// is a cancellation; anything else (a genuine construction
				// failure) must surface as itself, or the serving layer
				// would misclassify a server-side 500 as a client 499.
				if ctx.Err() != nil {
					return last, fmt.Errorf("%w: %w", ErrCanceled, err)
				}
				return last, fmt.Errorf("solver: subdivision to level %d failed: %w", b, err)
			}
			if opts.Restrict != nil {
				// Restrict in the same step that built the level, while the
				// arena provenance (the ordered-partition block sizes) is
				// live; rehydrated complexes cannot be restricted.
				next, err = topology.RestrictSDS(next, opts.Restrict)
				if err != nil {
					return last, fmt.Errorf("solver: restricting level %d failed: %w", b, err)
				}
			}
			sub = next
		}
		res, err := SolveAtLevelOn(ctx, task, b, sub, opts)
		if err != nil {
			return res, err
		}
		if res.Solvable {
			return res, nil
		}
		last = res
	}
	return last, nil
}

// parallelRange runs fn(i) for i in [0, n) on a worker pool of the given
// size (0 = runtime.NumCPU(), 1 = inline). fn must only write state owned
// by index i.
func parallelRange(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// VerifyDecisionMap independently re-checks a claimed decision map against
// the Proposition 3.1 conditions. Used by tests and by callers that persist
// maps.
func VerifyDecisionMap(task *tasks.Task, res *Result) error {
	if !res.Solvable || res.Map == nil {
		return errors.New("solver: result carries no map")
	}
	if err := res.Map.Validate(); err != nil {
		return fmt.Errorf("solver: map not simplicial: %w", err)
	}
	if !res.Map.ColorPreserving() {
		return errors.New("solver: map not color preserving")
	}
	sub := res.Subdivision
	for _, byDim := range sub.AllSimplices() {
		for _, s := range byDim {
			image := res.Map.ImageSimplex(s)
			if !task.Allowed(sub.CarrierOfSimplex(s), image) {
				return fmt.Errorf("solver: simplex %v image %v not allowed for its carrier", s, image)
			}
		}
	}
	return nil
}
