// Package solver implements the decidable fragment of the paper's
// Proposition 3.1, the Herlihy–Shavit condition re-derived in the paper:
//
//	a bounded-input task T = (I, O, Δ) is wait-free solvable iff for some b
//	there is a color-preserving simplicial map δ : SDS^b(I) → O with
//	δ(s) ∈ Δ(carrier(s)) for every simplex s.
//
// SolveAtLevelOn decides whether such a map exists at a fixed subdivision
// level b, so "no map exists at level b" is a proof, not a timeout (unless
// the node budget is exceeded, which is reported as ErrBudget). Full
// solvability checking is undecidable for three or more processes
// [Gafni–Koutsoupias]; bounding b is what makes the checker terminate.
//
// The level is decided by one search path: an AC-3 arc-consistency pass
// over the 1-skeleton, a split of the constraint graph into connected
// components, and a sequential forward-checking backtracking search per
// component that stops at the first component without a map. It is the
// one decision-map search in production: Theorem 5.1's convergence map
// and §5's NCSAC map (internal/converge) are decision maps of tasks too.
// The original plain backtracking search is kept in oracle_test.go as the
// differential oracle (differential_test.go requires identical verdicts
// and node counts no larger than the oracle's).
package solver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

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

// Options tunes the search.
type Options struct {
	// MaxNodes caps the number of assignment nodes explored per level,
	// across all of its components: each component searches with the
	// budget the earlier ones left. 0 means DefaultMaxNodes.
	MaxNodes int64

	// Workers is ignored.
	//
	// Deprecated: the search is sequential; leave Workers unset.
	Workers int

	// Restrict filters each subdivision level of SolveUpTo to the facets
	// of an affine model (internal/model builds these from t-resilience /
	// k-concurrency / k-set specs): level b is R^b(I), one
	// topology.Subdivide step per level. nil means wait-free — the chain is
	// exactly SDS^b(I), the identical complexes, not merely equivalent ones.
	Restrict topology.FacetFilter

	// Model optionally names the restriction (a model canonical string)
	// for the solver.search span; purely observational.
	Model string
}

// DefaultMaxNodes is the per-level search budget.
const DefaultMaxNodes = 50_000_000

// Stats carries the search's pruning telemetry for one level. All fields
// are deterministic for a given subdivision and task.
type Stats struct {
	// PrunedValues counts candidate output vertices removed from per-vertex
	// domains by the AC-3 pass.
	PrunedValues int64
	// Components is the number of independent subproblems the constraint
	// graph decomposed into (0 when the search never ran, e.g. propagation
	// already emptied a domain).
	Components int
	// ComponentNodes lists the assignment nodes explored per component, in
	// component order, up to and including the first component that found
	// no map or ran out of budget.
	ComponentNodes []int64
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

	// Vertices and Facets are the sizes of level Level: Subdivision's when
	// it was built, the closed form's (topology.SDSLevelSize) when a
	// certificate decided the task without building it.
	Vertices, Facets int

	// Certificate, when non-nil, is the input simplex that proves the task
	// unsolvable at every level: σ of a Sperner certificate (obstruct), or
	// the two vertices p, q of a path certificate. CertificateKind names
	// which (CertificateSperner or CertificatePath). Subdivision is then
	// nil and Nodes 0.
	Certificate     []topology.Vertex
	CertificateKind string

	Nodes int64 // assignment nodes explored at Level
	Stats Stats // pruning telemetry at Level

	// Chain sums Nodes, Stats.PrunedValues and Stats.Components over every
	// level SolveUpToCtx searched, Level included, even one that ended in
	// ErrBudget or ErrCanceled; zero for a certified result.
	Chain struct {
		Nodes, PrunedValues int64
		Components          int
	}
}

// SolveAtLevelOn decides whether the task has a decision map at
// subdivision level b, on the level sub supplied by the caller: sub must be
// SDS^b(task.Inputs) — R^b under opts.Restrict — or a vertex-for-vertex
// identical complex. SolveUpToCtx's chain walk searches each level it
// builds here.
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
	res = &Result{Task: task, Level: b, Subdivision: sub, Vertices: sub.NumVertices(), Facets: len(sub.Facets())}
	// Tracing: one solver.search span per level, carrying the search's
	// deterministic combinatorics — node counts, domain prunes and the
	// component split are identical run-to-run, so the trace is a checkable
	// witness, not a sample. Nil-safe no-op when ctx carries no trace.
	ctx, span := obs.StartSpan(ctx, "solver.search")
	span.SetInt("level", int64(b))
	span.SetInt("vertices", int64(res.Vertices))
	span.SetInt("facets", int64(res.Facets))
	span.SetStr("task", task.Name)
	if opts.Model != "" {
		span.SetStr("model", opts.Model)
	}
	defer func() {
		span.SetInt("nodes", res.Nodes)
		span.SetInt("solvable", boolInt(res.Solvable))
		span.SetInt("pruned_domains", res.Stats.PrunedValues)
		span.SetInt("components", int64(res.Stats.Components))
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

	if err := searchLevel(ctx, task, sub, domains, domIDs, maxNodes, res); err != nil {
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
// what the search keys its support tables on. Distinct pairs are few and
// their distinct domains fewer, so a linear scan numbers them.
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

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
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

// consistent verifies every newly completed simplex: its image under the
// assignment must be a simplex of the output complex and allowed for the
// simplex's carrier. scratch is a caller-owned buffer reused across calls,
// grown on demand and returned through the pointer, so the hot loop
// allocates nothing.
func consistent(task *tasks.Task, newly []checkItem, assign []topology.Vertex, scratch *[]topology.Vertex) bool {
	m := topology.SimplicialMap{Image: assign}
	for _, item := range newly {
		image := m.AppendImage((*scratch)[:0], item.simplex)
		*scratch = image
		if len(image) > 1 && !task.Outputs.HasSimplex(image) {
			return false
		}
		if !task.Allowed(item.carrier, image) {
			return false
		}
	}
	return true
}

// SolveUpTo tries levels 0 … maxLevel and returns the first solvable result,
// or the last (unsolvable) one. A budget error at any level aborts.
func SolveUpTo(task *tasks.Task, maxLevel int, opts Options) (*Result, error) {
	return SolveUpToCtx(context.Background(), task, maxLevel, opts)
}

// subdivide is the between-levels subdivision step, a variable so tests can
// inject non-cancellation failures (SolveUpToCtx must not misreport those
// as client disconnects; see the ErrCanceled wrapping below).
var subdivide = topology.Subdivide

// SolveUpToCtx is SolveUpTo honoring ctx: both the per-level search and the
// subdivision step between levels stop cooperatively when the caller goes
// away, returning ErrCanceled.
//
// A task with a certificate (certify) is answered unsolvable at maxLevel
// before any level is built. Otherwise the subdivision chain is built
// incrementally — level b's SDS^b(I) is one subdivision of level b−1's
// complex, not a recomputation from scratch — so the total subdivision
// cost is that of the last level alone.
//
// A Result comes back with every nil error, and with an error once a level
// was searched: the failed level, or the last one searched when a
// subdivision step failed. A negative maxLevel is an error.
func SolveUpToCtx(ctx context.Context, task *tasks.Task, maxLevel int, opts Options) (*Result, error) {
	if maxLevel < 0 {
		return nil, fmt.Errorf("solver: max level %d is negative", maxLevel)
	}
	if res, err := certify(ctx, task, maxLevel, opts); res != nil || err != nil {
		return res, err
	}
	return searchChain(ctx, task, maxLevel, opts)
}

// searchChain is SolveUpToCtx without the certificate: it builds and
// searches levels 0 … maxLevel in turn.
func searchChain(ctx context.Context, task *tasks.Task, maxLevel int, opts Options) (*Result, error) {
	var last *Result
	sub := task.Inputs
	for b := 0; b <= maxLevel; b++ {
		if b > 0 {
			next, err := subdivide(ctx, sub, 1, opts.Restrict)
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
			sub = next
		}
		res, err := SolveAtLevelOn(ctx, task, b, sub, opts)
		if last != nil {
			res.Chain = last.Chain
		}
		res.Chain.Nodes += res.Nodes
		res.Chain.PrunedValues += res.Stats.PrunedValues
		res.Chain.Components += res.Stats.Components
		if err != nil || res.Solvable {
			return res, err
		}
		last = res
	}
	return last, nil
}

// VerifyDecisionMap re-checks a claimed decision map against the
// Proposition 3.1 conditions, simplex by simplex. It reads the same face
// list as the search (Complex.Faces) and the same image and carrier of a
// simplex (SimplicialMap.AppendImage, Complex.AppendCarrierOfSimplex), but
// none of its constraint machinery: no support tables, propagation, forward
// checking, check schedule or carrier interning. Used by tests and by
// callers that persist maps.
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
	var image, carrier []topology.Vertex
	for _, byDim := range sub.AllSimplices() {
		for _, s := range byDim {
			image = res.Map.AppendImage(image[:0], s)
			carrier = sub.AppendCarrierOfSimplex(carrier[:0], s)
			if !task.Allowed(carrier, image) {
				return fmt.Errorf("solver: simplex %v image %v not allowed for its carrier", s, image)
			}
		}
	}
	return nil
}
