package engine

import (
	"fmt"
	"math"

	"waitfree/internal/model"
	"waitfree/internal/solver"
)

// Cost estimation: the admission controller's closed-form model of how much
// work a query commits the engine to, measured in facets materialized —
// computed from the Lemma 3.3 recurrence without building any subdivision.
//
// Each m-vertex facet of a level-b complex subdivides into Fubini(m) facets
// at level b+1 (the lemma's facets(b) = Fubini(n+1)·facets(b−1) in closed
// form), so the chain a query walks materializes
//
//	Σ_{b=0}^{B} Σ_{facets f of I} Fubini(|f|)^b
//
// facets in total. That sum is the dominant memory and subdivision cost of
// solve/complex/converge queries, and — unlike the solver's backtracking
// node count — it is computable exactly, in microseconds, before admitting
// the query. The serving layer rejects estimates over its budget with 400
// (wrapping ErrOverBudget) before a worker slot is ever committed, the same
// way the emulation accounts for steps before granting them.

// CostUnbounded is returned when the estimate overflows int64 — by
// definition over any configurable budget.
const CostUnbounded = int64(math.MaxInt64)

// satAdd and satMul saturate at CostUnbounded instead of wrapping.
func satAdd(a, b int64) int64 {
	if a > CostUnbounded-b {
		return CostUnbounded
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > CostUnbounded/b {
		return CostUnbounded
	}
	return a * b
}

// chainCost is Σ_{b=0}^{maxLevel} facets·Fubini(m)^b: the total facet count
// of a subdivision chain whose base has `facets` facets of m vertices each.
func chainCost(facets int64, m, maxLevel int) int64 {
	return chainCostModel(facets, m, maxLevel, model.WaitFree())
}

// chainCostModel generalizes chainCost to restricted chains: an accepted
// facet keeps its full m vertices, so the per-level multiplier of R^b is
// constant — the count of model-allowed ordered partitions of an m-set,
// which for wait-free is exactly Fubini(m) via the same checked recurrence.
//
// The walk stops once the total saturates, which a multiplier of at least
// 2 reaches within 63 levels; a multiplier of 1 (a one-vertex facet)
// keeps every level at `facets`, so that sum is one product. Either way
// the estimate takes as few steps at the largest level a peer key can name
// as at b = 3.
func chainCostModel(facets int64, m, maxLevel int, spec model.Spec) int64 {
	branch, err := spec.CountAllowedPartitions(m)
	if err != nil {
		return CostUnbounded
	}
	if branch == 1 {
		return satAdd(satMul(facets, int64(maxLevel)), facets)
	}
	var total, level int64 = 0, facets
	for b := 0; b <= maxLevel && total < CostUnbounded; b++ {
		total = satAdd(total, level)
		level = satMul(level, int64(branch))
	}
	return total
}

// EstimateCost returns the Lemma 3.3 facet-count estimate for a solve query:
// the total facets of the (restricted) subdivision chain over the task's
// input complex through MaxLevel, priced from the input complex's shape
// (TaskSpec.inputShape) without building the task. Invalid specs — the
// task's or the model's — return the same ErrInvalid the engine would, so
// the serving layer's admission pass rejects an unknown model with 400
// before the request key is ever derived or looked up.
func (r SolveRequest) EstimateCost() (int64, error) {
	if r.MaxLevel < 0 || r.MaxLevel > MaxSolveLevel {
		return 0, fmt.Errorf("%w: max_level=%d out of range [0,%d]", ErrInvalid, r.MaxLevel, MaxSolveLevel)
	}
	if err := r.Spec.Check(); err != nil {
		return 0, err
	}
	spec, err := model.Parse(r.Model)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	facets, size := r.Spec.inputShape()
	if err := spec.Validate(size); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return chainCostModel(facets, size, r.MaxLevel, spec), nil
}

// EstimateCost returns the facet-count estimate for a complex query: the
// chain over the standard n-simplex through level B.
func (r ComplexRequest) EstimateCost() (int64, error) {
	if r.N < 0 || r.B < 0 {
		return 0, fmt.Errorf("%w: n=%d b=%d must be non-negative", ErrInvalid, r.N, r.B)
	}
	return chainCost(1, r.N+1, r.B), nil
}

// EstimateCost returns the facet-count estimate for a converge query: the
// target chain through Target plus the domain chain through MaxK (the search
// walks every domain level up to MaxK).
func (r ConvergeRequest) EstimateCost() (int64, error) {
	if r.N < 0 || r.Target < 0 || r.MaxK < 0 {
		return 0, fmt.Errorf("%w: n=%d target=%d max_k=%d must be non-negative", ErrInvalid, r.N, r.Target, r.MaxK)
	}
	return satAdd(chainCost(1, r.N+1, r.Target), chainCost(1, r.N+1, r.MaxK)), nil
}

// EstimateCost returns the cost of an adversary replay: one emulated step
// per budgeted step per process — far below any facet-denominated budget,
// which is the point: replays are always cheap to admit.
func (r AdversaryRequest) EstimateCost() (int64, error) {
	if err := r.validate(); err != nil {
		return 0, err
	}
	steps := int64(r.MaxSteps)
	if steps <= 0 {
		steps = 1024 // the replay's own default budget bounds it
	}
	return satMul(int64(r.Procs)+1, steps), nil
}

// recordSolve feeds one computed solve query's chain totals into the
// solver metrics: every level the chain searched, including a level that
// ended in ErrBudget or ErrCanceled, since its partial node count is real
// work. res is nil only when the query was canceled before any level.
func (e *Engine) recordSolve(res *solver.Result) {
	if res == nil {
		return
	}
	e.metrics.Add("solver_nodes_total", res.Chain.Nodes)
	e.metrics.Add("solver_pruned_values_total", res.Chain.PrunedValues)
	e.metrics.Add("solver_components_total", int64(res.Chain.Components))
}
