// Package converge makes the paper's Section 5 effective: Theorem 5.1 (for
// any chromatic subdivision A of sⁿ there is, for k large enough, a color-
// and carrier-preserving simplicial map SDS^k(sⁿ) → A) and the chromatic
// simplex agreement task (CSASS) it solves.
//
// The paper derives the theorem from the simplicial approximation theorem
// plus the simplex convergence algorithm, whose paths and fill-ins exist but
// are not constructed. Here the map is found by the solvability checker
// itself: a map SDS^k(sⁿ) → A is exactly a Proposition 3.1 decision map
// for chromatic simplex agreement on A (tasks.SimplexAgreement), so
// solver.SolveUpToCtx finds it at increasing levels k, and solver.Execute
// solves CSASS for real: run k rounds of the iterated immediate snapshot
// full-information protocol, locate your view as a vertex of SDS^k(sⁿ), and
// output its image under the map. Carrier preservation of the map is
// exactly what makes the outputs' carrier respect the participating set.
package converge

import (
	"context"
	"errors"
	"fmt"

	"waitfree/internal/obs"
	"waitfree/internal/solver"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// ErrNotFound reports that no map exists up to the given level.
var ErrNotFound = errors.New("converge: no simplicial map found up to max level")

// FindChromaticMapCtx searches for a color-preserving, carrier-respecting
// simplicial map SDS^k(base) → a, trying k = 0 … maxK, and returns the map
// and the level found, or ErrNotFound. a must be a chromatic subdivision of
// base, and base chromatic over the colors 0 … procs−1 with at most 64
// vertices (tasks.SimplexAgreement). The per-level search and the
// subdivision between levels stop cooperatively when ctx is done,
// returning an error wrapping ctx.Err().
func FindChromaticMapCtx(ctx context.Context, base, a *topology.Complex, maxK int) (*topology.SimplicialMap, int, error) {
	if !a.IsChromatic() {
		return nil, 0, fmt.Errorf("converge: target complex is not chromatic")
	}
	return findMap(ctx, base, a, maxK, true)
}

// FindCarrierMapCtx is the non-chromatic variant (Lemma 5.3): it searches
// for a carrier-respecting simplicial map SDS^k(base) → a ignoring colors.
// Use it with barycentric subdivisions and other uncolored targets; base is
// as for FindChromaticMapCtx. The search runs over a's colored copy
// (tasks.ColoredCopy) and projects the map back.
func FindCarrierMapCtx(ctx context.Context, base, a *topology.Complex, maxK int) (*topology.SimplicialMap, int, error) {
	return findMap(ctx, base, a, maxK, false)
}

func findMap(ctx context.Context, base, a *topology.Complex, maxK int, chromatic bool) (phi *topology.SimplicialMap, level int, err error) {
	if ab := a.Base(); ab != base {
		return nil, 0, fmt.Errorf("converge: target is not a subdivision of the given base")
	}
	// Tracing: one converge.map span for the whole Theorem 5.1 search,
	// carrying the level found and the domain/target sizes; the solver's
	// spans nest under it. Nil-safe no-op without a trace in ctx.
	ctx, span := obs.StartSpan(ctx, "converge.map")
	span.SetInt("max_k", int64(maxK))
	span.SetInt("target_vertices", int64(a.NumVertices()))
	defer func() {
		if phi != nil {
			span.SetInt("k", int64(level))
			span.SetInt("domain_vertices", int64(phi.From.NumVertices()))
			span.SetInt("found", 1)
		} else {
			span.SetInt("found", 0)
		}
		span.Finish()
	}()
	out := a
	var cp *tasks.ColoredCopy
	if !chromatic {
		cp = tasks.NewColoredCopy(a, len(base.Colors()))
		out = cp.Complex
	}
	task, err := tasks.SimplexAgreement(out)
	if err != nil {
		return nil, 0, err
	}
	res, err := solver.SolveUpToCtx(ctx, task, maxK, solver.Options{})
	if err != nil {
		return nil, 0, err
	}
	if !res.Solvable {
		return nil, 0, fmt.Errorf("%w (maxK=%d)", ErrNotFound, maxK)
	}
	if cp != nil {
		return cp.ProjectMap(res.Map), res.Level, nil
	}
	return res.Map, res.Level, nil
}
