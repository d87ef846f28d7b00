package solver

import (
	"context"
	"fmt"

	"waitfree/internal/obs"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// Sperner certificates: deciding unsolvability from the input complex,
// before any subdivision.
//
// Let σ be a simplex of the input complex whose input values are pairwise
// distinct, such that
//
//  1. for every face τ ⊆ σ, every single decision allowed for a color of τ
//     carries one of τ's input values, and
//  2. no output simplex on σ's colors that is allowed for σ carries all of
//     σ's input values.
//
// SDS^b(σ) is a chromatic subdivided simplex for every b (paper §3, Lemmas
// 3.2–3.3). Under (1), a decision map δ labels each vertex v of SDS^b(σ)
// with the vertex of carrier(v) ⊆ σ whose input value δ(v) carries: a
// Sperner labeling. Sperner's lemma gives a facet F whose labels are all of
// σ; F's carrier is σ, and δ(F) is an output simplex allowed for σ carrying
// all of σ's values, which (2) rules out. So no decision map exists at any
// level. Consensus is the case where σ is an edge {0, 1}; k-set consensus
// with k < procs is the case where σ is a facet of k+1 distinct ids.
//
// The argument needs the level over σ to be all of SDS^b(σ). An affine
// model's level is R^b(I), which is SDS^b(I) exactly when its filter keeps
// every ordered partition of every input facet (keepsAllPartitions); other
// models fall through to the search.

// Obstruct returns a Sperner certificate for task — the vertices of an
// input simplex σ meeting both conditions above, smallest dimension first —
// or nil when there is none, when restrict drops an ordered partition of an
// input facet, or when the task carries no input or output values.
func Obstruct(task *tasks.Task, restrict topology.FacetFilter) []topology.Vertex {
	if task.InputValue == nil || task.OutputValue == nil || !keepsAllPartitions(task.Inputs, restrict) {
		return nil
	}
	o := obstruction{task: task, labeled: make(map[string]bool)}
	for _, simplices := range task.Inputs.AllSimplices() {
		for _, sigma := range simplices {
			if o.certifies(sigma) {
				return sigma
			}
		}
	}
	return nil
}

// keepsAllPartitions reports whether the level filter keeps every ordered
// partition of every input facet's size, i.e. whether R^b(inputs) is
// SDS^b(inputs) at every b. A nil filter is wait-free.
func keepsAllPartitions(inputs *topology.Complex, restrict topology.FacetFilter) bool {
	if restrict == nil {
		return true
	}
	checked := make(map[int]bool)
	for _, f := range inputs.Facets() {
		m := len(f)
		if checked[m] {
			continue
		}
		checked[m] = true
		kept, err := topology.CountKeptPartitions(m, restrict)
		if err != nil || kept != topology.CountOrderedPartitions(m) {
			return false
		}
	}
	return true
}

// obstruction memoizes condition (1) per face across the candidate σ's.
type obstruction struct {
	task    *tasks.Task
	labeled map[string]bool // packed face → condition (1) holds for it
	buf     []byte
}

// certifies reports whether sigma meets both conditions.
func (o *obstruction) certifies(sigma []topology.Vertex) bool {
	values := make(map[string]bool, len(sigma))
	for _, v := range sigma {
		values[o.task.InputValue(v)] = true
	}
	if len(values) != len(sigma) {
		return false
	}
	face := make([]topology.Vertex, 0, len(sigma))
	for mask := 1; mask < 1<<len(sigma); mask++ {
		face = face[:0]
		for i, v := range sigma {
			if mask&(1<<i) != 0 {
				face = append(face, v)
			}
		}
		if !o.spernerLabeled(face) {
			return false
		}
	}
	return !o.panchromaticAllowed(sigma, values)
}

// spernerLabeled is condition (1) for one face τ: every output vertex of a
// color of τ that is allowed alone for τ carries an input value of τ.
func (o *obstruction) spernerLabeled(tau []topology.Vertex) bool {
	o.buf = topology.EncodeVerts(o.buf[:0], tau)
	if ok, seen := o.labeled[string(o.buf)]; seen {
		return ok
	}
	key := string(o.buf)
	in := o.task.Inputs
	values := make(map[string]bool, len(tau))
	for _, v := range tau {
		values[o.task.InputValue(v)] = true
	}
	ok := true
	single := make([]topology.Vertex, 1)
	for _, v := range tau {
		for _, w := range o.task.Outputs.VerticesOfColor(in.Color(v)) {
			single[0] = w
			if !values[o.task.OutputValue(w)] && o.task.Allowed(tau, single) {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
	}
	o.labeled[key] = ok
	return ok
}

// panchromaticAllowed is the negation of condition (2): some output simplex
// on sigma's colors carries every value in values and is allowed for
// sigma. Such a simplex is a face of an output facet (one vertex per color
// in a chromatic complex), so the candidates are the facets' restrictions
// to sigma's colors — or, for a vertex, every output vertex of its color.
// An output facet repeating one of sigma's colors is not chromatic; it
// counts as a panchromatic candidate, so such tasks get no certificate.
func (o *obstruction) panchromaticAllowed(sigma []topology.Vertex, values map[string]bool) bool {
	in, out := o.task.Inputs, o.task.Outputs
	carries := func(image []topology.Vertex) bool {
		seen := make(map[string]bool, len(image))
		for _, w := range image {
			val := o.task.OutputValue(w)
			if !values[val] {
				return false
			}
			seen[val] = true
		}
		return len(seen) == len(values) && o.task.Allowed(sigma, image)
	}
	if len(sigma) == 1 {
		for _, w := range out.VerticesOfColor(in.Color(sigma[0])) {
			if carries([]topology.Vertex{w}) {
				return true
			}
		}
		return false
	}
	colors := make(map[int]bool, len(sigma))
	for _, v := range sigma {
		colors[in.Color(v)] = true
	}
	image := make([]topology.Vertex, 0, len(sigma))
	for _, f := range out.Facets() {
		image = image[:0]
		for _, w := range f {
			if colors[out.Color(w)] {
				image = append(image, w)
			}
		}
		if len(image) > len(sigma) || len(image) == len(sigma) && carries(image) {
			return true
		}
	}
	return false
}

// Certify is the solver's first step when it may walk a whole subdivision
// chain: when Obstruct finds a certificate under opts.Restrict, it returns
// the unsolvable Result at maxLevel — Nodes 0, no Subdivision, the level's
// sizes from topology.SDSLevelSize — without building any level. It returns
// (nil, nil) when there is no certificate or the closed form cannot size
// the level (inputs of more than 4 processes, or counts past int), so the
// chain answers as it would without one; it records one solver.obstruct
// span either way.
func Certify(ctx context.Context, task *tasks.Task, maxLevel int, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	_, span := obs.StartSpan(ctx, "solver.obstruct")
	span.SetStr("task", task.Name)
	if opts.Model != "" {
		span.SetStr("model", opts.Model)
	}
	defer span.Finish()
	sigma := Obstruct(task, opts.Restrict)
	var vertices, facets int
	if sigma != nil {
		var err error
		if vertices, facets, err = topology.SDSLevelSize(task.Inputs, maxLevel); err != nil {
			sigma = nil
		}
	}
	span.SetInt("certified", boolInt(sigma != nil))
	if sigma == nil {
		return nil, nil
	}
	span.SetInt("face_vertices", int64(len(sigma)))
	span.SetInt("level", int64(maxLevel))
	span.SetInt("vertices", int64(vertices))
	span.SetInt("facets", int64(facets))
	return &Result{Task: task, Level: maxLevel, Certificate: sigma, Vertices: vertices, Facets: facets}, nil
}
