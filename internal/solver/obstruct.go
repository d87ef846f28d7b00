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
// models try the path certificate below, and otherwise fall through to the
// search.
//
// Path certificates: deciding consensus-type tasks under an affine model
// from one round. Let the input complex be pure with m-vertex facets,
// 2 ≤ m ≤ 4, and
//
//	(a) restrict keeps an ordered partition of an m-set whose first block
//	    is one process — for every process, since filters read block
//	    sizes only;
//	(b) R(s^{m−1}) is connected;
//	(c) some input facet τ holds vertices p and q with different inputs,
//	    every decision allowed for p alone carries p's input and every one
//	    allowed for q alone carries q's, and every facet of the output
//	    complex carries a single value on τ's colors.
//
// Then R^b(τ) is connected for every b, by induction: each R(φ) over a
// facet φ of R^{b−1}(τ) is a relabeled R(s^{m−1}), and two facets sharing
// a vertex v both hold v's solo vertex (v, {v}), which (a) keeps. The
// iterated solo vertices of p and q lie in R^b(τ) with carriers {p} and
// {q}, so a decision map sends them to p's and q's different inputs; but
// it maps every edge of R^b(τ) into an output facet, which carries one
// value on τ's colors, so it is constant along a path between them. So no
// decision map exists at any level (Gafni–Kuznetsov–Manolescu read a
// model as a set of IIS runs; (a) and (b) say the runs of one round
// connect the solo runs). Consensus is the case the service meets: under
// t-resilience with 0 < t < m − 1 and under k-concurrency with k < m (at
// m ≥ 3 for k = 1), where no Sperner certificate applies.

// obstruct returns a Sperner certificate for task — the vertices of an
// input simplex σ meeting both conditions above, smallest dimension first —
// or nil when there is none, when restrict drops an ordered partition of an
// input facet, or when the task carries no input or output values.
func obstruct(task *tasks.Task, restrict topology.FacetFilter) []topology.Vertex {
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

// pathObstruct returns a path certificate for task under restrict — the
// vertices p and q of condition (c) — and the one-round complex
// R(s^{m−1}) of condition (b), from which the level's sizes follow; or
// nils when any condition fails or the task carries no input or output
// values.
func pathObstruct(task *tasks.Task, restrict topology.FacetFilter) ([]topology.Vertex, *topology.Complex) {
	in := task.Inputs
	if task.InputValue == nil || task.OutputValue == nil || len(in.Facets()) == 0 || !in.IsPure() {
		return nil, nil
	}
	m := len(in.Facets()[0])
	if m < 2 || m > 4 || !keepsSoloFirst(m, restrict) {
		return nil, nil
	}
	o := obstruction{task: task, labeled: make(map[string]bool)}
	for _, tau := range in.Facets() {
		pq := o.soloPair(tau)
		if pq == nil || !o.agreesOn(tau) {
			continue
		}
		// One restricted level over one simplex, at most 75 facets: built
		// under a bare context, so a traced query records no sds.subdivide.
		round, err := topology.Subdivide(context.Background(), topology.Simplex(m-1), 1, restrict)
		if err != nil || !round.IsConnected() {
			return nil, nil
		}
		return pq, round
	}
	return nil, nil
}

// keepsSoloFirst is condition (a): restrict keeps some ordered partition
// of an m-set whose first block has one element.
func keepsSoloFirst(m int, restrict topology.FacetFilter) bool {
	kept := false
	sizes := make([]int, 0, m)
	topology.ForEachOrderedPartition(m, func(blocks [][]int) {
		if kept || len(blocks[0]) != 1 {
			return
		}
		sizes = sizes[:0]
		for _, b := range blocks {
			sizes = append(sizes, len(b))
		}
		kept = restrict == nil || restrict(sizes)
	})
	return kept
}

// soloPair returns the first two vertices of tau, in facet order, with
// different inputs whose solo decisions each carry their own input.
func (o *obstruction) soloPair(tau []topology.Vertex) []topology.Vertex {
	for i, p := range tau {
		if !o.spernerLabeled(tau[i : i+1]) {
			continue
		}
		for j := i + 1; j < len(tau); j++ {
			q := tau[j]
			if o.task.InputValue(p) != o.task.InputValue(q) && o.spernerLabeled(tau[j:j+1]) {
				return []topology.Vertex{p, q}
			}
		}
	}
	return nil
}

// agreesOn reports whether every output facet carries a single value on
// tau's colors: agreement lives in the output complex, since Allowed checks
// validity only.
func (o *obstruction) agreesOn(tau []topology.Vertex) bool {
	in, out := o.task.Inputs, o.task.Outputs
	colors := make(map[int]bool, len(tau))
	for _, v := range tau {
		colors[in.Color(v)] = true
	}
	for _, f := range out.Facets() {
		value, seen := "", false
		for _, w := range f {
			if !colors[out.Color(w)] {
				continue
			}
			if val := o.task.OutputValue(w); !seen {
				value, seen = val, true
			} else if val != value {
				return false
			}
		}
	}
	return true
}

// Certificate kinds, as Result.CertificateKind and the solver.obstruct
// span's certificate attribute name them.
const (
	CertificateSperner = "sperner"
	CertificatePath    = "path"
)

// certify is SolveUpToCtx's first step, before it walks the subdivision
// chain: when obstruct finds a Sperner certificate under opts.Restrict, or,
// under a model that drops an ordered partition, pathObstruct finds a path
// certificate, it returns the unsolvable Result at maxLevel — Nodes 0, no
// Subdivision, the level's sizes from the closed form
// (topology.SDSLevelSize, or topology.RestrictedFVector over the path
// certificate's one-round complex) — without building any level. It returns
// (nil, nil) when there is no certificate or the closed form cannot size
// the level (inputs of more than 4 processes, or counts past int), so the
// chain answers as it would without one; it records one solver.obstruct
// span either way.
func certify(ctx context.Context, task *tasks.Task, maxLevel int, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	_, span := obs.StartSpan(ctx, "solver.obstruct")
	span.SetStr("task", task.Name)
	if opts.Model != "" {
		span.SetStr("model", opts.Model)
	}
	defer span.Finish()
	res := certificateFor(task, maxLevel, opts.Restrict)
	span.SetInt("certified", boolInt(res != nil))
	if res == nil {
		return nil, nil
	}
	span.SetStr("certificate", res.CertificateKind)
	span.SetInt("face_vertices", int64(len(res.Certificate)))
	span.SetInt("level", int64(maxLevel))
	span.SetInt("vertices", int64(res.Vertices))
	span.SetInt("facets", int64(res.Facets))
	return res, nil
}

// certificateFor is certify without the span.
func certificateFor(task *tasks.Task, maxLevel int, restrict topology.FacetFilter) *Result {
	if sigma := obstruct(task, restrict); sigma != nil {
		vertices, facets, err := topology.SDSLevelSize(task.Inputs, maxLevel)
		if err != nil {
			return nil
		}
		return &Result{Task: task, Level: maxLevel, Certificate: sigma, CertificateKind: CertificateSperner, Vertices: vertices, Facets: facets}
	}
	if keepsAllPartitions(task.Inputs, restrict) {
		return nil
	}
	pq, round := pathObstruct(task, restrict)
	if pq == nil {
		return nil
	}
	f, err := topology.RestrictedFVector(task.Inputs.FVector(), round, maxLevel)
	if err != nil {
		return nil
	}
	return &Result{Task: task, Level: maxLevel, Certificate: pq, CertificateKind: CertificatePath, Vertices: f[0], Facets: f[len(f)-1]}
}
