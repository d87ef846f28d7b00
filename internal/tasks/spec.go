// Package tasks defines distributed tasks as the paper's §3.2 triples
// (Iⁿ, Oⁿ, Δ) — chromatic input and output complexes with an allowed-output
// relation — together with wait-free runtime algorithms for the tasks the
// paper discusses (set consensus, renaming, approximate agreement).
//
// The Allowed predicate encodes Δ: Allowed(si, so) reports whether the
// (possibly partial) output simplex so may result from an execution whose
// participating set and inputs are the input simplex si. Allowed must be
// monotone: if an output simplex is allowed, so is each of its faces — which
// is what lets the solver prune on partial assignments.
package tasks

import (
	"fmt"
	"strconv"

	"waitfree/internal/topology"
)

// Task is an input-output relation over chromatic complexes.
type Task struct {
	Name    string
	Procs   int // number of processes (the paper's n+1)
	Inputs  *topology.Complex
	Outputs *topology.Complex

	// Allowed reports whether the output simplex (vertices of Outputs, any
	// order, possibly a partial face) is permitted for the input simplex
	// (vertices of Inputs). Both are non-empty. Must be monotone under
	// taking faces of the output.
	Allowed func(input, output []topology.Vertex) bool

	// InputValue and OutputValue recover the value payload of a vertex
	// (e.g. "0"/"1" for binary consensus, a name for renaming).
	InputValue  func(topology.Vertex) string
	OutputValue func(topology.Vertex) string
}

// inKey/outKey are the canonical vertex key formats shared by all tasks.
func inKey(proc int, val string) string  { return fmt.Sprintf("in(P%d=%s)", proc, val) }
func outKey(proc int, val string) string { return fmt.Sprintf("out(P%d=%s)", proc, val) }

// valueTable tracks vertex → value payloads during construction.
type valueTable map[topology.Vertex]string

func (vt valueTable) get(v topology.Vertex) string { return vt[v] }

// buildAssignments constructs a chromatic complex whose facets are the given
// per-process value assignments: for each assignment a (len = procs), the
// facet {(i, a[i])}. Vertices are shared across assignments.
func buildAssignments(procs int, key func(int, string) string, assignments [][]string) (*topology.Complex, valueTable) {
	c := topology.NewComplex()
	vals := make(valueTable)
	for _, a := range assignments {
		facet := make([]topology.Vertex, procs)
		for i, val := range a {
			v := c.MustAddVertex(key(i, val), i)
			vals[v] = val
			facet[i] = v
		}
		c.MustAddSimplex(facet...)
	}
	return c.Seal(), vals
}

// allAssignments enumerates every length-procs vector over domain.
func allAssignments(procs int, domain []string) [][]string {
	var out [][]string
	cur := make([]string, procs)
	var rec func(i int)
	rec = func(i int) {
		if i == procs {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for _, d := range domain {
			cur[i] = d
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// valueSet collects the values of the given vertices.
func valueSet(vt valueTable, vs []topology.Vertex) map[string]struct{} {
	set := make(map[string]struct{}, len(vs))
	for _, v := range vs {
		set[vt.get(v)] = struct{}{}
	}
	return set
}

// Consensus returns the binary consensus task for the given number of
// processes: inputs 0/1 per process, all processes must decide the same
// value, which must be some participant's input. The paper's FLP-rooted
// impossibility (§1) says it is not wait-free solvable for ≥ 2 processes;
// the solver confirms no simplicial map exists at any checked level.
func Consensus(procs int) *Task {
	domain := []string{"0", "1"}
	inputs, inVals := buildAssignments(procs, inKey, allAssignments(procs, domain))
	// Output facets: unanimity.
	var outFacets [][]string
	for _, d := range domain {
		a := make([]string, procs)
		for i := range a {
			a[i] = d
		}
		outFacets = append(outFacets, a)
	}
	outputs, outVals := buildAssignments(procs, outKey, outFacets)

	return &Task{
		Name:    fmt.Sprintf("consensus-%dp", procs),
		Procs:   procs,
		Inputs:  inputs,
		Outputs: outputs,
		Allowed: func(in, out []topology.Vertex) bool {
			valid := valueSet(inVals, in)
			for _, w := range out {
				if _, ok := valid[outVals.get(w)]; !ok {
					return false
				}
			}
			return true
		},
		InputValue:  inVals.get,
		OutputValue: outVals.get,
	}
}

// SetConsensus returns the (procs, k)-set consensus task of Chaudhuri (§3.2
// example): each process's input is its own id; each participant decides an
// id of a participant, with at most k distinct ids decided overall.
// Wait-free solvable iff k ≥ procs (the celebrated impossibility for
// k < procs proven by [5, 6, 7]).
func SetConsensus(procs, k int) *Task {
	ids := make([]string, procs)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	// Inputs: a single facet — process i holds its id.
	inputs, inVals := buildAssignments(procs, inKey, [][]string{ids})
	// Outputs: assignments of ids with at most k distinct values.
	var outFacets [][]string
	for _, a := range allAssignments(procs, ids) {
		set := make(map[string]struct{})
		for _, v := range a {
			set[v] = struct{}{}
		}
		if len(set) <= k {
			outFacets = append(outFacets, a)
		}
	}
	outputs, outVals := buildAssignments(procs, outKey, outFacets)

	return &Task{
		Name:    fmt.Sprintf("set-consensus-%dp-%d", procs, k),
		Procs:   procs,
		Inputs:  inputs,
		Outputs: outputs,
		Allowed: func(in, out []topology.Vertex) bool {
			// Validity: decided ids must belong to participants (the input
			// carrier's values); the ≤ k bound is enforced by Outputs.
			valid := valueSet(inVals, in)
			for _, w := range out {
				if _, ok := valid[outVals.get(w)]; !ok {
					return false
				}
			}
			return true
		},
		InputValue:  inVals.get,
		OutputValue: outVals.get,
	}
}

// ApproxAgreement returns the one-dimensional approximate agreement task for
// two processes on the grid {0, 1/D, …, 1}: inputs are the endpoints 0 and
// 1, outputs are grid points at distance ≤ 1/D of each other, inside the
// interval spanned by the participants' inputs. It is wait-free solvable,
// with the required subdivision level growing like log₃ D (SDS(s¹) cuts an
// edge into 3).
func ApproxAgreement(d int) *Task {
	t := ApproxAgreementN(2, d)
	t.Name = fmt.Sprintf("approx-agreement-1/%d", d)
	return t
}

// ApproxAgreementN generalizes ApproxAgreement to any number of processes:
// inputs are the endpoints {0, D} per process, outputs are grid points
// 0…D pairwise at distance ≤ 1, inside the participating input interval.
// Wait-free solvable for every process count (unlike consensus — closeness
// requirements are compatible with subdivision).
func ApproxAgreementN(procs, d int) *Task {
	ends := []string{"0", strconv.Itoa(d)}
	inputs, inVals := buildAssignments(procs, inKey, allAssignments(procs, ends))
	grid := make([]string, d+1)
	for j := range grid {
		grid[j] = strconv.Itoa(j)
	}
	var outFacets [][]string
	for _, a := range allAssignments(procs, grid) {
		lo, hi := d, 0
		for _, s := range a {
			x, _ := strconv.Atoi(s)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if hi-lo <= 1 {
			outFacets = append(outFacets, a)
		}
	}
	outputs, outVals := buildAssignments(procs, outKey, outFacets)

	return &Task{
		Name:    fmt.Sprintf("approx-agreement-%dp-1/%d", procs, d),
		Procs:   procs,
		Inputs:  inputs,
		Outputs: outputs,
		Allowed: func(in, out []topology.Vertex) bool {
			lo, hi := d, 0
			for _, v := range in {
				x, _ := strconv.Atoi(inVals.get(v))
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			for _, w := range out {
				y, _ := strconv.Atoi(outVals.get(w))
				if y < lo || y > hi {
					return false
				}
			}
			return true
		},
		InputValue:  inVals.get,
		OutputValue: outVals.get,
	}
}

// Renaming returns the M-renaming task (§1): processes start with their ids
// and must decide distinct names in {1, …, M}.
//
// Note: this complex-level formulation omits the symmetry ("comparison
// based") restriction under which renaming is hard — with ids usable
// directly, deciding name id+1 solves it trivially for M ≥ procs, and the
// solver will find such maps. The runtime algorithm in this package solves
// the honest (2·p−1)-renaming using only snapshots and rank arithmetic.
func Renaming(procs, m int) *Task {
	ids := make([]string, procs)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	inputs, inVals := buildAssignments(procs, inKey, [][]string{ids})
	names := make([]string, m)
	for j := range names {
		names[j] = strconv.Itoa(j + 1)
	}
	var outFacets [][]string
	for _, a := range allAssignments(procs, names) {
		set := make(map[string]struct{})
		for _, v := range a {
			set[v] = struct{}{}
		}
		if len(set) == procs { // all names distinct
			outFacets = append(outFacets, a)
		}
	}
	outputs, outVals := buildAssignments(procs, outKey, outFacets)

	return &Task{
		Name:        fmt.Sprintf("renaming-%dp-%d", procs, m),
		Procs:       procs,
		Inputs:      inputs,
		Outputs:     outputs,
		Allowed:     func(in, out []topology.Vertex) bool { return true },
		InputValue:  inVals.get,
		OutputValue: outVals.get,
	}
}

// WeakSymmetryBreaking returns the weak symmetry breaking task: every
// process outputs a bit, and when ALL processes participate the outputs must
// not be constant (someone says 0 and someone says 1). Sub-participation
// tuples are unconstrained.
//
// WSB is the combinatorial core of (2p−2)-renaming, famously wait-free
// unsolvable when the process count is a prime power (Castañeda–Rajsbaum) —
// but, like Renaming, only under the *symmetry* (comparison-based)
// restriction, which the plain colored-task formalism (I, O, Δ) does not
// express: with ids usable in decisions, "P0 outputs 0, everyone else 1"
// solves it with no communication at all, and the solver duly finds that
// level-0 map. The task is included precisely to document this boundary of
// the formalism (the paper's characterization quantifies over all
// protocols, symmetric or not).
func WeakSymmetryBreaking(procs int) *Task {
	ids := make([]string, procs)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	inputs, inVals := buildAssignments(procs, inKey, [][]string{ids})
	var outFacets [][]string
	for _, a := range allAssignments(procs, []string{"0", "1"}) {
		constant := true
		for _, v := range a {
			if v != a[0] {
				constant = false
				break
			}
		}
		if !constant {
			outFacets = append(outFacets, a)
		}
	}
	outputs, outVals := buildAssignments(procs, outKey, outFacets)
	return &Task{
		Name:        fmt.Sprintf("weak-symmetry-breaking-%dp", procs),
		Procs:       procs,
		Inputs:      inputs,
		Outputs:     outputs,
		Allowed:     func(in, out []topology.Vertex) bool { return true },
		InputValue:  inVals.get,
		OutputValue: outVals.get,
	}
}

// IdentityTask returns a trivially solvable task: every process decides its
// own input (id). Solvable at level b = 0; used to sanity-check the solver.
func IdentityTask(procs int) *Task {
	ids := make([]string, procs)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	inputs, inVals := buildAssignments(procs, inKey, [][]string{ids})
	outputs, outVals := buildAssignments(procs, outKey, [][]string{ids})
	return &Task{
		Name:    fmt.Sprintf("identity-%dp", procs),
		Procs:   procs,
		Inputs:  inputs,
		Outputs: outputs,
		Allowed: func(in, out []topology.Vertex) bool {
			for _, w := range out {
				// The decided value must be the process's own id.
				if outVals.get(w) != strconv.Itoa(outputs.Color(w)) {
					return false
				}
			}
			return true
		},
		InputValue:  inVals.get,
		OutputValue: outVals.get,
	}
}
