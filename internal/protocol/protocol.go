// Package protocol connects the two execution planes of the reproduction:
// it enumerates the executions of the b-round iterated immediate snapshot
// full-information protocol combinatorially (building the view complex of
// Lemmas 3.2/3.3), and runs the same protocol for real on goroutines,
// producing views encoded with the same canonical vertex keys — so a runtime
// view can be located as a vertex of SDS^b(sⁿ).
package protocol

import (
	"fmt"
	"sort"
	"strings"

	"waitfree/internal/iis"
	"waitfree/internal/immediate"
	"waitfree/internal/sched"
	"waitfree/internal/topology"
)

// InputKey returns the canonical key of process i's initial state, matching
// the vertex keys of topology.Simplex.
func InputKey(i int) string { return fmt.Sprintf("P%d", i) }

// ViewKey composes the canonical key of the state reached by a process whose
// previous state is own and who observed the previous states seen (own
// included) in a one-shot immediate snapshot. It matches the vertex keys
// produced by topology.SDS, so iterated view keys are SDS^b vertex keys.
func ViewKey(own string, seen []string) string {
	sorted := append([]string(nil), seen...)
	sort.Strings(sorted)
	var b strings.Builder
	b.WriteString("S(")
	b.WriteString(own)
	b.WriteString("|{")
	b.WriteString(strings.Join(sorted, " "))
	b.WriteString("})")
	return b.String()
}

// ViewComplex enumerates every execution of the b-round iterated immediate
// snapshot full-information protocol by n+1 processes (all participating in
// every round — an execution is a sequence of b ordered partitions of the
// process set), and returns the complex of final views.
//
// By Lemma 3.3 the result equals topology.SDSPow(topology.Simplex(n), b)
// exactly (same vertex keys, same facets); tests assert this.
func ViewComplex(n, b int) *topology.Complex {
	procs := n + 1
	base := topology.Simplex(n)
	out := topology.NewSubdivision(base)

	state := make([]string, procs)
	carrier := make([]uint, procs) // participants known to each view, as a bitmask
	for i := range state {
		state[i] = InputKey(i)
		carrier[i] = 1 << i
	}

	addFacet := func(state []string, carrier []uint) {
		facet := make([]topology.Vertex, procs)
		for i, key := range state {
			v := out.MustAddVertex(key, i)
			var car []topology.Vertex
			for j := 0; j < procs; j++ {
				if carrier[i]&(1<<j) != 0 {
					car = append(car, topology.Vertex(j))
				}
			}
			out.SetCarrier(v, car)
			facet[i] = v
		}
		out.MustAddSimplex(facet...)
	}

	var rec func(round int, state []string, carrier []uint)
	rec = func(round int, state []string, carrier []uint) {
		if round == b {
			addFacet(state, carrier)
			return
		}
		topology.ForEachOrderedPartition(procs, func(blocks [][]int) {
			next := make([]string, procs)
			nextCar := make([]uint, procs)
			var seen []string
			var seenCar uint
			for _, block := range blocks {
				for _, i := range block {
					seen = append(seen, state[i])
					seenCar |= carrier[i]
				}
				for _, i := range block {
					next[i] = ViewKey(state[i], seen)
					nextCar[i] = seenCar
				}
			}
			rec(round+1, next, nextCar)
		})
	}
	if b == 0 {
		addFacet(state, carrier)
	} else {
		rec(0, state, carrier)
	}
	return out.Seal()
}

// ISAssignment is a candidate one-shot immediate snapshot outcome for m
// participants: Views[i] is the set S_i as a bitmask over participants.
type ISAssignment struct {
	M     int
	Views []uint
}

// satisfiesISProperties checks the three properties of §3.5 on a full
// assignment.
func (a ISAssignment) satisfiesISProperties() bool {
	for i := 0; i < a.M; i++ {
		if a.Views[i]&(1<<i) == 0 {
			return false // self-inclusion
		}
		for j := 0; j < a.M; j++ {
			si, sj := a.Views[i], a.Views[j]
			if si&sj != si && si&sj != sj {
				return false // comparability
			}
			if sj&(1<<i) != 0 && si&sj != si {
				return false // immediacy
			}
		}
	}
	return true
}

// AllISOutputs enumerates, by brute force over all self-including view
// assignments, exactly those satisfying the immediate snapshot properties.
// It is the semantic counterpart of the ordered-partition enumeration: tests
// verify the two coincide (the heart of Lemma 3.2).
func AllISOutputs(m int) []ISAssignment {
	if m > 5 {
		panic("protocol: AllISOutputs is exponential; m ≤ 5 only")
	}
	var out []ISAssignment
	views := make([]uint, m)
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			a := ISAssignment{M: m, Views: append([]uint(nil), views...)}
			if a.satisfiesISProperties() {
				out = append(out, a)
			}
			return
		}
		for s := uint(0); s < 1<<m; s++ {
			if s&(1<<i) == 0 {
				continue
			}
			views[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// OrderedPartitionOutputs returns the IS outcomes generated by ordered
// partitions of m participants: for partition (B1,…,Bk), S_i = B1 ∪ … ∪ Bj
// for i ∈ Bj.
func OrderedPartitionOutputs(m int) []ISAssignment {
	var out []ISAssignment
	topology.ForEachOrderedPartition(m, func(blocks [][]int) {
		views := make([]uint, m)
		var prefix uint
		for _, block := range blocks {
			for _, i := range block {
				prefix |= 1 << i
			}
			for _, i := range block {
				views[i] = prefix
			}
		}
		out = append(out, ISAssignment{M: m, Views: views})
	})
	return out
}

// RunResult is the outcome of a real concurrent full-information run.
type RunResult struct {
	N int // processes = N (ids 0…N−1)
	B int // rounds
	// Keys[i] is the canonical SDS^B vertex key of process i's final view,
	// or "" if the process crashed before finishing.
	Keys []string
	// Views[r][i] is process i's one-shot view at round r (nil if the
	// process crashed before that round), so the execution can be
	// reconstructed as a sequence of ordered partitions (§3.5).
	Views [][]immediate.View[string]
}

// RunFullInfo executes the b-round iterated immediate snapshot
// full-information protocol on real goroutines over a fresh IIS memory.
// crashAfter[i] stops process i after that many completed rounds (negative
// or missing: run all b rounds).
//
// The returned keys are vertices of SDS^b(s^{procs−1}); the set of finishers'
// keys always forms a simplex of that complex (tests assert it).
func RunFullInfo(procs, b int, crashAfter []int, opts ...sched.RunOption) (*RunResult, error) {
	inputs := make([]string, procs)
	for i := range inputs {
		inputs[i] = InputKey(i)
	}
	return RunFullInfoWithInputs(inputs, b, crashAfter, opts...)
}

// RunFullInfoWithInputs is RunFullInfo with caller-chosen initial state
// keys — typically the vertex keys of a task's input complex I, so that the
// final views are vertices of SDS^b(I). sched.Under(ctl) runs the processes
// under a deterministic adversarial schedule, gating the IIS memory; a
// controller-crashed process's key stays "", like the crashAfter ones.
func RunFullInfoWithInputs(inputs []string, b int, crashAfter []int, opts ...sched.RunOption) (*RunResult, error) {
	procs := len(inputs)
	ro := sched.BuildOpts(opts)
	mem := iis.NewMemory[string](procs)
	mem.SetGate(ro.GateOf())
	res := &RunResult{N: procs, B: b, Keys: make([]string, procs), Views: make([][]immediate.View[string], b)}
	for r := range res.Views {
		res.Views[r] = make([]immediate.View[string], procs)
	}
	errs := make([]error, procs)

	grp := sched.NewGroup(ro.Controller)
	for i := 0; i < procs; i++ {
		grp.Go(i, func() {
			rounds := b
			if crashAfter != nil && i < len(crashAfter) && crashAfter[i] >= 0 && crashAfter[i] < b {
				rounds = crashAfter[i]
			}
			state := inputs[i]
			for r := 0; r < rounds; r++ {
				view, err := mem.WriteRead(i, r, state)
				if err != nil {
					errs[i] = err
					return
				}
				res.Views[r][i] = view
				var seen []string
				for _, slot := range view {
					if slot.Present {
						seen = append(seen, slot.Val)
					}
				}
				state = ViewKey(state, seen)
			}
			if rounds == b {
				res.Keys[i] = state
			}
		})
	}
	if err := grp.Wait(); err != nil {
		return res, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// LocateRun maps a run's finisher views to vertices of the given complex
// (typically topology.SDSPow(topology.Simplex(n), b)) and reports the
// simplex they span. It fails if any view key is not a vertex of the complex
// or the views do not span a simplex.
func LocateRun(c *topology.Complex, res *RunResult) ([]topology.Vertex, error) {
	var simplex []topology.Vertex
	for i, key := range res.Keys {
		if key == "" {
			continue
		}
		v, ok := c.VertexByKey(key)
		if !ok {
			return nil, fmt.Errorf("protocol: view of P%d (%s) is not a vertex of the complex", i, key)
		}
		if c.Color(v) != i {
			return nil, fmt.Errorf("protocol: view of P%d landed on color %d", i, c.Color(v))
		}
		simplex = append(simplex, v)
	}
	if len(simplex) == 0 {
		return nil, nil
	}
	if !c.HasSimplex(simplex) {
		return nil, fmt.Errorf("protocol: finisher views %v do not span a simplex", simplex)
	}
	return simplex, nil
}
