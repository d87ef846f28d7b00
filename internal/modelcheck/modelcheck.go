// Package modelcheck exhaustively verifies the participating-set (one-shot
// immediate snapshot) algorithm by state-space exploration.
//
// The stress tests in internal/immediate sample schedules; this package
// *enumerates* them. The algorithm is re-expressed as a deterministic step
// machine over an abstract shared memory whose scans are atomic (the
// guarantee internal/register provides), and every interleaving of process
// steps is explored. At every terminal state the one-shot immediate snapshot
// properties of §3.5 must hold, and the set of reachable outcome assignments
// must be exactly the ordered partitions of the participants (Lemma 3.2's
// semantic content, verified against the real step-level algorithm rather
// than the abstract object).
package modelcheck

import (
	"fmt"
	"sort"
	"strings"

	"waitfree/internal/protocol"
)

// pc is a process's program counter in the levels algorithm.
type pc int

const (
	pcWrite pc = iota // about to write its level
	pcScan            // about to scan and test
	pcDone            // returned
)

// state is a global configuration of the algorithm for n processes:
// the shared level array (0 = not started) and each process's control state.
type state struct {
	shared []int8 // published level per process; 0 = never written
	level  []int8 // local level variable per process
	pcs    []pc
	view   []uint32 // output set (bitmask) for done processes
}

func (s *state) clone() *state {
	return &state{
		shared: append([]int8(nil), s.shared...),
		level:  append([]int8(nil), s.level...),
		pcs:    append([]pc(nil), s.pcs...),
		view:   append([]uint32(nil), s.view...),
	}
}

// key canonically encodes a state for memoization.
func (s *state) key() string {
	var b strings.Builder
	for i := range s.shared {
		fmt.Fprintf(&b, "%d,%d,%d,%d;", s.shared[i], s.level[i], s.pcs[i], s.view[i])
	}
	return b.String()
}

// step executes one atomic step of process i (a write of its level, or an
// atomic scan plus the exit test), returning the successor state.
func step(s *state, i, n int) *state {
	ns := s.clone()
	switch s.pcs[i] {
	case pcWrite:
		ns.level[i] = s.level[i] - 1
		ns.shared[i] = ns.level[i]
		ns.pcs[i] = pcScan
	case pcScan:
		// Atomic scan of the level array; S = {j : level_j ≤ level_i}.
		var set uint32
		count := 0
		for j := 0; j < n; j++ {
			if s.shared[j] != 0 && s.shared[j] <= s.level[i] {
				set |= 1 << j
				count++
			}
		}
		if int8(count) >= s.level[i] {
			ns.view[i] = set
			ns.pcs[i] = pcDone
		} else {
			ns.pcs[i] = pcWrite
		}
	case pcDone:
		// no-op; callers never schedule done processes
	}
	return ns
}

// Result aggregates an exhaustive exploration.
type Result struct {
	States   int // distinct global states visited
	Terminal int // distinct terminal states
	Outcomes int // distinct outcome assignments (views per process)
}

// Explore runs the exhaustive check for n processes, all participating.
// It returns an error on the first property violation.
func Explore(n int) (*Result, error) {
	res, _, err := explore(n)
	return res, err
}

// explore is the breadth-first walk over every global state behind Explore
// and ReachableOutcomes. It checks the §3.5 properties on each terminal
// state and returns the counts and the set of outcome keys.
func explore(n int) (*Result, map[string]struct{}, error) {
	if n > 4 {
		return nil, nil, fmt.Errorf("modelcheck: state space too large for n=%d (use n ≤ 4)", n)
	}
	init := &state{
		shared: make([]int8, n),
		level:  make([]int8, n),
		pcs:    make([]pc, n),
		view:   make([]uint32, n),
	}
	for i := 0; i < n; i++ {
		init.level[i] = int8(n + 1)
	}

	seen := map[string]struct{}{init.key(): {}}
	outcomes := map[string]struct{}{}
	res := &Result{States: 1}
	queue := []*state{init}

	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]

		allDone := true
		for i := 0; i < n; i++ {
			if s.pcs[i] == pcDone {
				continue
			}
			allDone = false
			ns := step(s, i, n)
			k := ns.key()
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = struct{}{}
			res.States++
			queue = append(queue, ns)
		}
		if allDone {
			res.Terminal++
			if err := checkProperties(s, n); err != nil {
				return res, outcomes, err
			}
			outcomes[outcomeKey(s, n)] = struct{}{}
		}
	}
	res.Outcomes = len(outcomes)
	return res, outcomes, nil
}

// checkProperties verifies the three §3.5 properties on a terminal state.
func checkProperties(s *state, n int) error {
	for i := 0; i < n; i++ {
		si := s.view[i]
		if si&(1<<i) == 0 {
			return fmt.Errorf("modelcheck: self-inclusion violated for %d (view %b)", i, si)
		}
		for j := 0; j < n; j++ {
			sj := s.view[j]
			if si&sj != si && si&sj != sj {
				return fmt.Errorf("modelcheck: comparability violated: S_%d=%b S_%d=%b", i, si, j, sj)
			}
			if sj&(1<<i) != 0 && si&sj != si {
				return fmt.Errorf("modelcheck: immediacy violated: %d ∈ S_%d=%b but S_%d=%b ⊄", i, j, sj, i, si)
			}
		}
	}
	return nil
}

func outcomeKey(s *state, n int) string {
	parts := make([]string, n)
	for i := 0; i < n; i++ {
		parts[i] = fmt.Sprintf("%b", s.view[i])
	}
	return strings.Join(parts, ";")
}

// ReachableOutcomes runs the exploration and returns the sorted set of
// outcome keys, for comparison with the ordered-partition outcomes of
// internal/protocol. A property violation is an error, as in Explore.
func ReachableOutcomes(n int) ([]string, error) {
	_, outcomes, err := explore(n)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(outcomes))
	for k := range outcomes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// OrderedPartitionOutcomeKeys renders the Lemma 3.2 outcomes (ordered
// partitions) in the same key format as ReachableOutcomes.
func OrderedPartitionOutcomeKeys(n int) []string {
	assignments := protocol.OrderedPartitionOutputs(n)
	keys := make([]string, 0, len(assignments))
	for _, a := range assignments {
		parts := make([]string, a.M)
		for i, v := range a.Views {
			parts[i] = fmt.Sprintf("%b", v)
		}
		keys = append(keys, strings.Join(parts, ";"))
	}
	sort.Strings(keys)
	return dedupeStrings(keys)
}

func dedupeStrings(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
