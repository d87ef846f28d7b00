// Package immediate implements the one-shot immediate snapshot object of the
// paper's §3.4–3.5, using the Borowsky–Gafni participating-set ("levels")
// algorithm on top of the atomic snapshot memory of internal/register.
//
// A one-shot immediate snapshot lets each of n+1 processes WriteRead(v) at
// most once. If P is the participating set and Sᵢ the set of (process,
// value) pairs returned to Pᵢ, the outputs satisfy (§3.5):
//
//  1. self-inclusion:  (i, vᵢ) ∈ Sᵢ
//  2. comparability:   Sᵢ ⊆ Sⱼ or Sⱼ ⊆ Sᵢ
//  3. immediacy:       (i, vᵢ) ∈ Sⱼ ⇒ Sᵢ ⊆ Sⱼ
//
// The algorithm is wait-free: process i descends through levels n+1 … 1,
// announcing its level and scanning, and returns at the first level L where
// at least L processes sit at level ≤ L. Each descent is one Update plus one
// Scan, and at most n+1 descents happen.
package immediate

import (
	"fmt"
	"sort"

	"waitfree/internal/register"
	"waitfree/internal/sched"
)

// state is what each process publishes in the snapshot memory.
type state[T any] struct {
	level int // current level, n+1 … 1
	val   T   // announced input value
}

// OneShot is a one-shot immediate snapshot object for n processes
// (ids 0 … n−1).
type OneShot[T any] struct {
	n    int
	snap *register.Snapshot[state[T]]
	used []bool // per-process one-shot guard (written only by the owner)

	// gate, when set, receives a step point before each level announcement
	// (Update) and each level scan — the granularity at which the levels
	// algorithm is modeled by internal/modelcheck, so scheduler-driven runs
	// of this code and the model checker explore the same step machine.
	gate sched.Gate
}

// SetGate installs the immediate-level step-point gate. Call before sharing
// the object; the underlying register keeps its own gate, which stays nil.
func (o *OneShot[T]) SetGate(g sched.Gate) { o.gate = g }

// New returns a one-shot immediate snapshot object for n processes.
func New[T any](n int) *OneShot[T] {
	return &OneShot[T]{
		n:    n,
		snap: register.NewSnapshot[state[T]](n),
		used: make([]bool, n),
	}
}

// Slot is one component of an immediate snapshot view.
type Slot[T any] struct {
	Val     T
	Present bool
}

// View is the result of a WriteRead: Slot j is present iff process j's value
// is in the returned set Sᵢ.
type View[T any] []Slot[T]

// Size returns |Sᵢ|, the number of present slots.
func (v View[T]) Size() int {
	c := 0
	for _, s := range v {
		if s.Present {
			c++
		}
	}
	return c
}

// Contains reports whether process j's value is in the view.
func (v View[T]) Contains(j int) bool { return v[j].Present }

// SubsetOf reports Sᵢ ⊆ Sⱼ by presence.
func (v View[T]) SubsetOf(w View[T]) bool {
	for j := range v {
		if v[j].Present && !w[j].Present {
			return false
		}
	}
	return true
}

// WriteRead announces v as process i's value and returns the immediate
// snapshot view Sᵢ. It may be called at most once per process; a second call
// returns an error. WriteRead is wait-free with at most n+1 update/scan
// rounds.
func (o *OneShot[T]) WriteRead(i int, v T) (View[T], error) {
	view, _, err := o.WriteReadWithStats(i, v)
	return view, err
}

// WriteReadWithStats is WriteRead, additionally reporting the number of
// level descents used (for the wait-freedom bound ≤ n+1).
func (o *OneShot[T]) WriteReadWithStats(i int, v T) (View[T], int, error) {
	if i < 0 || i >= o.n {
		return nil, 0, fmt.Errorf("immediate: process id %d out of range [0,%d)", i, o.n)
	}
	if o.used[i] {
		return nil, 0, fmt.Errorf("immediate: process %d already invoked this one-shot object", i)
	}
	o.used[i] = true

	level := o.n + 1
	descents := 0
	for {
		level--
		descents++
		sched.Point(o.gate)
		o.snap.Update(i, state[T]{level: level, val: v})
		sched.Point(o.gate)
		scan := o.snap.Scan()
		// S = processes at level ≤ mine.
		count := 0
		for _, e := range scan {
			if e.Present && e.Val.level <= level {
				count++
			}
		}
		if count >= level {
			view := make(View[T], o.n)
			for j, e := range scan {
				if e.Present && e.Val.level <= level {
					view[j] = Slot[T]{Val: e.Val.val, Present: true}
				}
			}
			return view, descents, nil
		}
	}
}

// OrderedPartitionOf reconstructs the ordered partition (Lemma 3.2's
// combinatorial form of an execution) from a complete set of views: block j
// contains the processes whose views have the j-th smallest size, and the
// views must be exactly the prefix-unions of the blocks. Views of
// non-participants are nil. It fails if the views are not a legal immediate
// snapshot outcome.
func OrderedPartitionOf[T any](views []View[T]) ([][]int, error) {
	if err := CheckProperties(views); err != nil {
		return nil, err
	}
	// The reconstruction needs a complete outcome: every process appearing
	// in some view must have returned a view itself.
	for i, v := range views {
		if v == nil {
			continue
		}
		for j := range v {
			if v.Contains(j) && views[j] == nil {
				return nil, fmt.Errorf("immediate: process %d observed by %d has no view (incomplete outcome)", j, i)
			}
		}
	}
	// Group participants by view size.
	bySize := make(map[int][]int)
	sizes := make([]int, 0)
	for i, v := range views {
		if v == nil {
			continue
		}
		s := v.Size()
		if _, ok := bySize[s]; !ok {
			sizes = append(sizes, s)
		}
		bySize[s] = append(bySize[s], i)
	}
	sort.Ints(sizes)
	var blocks [][]int
	prefix := 0
	for _, s := range sizes {
		block := bySize[s]
		sort.Ints(block)
		prefix += len(block)
		if s != prefix {
			return nil, fmt.Errorf("immediate: view size %d inconsistent with prefix %d (blocks are not nested unions)", s, prefix)
		}
		// Every process in the block must see exactly the union of blocks
		// so far.
		for _, i := range block {
			for j, v := range views {
				if v == nil {
					continue
				}
				inPrefix := views[j].Size() <= s
				if views[i].Contains(j) != inPrefix {
					return nil, fmt.Errorf("immediate: view of %d does not match the block prefix", i)
				}
			}
		}
		blocks = append(blocks, block)
	}
	return blocks, nil
}

// CheckProperties validates the three immediate snapshot properties over a
// set of views indexed by process id (nil views mean the process did not
// participate or did not finish). It returns nil if all hold.
func CheckProperties[T any](views []View[T]) error {
	for i, vi := range views {
		if vi == nil {
			continue
		}
		if !vi.Contains(i) {
			return fmt.Errorf("immediate: self-inclusion violated: %d ∉ S_%d", i, i)
		}
		for j, vj := range views {
			if vj == nil {
				continue
			}
			if !vi.SubsetOf(vj) && !vj.SubsetOf(vi) {
				return fmt.Errorf("immediate: comparability violated for S_%d, S_%d", i, j)
			}
			if vj.Contains(i) && !vi.SubsetOf(vj) {
				return fmt.Errorf("immediate: immediacy violated: %d ∈ S_%d but S_%d ⊄ S_%d", i, j, i, j)
			}
		}
	}
	return nil
}
