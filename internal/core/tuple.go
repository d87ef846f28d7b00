// Package core implements the paper's central contribution: the emulation of
// the SWMR atomic snapshot memory model by the iterated immediate snapshot
// model (Figure 2, Proposition 4.1), alongside the k-shot atomic snapshot
// full-information protocol it emulates (Figure 1), and validators for the
// correctness properties proven in §4 (Claim 4.1, Corollary 4.1).
package core

import (
	"fmt"
	"sort"
	"strings"

	"waitfree/internal/immediate"
)

// Tuple is the emulation's information unit: (id, sequence-number, value).
// A tuple with IsRead set is the read placeholder (i, sq, ⊥) of Figure 2.
type Tuple struct {
	ID     int
	Seq    int
	Val    string // written value; unused when IsRead
	IsRead bool
}

// String renders the tuple in the paper's (id, seq, val) notation.
func (t Tuple) String() string {
	if t.IsRead {
		return fmt.Sprintf("(%d,%d,⊥)", t.ID, t.Seq)
	}
	return fmt.Sprintf("(%d,%d,%q)", t.ID, t.Seq, t.Val)
}

// TupleSet is a set of tuples, the value type carried through the iterated
// immediate snapshot memories.
type TupleSet map[Tuple]struct{}

// NewTupleSet builds a set from the given tuples.
func NewTupleSet(ts ...Tuple) TupleSet {
	s := make(TupleSet, len(ts))
	for _, t := range ts {
		s[t] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s TupleSet) Has(t Tuple) bool {
	_, ok := s[t]
	return ok
}

// Add inserts t.
func (s TupleSet) Add(t Tuple) { s[t] = struct{}{} }

// String renders the set canonically (sorted), for debugging and encodings.
func (s TupleSet) String() string {
	items := make([]string, 0, len(s))
	for t := range s {
		items = append(items, t.String())
	}
	sort.Strings(items)
	return "{" + strings.Join(items, " ") + "}"
}

// UnionOfView returns ∪S over the sets present in an immediate snapshot
// view, as used by Figure 2 to propagate information to the next memory.
func UnionOfView(view immediate.View[TupleSet]) TupleSet {
	out := make(TupleSet)
	for _, slot := range view {
		if !slot.Present {
			continue
		}
		for t := range slot.Val {
			out[t] = struct{}{}
		}
	}
	return out
}

// IntersectionOfView returns ∩S over the sets present in an immediate
// snapshot view; Figure 2's termination test checks membership of the
// process's own tuple in this intersection.
func IntersectionOfView(view immediate.View[TupleSet]) TupleSet {
	var first TupleSet
	for _, slot := range view {
		if slot.Present {
			first = slot.Val
			break
		}
	}
	if first == nil {
		return NewTupleSet()
	}
	out := make(TupleSet)
outer:
	for t := range first {
		for _, slot := range view {
			if slot.Present && !slot.Val.Has(t) {
				continue outer
			}
		}
		out[t] = struct{}{}
	}
	return out
}
