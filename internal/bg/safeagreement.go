// Package bg implements the Borowsky–Gafni simulation — the line of work
// this paper seeded (§1, reference [8] and the follow-up resiliency
// characterizations [10, 11]): k+1 wait-free simulators jointly execute a
// snapshot-based protocol of n+1 simulated processes, losing at most one
// simulated process per crashed simulator.
//
// Its building block is the safe agreement object: agreement that is
// wait-free to propose and can block resolution only if a proposer crashed
// inside its two-write "unsafe window".
package bg

import (
	"waitfree/internal/register"
	"waitfree/internal/sched"
)

// saLevel is a proposer's state in the safe agreement protocol.
type saLevel int

const (
	saProposing saLevel = 1 // first write done, snapshot pending
	saAborted   saLevel = 0 // saw a committed proposal, stood down
	saCommitted saLevel = 2 // committed its proposal
)

// saState is what each proposer publishes.
type saState[T any] struct {
	val   T
	level saLevel
}

// SafeAgreement is a single-shot safe agreement object for n processes.
// Propose is wait-free; TryResolve returns the agreed value once no proposer
// is left in its unsafe window. If a proposer crashes inside the window the
// object may remain unresolved forever — the precise failure mode the BG
// simulation is designed around.
type SafeAgreement[T any] struct {
	snap *register.Snapshot[saState[T]]
}

// NewSafeAgreement returns a safe agreement object for n proposers.
func NewSafeAgreement[T any](n int) *SafeAgreement[T] {
	return &SafeAgreement[T]{snap: register.NewSnapshot[saState[T]](n)}
}

// SetGate routes the object's register operations through a scheduler step
// point. Call before any proposer starts.
func (sa *SafeAgreement[T]) SetGate(g sched.Gate) { sa.snap.SetGate(g) }

// Propose submits process i's value. Wait-free: two updates and one scan.
func (sa *SafeAgreement[T]) Propose(i int, v T) {
	sa.announce(i, v)
	sa.settle(i, v)
}

// announce is the first write of the unsafe window: the proposal at level 1.
func (sa *SafeAgreement[T]) announce(i int, v T) {
	sa.snap.Update(i, saState[T]{val: v, level: saProposing})
}

// settle closes the unsafe window: scan, then commit or abort.
func (sa *SafeAgreement[T]) settle(i int, v T) {
	view := sa.snap.Scan()
	level := saCommitted
	for _, e := range view {
		if e.Present && e.Val.level == saCommitted {
			level = saAborted
			break
		}
	}
	sa.snap.Update(i, saState[T]{val: v, level: level})
}

// TryResolve returns the agreed value if the object is resolved: no visible
// proposer is in its unsafe window and at least one has committed. All
// resolvers that succeed return the same value (the committed proposal of
// the smallest process id — the committed set is frozen once every
// first-write precedes the first commit).
func (sa *SafeAgreement[T]) TryResolve() (v T, ok bool) {
	view := sa.snap.Scan()
	committed := -1
	for j, e := range view {
		if !e.Present {
			continue
		}
		if e.Val.level == saProposing {
			return v, false // someone is in the unsafe window
		}
		if e.Val.level == saCommitted && committed < 0 {
			committed = j
		}
	}
	if committed < 0 {
		return v, false // nobody committed (yet)
	}
	return view[committed].Val.val, true
}
