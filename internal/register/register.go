// Package register implements the paper's §3.1 shared-memory substrate: the
// Single-Writer Multi-Reader (SWMR) atomic snapshot memory model, built from
// scratch on sync/atomic.
//
// The Snapshot object follows the unbounded-sequence-number wait-free
// construction of Afek, Attiya, Dolev, Gafni, Merritt and Shavit ("Atomic
// Snapshots of Shared Memory", reference [1] of the paper): every Update
// embeds a Scan, and a Scan either witnesses two identical collects (a clean
// double collect) or borrows the embedded view of a writer observed to move
// twice, which is guaranteed to lie inside the Scan's interval. Both
// operations are wait-free with at most n+2 collects per Scan.
package register

import (
	"fmt"
	"sync/atomic"

	"waitfree/internal/sched"
)

// Entry is one component of a snapshot view.
type Entry[T any] struct {
	Val     T      // last written value; zero if !Present
	Seq     uint64 // number of Updates applied to this component (0 if none)
	Present bool   // whether the component was ever written
}

// cell is the content of one SWMR component: value, sequence number, and the
// embedded scan taken by the writer just before writing.
type cell[T any] struct {
	val  T
	seq  uint64
	view []Entry[T]
}

// Snapshot is a wait-free n-component SWMR atomic snapshot object.
// Component i is written only by process i via Update; any process may Scan.
type Snapshot[T any] struct {
	cells []atomic.Pointer[cell[T]]

	// gate, when set, receives a step point before every primitive collect
	// and every component store — the register-level granularity of the
	// deterministic scheduler. nil (the default) is the live Go scheduler.
	gate sched.Gate
}

// SetGate installs the step-point gate for deterministic scheduling. It must
// be called before the object is shared between goroutines.
func (s *Snapshot[T]) SetGate(g sched.Gate) { s.gate = g }

// NewSnapshot returns a snapshot object with n components, all absent.
func NewSnapshot[T any](n int) *Snapshot[T] {
	if n <= 0 {
		panic(fmt.Sprintf("register: NewSnapshot with n=%d", n))
	}
	return &Snapshot[T]{cells: make([]atomic.Pointer[cell[T]], n)}
}

// Update atomically sets component i to v. Only process i may call it.
// Update embeds a Scan (the Afek et al. handshake), so it costs O(n) per
// collect with at most n+2 collects.
func (s *Snapshot[T]) Update(i int, v T) {
	view, _ := s.scan()
	var seq uint64 = 1
	if old := s.cells[i].Load(); old != nil {
		seq = old.seq + 1
	}
	sched.Point(s.gate)
	s.cells[i].Store(&cell[T]{val: v, seq: seq, view: view})
}

// Scan returns an atomic view of all components. The returned slice is fresh
// and owned by the caller.
func (s *Snapshot[T]) Scan() []Entry[T] {
	view, _ := s.scan()
	return view
}

func (s *Snapshot[T]) scan() ([]Entry[T], int) {
	n := len(s.cells)
	moved := make([]int, n)
	first := s.collect()
	collects := 1
	for {
		second := s.collect()
		collects++
		same := true
		for j := 0; j < n; j++ {
			fs, ss := seqOf(first[j]), seqOf(second[j])
			if fs != ss {
				same = false
				moved[j]++
				if moved[j] >= 2 {
					// second[j] was written entirely within this scan's
					// interval; its embedded view is a legal result.
					view := make([]Entry[T], n)
					copy(view, second[j].view)
					return view, collects
				}
			}
		}
		if same {
			view := make([]Entry[T], n)
			for j, c := range second {
				if c != nil {
					view[j] = Entry[T]{Val: c.val, Seq: c.seq, Present: true}
				}
			}
			return view, collects
		}
		first = second
	}
}

// collect reads every component once (not atomic by itself).
func (s *Snapshot[T]) collect() []*cell[T] {
	sched.Point(s.gate)
	out := make([]*cell[T], len(s.cells))
	for j := range s.cells {
		out[j] = s.cells[j].Load()
	}
	return out
}

func seqOf[T any](c *cell[T]) uint64 {
	if c == nil {
		return 0
	}
	return c.seq
}
