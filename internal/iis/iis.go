// Package iis implements the iterated immediate snapshot model of the
// paper's §3.5: an unbounded sequence of one-shot immediate snapshot
// memories M0, M1, M2, …
//
// Each process walks through the memories in order, invoking WriteRead on
// each at most once. The model's power comes entirely from the one-shot
// objects; the Memory type here only materializes M_j lazily and enforces
// the access discipline (strictly increasing rounds, one WriteRead per
// process per round).
package iis

import (
	"fmt"
	"sync"

	"waitfree/internal/immediate"
	"waitfree/internal/sched"
)

// Memory is an unbounded sequence of one-shot immediate snapshot memories
// shared by n processes.
//
// The lazily grown backing slice is guarded by a mutex; this is a harness
// convenience, not part of the modeled computation — every M_j itself is a
// wait-free read-write object, and a real deployment would preallocate the
// (bounded, by Lemma 3.1) number of memories.
type Memory[T any] struct {
	n int

	// gate, when set, receives a step point at each WriteRead and is
	// propagated to every materialized one-shot memory (immediate-level
	// granularity). Set before sharing the memory.
	gate sched.Gate

	mu   sync.Mutex
	ms   []*immediate.OneShot[T]
	next []int // next round each process may access; guards the discipline
}

// SetGate installs the step-point gate for deterministic scheduling, on this
// memory and on every one-shot memory it materializes.
func (m *Memory[T]) SetGate(g sched.Gate) { m.gate = g }

// NewMemory returns an iterated immediate snapshot memory for n processes.
func NewMemory[T any](n int) *Memory[T] {
	return &Memory[T]{n: n, next: make([]int, n)}
}

// Processes returns the number of process slots.
func (m *Memory[T]) Processes() int { return m.n }

// memory returns M_j, materializing it and any predecessors if needed, and
// atomically checks-and-advances the caller's round discipline.
func (m *Memory[T]) memory(proc, round int) (*immediate.OneShot[T], error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if proc < 0 || proc >= m.n {
		return nil, fmt.Errorf("iis: process id %d out of range [0,%d)", proc, m.n)
	}
	if round != m.next[proc] {
		return nil, fmt.Errorf("iis: process %d accessed M_%d, expected M_%d (rounds must be visited in order, once each)", proc, round, m.next[proc])
	}
	m.next[proc] = round + 1
	for len(m.ms) <= round {
		one := immediate.New[T](m.n)
		one.SetGate(m.gate)
		m.ms = append(m.ms, one)
	}
	return m.ms[round], nil
}

// WriteRead performs process proc's (single) WriteRead on M_round with input
// v and returns its immediate snapshot view. Each process must call rounds
// 0, 1, 2, … in order.
func (m *Memory[T]) WriteRead(proc, round int, v T) (immediate.View[T], error) {
	sched.Point(m.gate) // round advance is a step point (outside the mutex)
	one, err := m.memory(proc, round)
	if err != nil {
		return nil, err
	}
	view, err := one.WriteRead(proc, v)
	if err != nil {
		return nil, fmt.Errorf("iis: M_%d: %w", round, err)
	}
	return view, nil
}
