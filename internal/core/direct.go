package core

import (
	"fmt"

	"waitfree/internal/register"
	"waitfree/internal/sched"
)

// ShotMemory is the memory interface consumed by the k-shot full-information
// protocol of Figure 1 and by tasks.RunRenaming: alternating writes of a
// process's cell and atomic snapshot reads of all cells. By Proposition 4.1
// one protocol runs unchanged on DirectMemory or EmulatedMemory.
//
// Write publishes the process's seq-th value. SnapshotRead returns, for every
// process p, the latest value and write sequence number visible (seq 0 and
// empty value when p has not written).
type ShotMemory interface {
	Write(proc, seq int, val string) error
	SnapshotRead(proc, seq int) (vals []string, seqs []int, err error)
}

// writeRecord is one cell of the direct atomic snapshot memory.
type writeRecord struct {
	seq int
	val string
}

// DirectMemory implements ShotMemory natively on the wait-free atomic
// snapshot object — the reference model the emulation must match.
type DirectMemory struct {
	snap *register.Snapshot[writeRecord]
}

var _ ShotMemory = (*DirectMemory)(nil)

// NewDirectMemory returns an atomic snapshot ShotMemory for n processes.
func NewDirectMemory(n int) *DirectMemory {
	return &DirectMemory{snap: register.NewSnapshot[writeRecord](n)}
}

// SetGate installs the step-point gate for deterministic scheduling on the
// underlying snapshot object (register granularity).
func (m *DirectMemory) SetGate(g sched.Gate) { m.snap.SetGate(g) }

// Write publishes (seq, val) in the caller's cell.
func (m *DirectMemory) Write(proc, seq int, val string) error {
	if seq < 1 {
		return fmt.Errorf("core: write seq %d < 1", seq)
	}
	m.snap.Update(proc, writeRecord{seq: seq, val: val})
	return nil
}

// SnapshotRead returns an atomic view of all cells.
func (m *DirectMemory) SnapshotRead(proc, seq int) ([]string, []int, error) {
	view := m.snap.Scan()
	vals := make([]string, len(view))
	seqs := make([]int, len(view))
	for p, e := range view {
		if e.Present {
			vals[p] = e.Val.val
			seqs[p] = e.Val.seq
		}
	}
	return vals, seqs, nil
}
