package bg

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
)

// Only tests run the code below: a simulated Figure 1 protocol, blocking
// resolution of a safe agreement object, and the audit of a simulated
// execution.

// FullInfoCode is the paper's Figure 1 protocol as a simulated Code: each
// simulated process performs K shots of write-then-snapshot, writing the
// encoding of its last view (full information), and decides the encoding of
// its final view. Running it under the BG simulation closes the loop: the
// simulators jointly produce a legal atomic snapshot execution of Figure 1
// (audited by ValidateSimulatedExecution), mirroring how the paper's §4
// emulation produces one inside the IIS model.
type FullInfoCode struct {
	K int
}

var _ Code = (*FullInfoCode)(nil)

// ProposeInput seeds simulated inputs from the simulator's identity.
func (c *FullInfoCode) ProposeInput(simulator int) string {
	return "in" + strconv.Itoa(simulator)
}

// Next writes the encoded view each step and decides after K snapshots.
func (c *FullInfoCode) Next(p, step int, view []Cell) (string, *int) {
	if step >= c.K {
		// Decide: the decision payload is conventionally an int; return the
		// number of non-empty cells observed (the "knowledge breadth").
		seen := 0
		for _, cell := range view {
			if cell.Step > 0 {
				seen++
			}
		}
		return "", &seen
	}
	return encodeView(view), nil
}

func encodeView(view []Cell) string {
	parts := make([]string, 0, len(view))
	for p, cell := range view {
		if cell.Step == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%d@%d=%s", p, cell.Step, strconv.Quote(cell.Val)))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Resolve blocks (by spinning with yields) until the object resolves or
// stop is closed. ok=false reports cancellation — the caller observed the
// blocking behaviour safe agreement is allowed to have when a proposer
// crashed in its window.
func (sa *SafeAgreement[T]) Resolve(stop <-chan struct{}) (v T, ok bool) {
	for {
		if v, ok := sa.TryResolve(); ok {
			return v, true
		}
		select {
		case <-stop:
			return v, false
		default:
			runtime.Gosched()
		}
	}
}

// ValidateSimulatedExecution checks that the agreed snapshots recorded
// during a run form a legal atomic snapshot execution of the simulated
// processes:
//
//   - read-own-write: the step-s snapshot of p shows p's cell at step ≥ s;
//   - per-process monotonicity: later steps of p see ≥ step vectors;
//   - global comparability: all agreed snapshots are totally ordered under
//     componentwise ≤ of their step vectors.
func (s *Simulation) ValidateSimulatedExecution() error {
	s.auditMu.Lock()
	defer s.auditMu.Unlock()

	type rec struct {
		p, step int
		steps   []int
	}
	var recs []rec
	for key, enc := range s.audit {
		cells := decodeCells(enc)
		steps := make([]int, len(cells))
		for i, c := range cells {
			steps[i] = c.Step
		}
		recs = append(recs, rec{p: key[0], step: key[1], steps: steps})
	}
	for _, r := range recs {
		if r.p < len(r.steps) && r.steps[r.p] < r.step {
			return fmt.Errorf("bg: snapshot (%d,%d) misses own write: %v", r.p, r.step, r.steps)
		}
	}
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			a, b := recs[i], recs[j]
			le, ge := true, true
			for k := range a.steps {
				if a.steps[k] < b.steps[k] {
					ge = false
				}
				if a.steps[k] > b.steps[k] {
					le = false
				}
			}
			if !le && !ge {
				return fmt.Errorf("bg: incomparable simulated snapshots (%d,%d)=%v and (%d,%d)=%v",
					a.p, a.step, a.steps, b.p, b.step, b.steps)
			}
			if a.p == b.p && a.step < b.step && !le {
				return fmt.Errorf("bg: simulated process %d went backwards between steps %d and %d", a.p, a.step, b.step)
			}
		}
	}
	return nil
}
