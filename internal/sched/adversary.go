package sched

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Adversary chooses which process runs next. Pick receives the ready set
// (ascending process ids, never empty) and the per-process granted-step
// counts, and must return a member of ready. Implementations must be
// deterministic functions of their own state and their arguments — that is
// what makes schedules reproducible.
type Adversary interface {
	Name() string
	Pick(ready []int, steps []int) int
}

// RoundRobin cycles through the ready processes in id order — the fair
// baseline schedule.
type RoundRobin struct{ last int }

// NewRoundRobin returns a fresh round-robin adversary.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Name implements Adversary.
func (r *RoundRobin) Name() string { return "round-robin" }

// Pick chooses the smallest ready id greater than the previous pick,
// wrapping to the smallest ready id.
func (r *RoundRobin) Pick(ready, steps []int) int {
	for _, p := range ready {
		if p > r.last {
			r.last = p
			return p
		}
	}
	r.last = ready[0]
	return ready[0]
}

// Random picks uniformly from the ready set using a private seeded PRNG, so
// the whole schedule is reproducible from the seed.
type Random struct {
	seed int64
	rng  *rand.Rand
}

// NewRandom returns a seeded pseudo-random adversary.
func NewRandom(seed int64) *Random {
	return &Random{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Adversary; it embeds the seed so failure messages are
// self-reproducing.
func (r *Random) Name() string { return fmt.Sprintf("random(seed=%d)", r.seed) }

// Pick implements Adversary.
func (r *Random) Pick(ready, steps []int) int {
	return ready[r.rng.Intn(len(ready))]
}

// Solo runs process P exclusively while it is ready — the "one process runs
// alone to completion" schedule that wait-freedom must tolerate — then falls
// back to round-robin over the rest.
type Solo struct {
	P  int
	rr RoundRobin
}

// NewSolo returns the solo adversary favouring process p.
func NewSolo(p int) *Solo { return &Solo{P: p, rr: RoundRobin{last: -1}} }

// Name implements Adversary.
func (s *Solo) Name() string { return fmt.Sprintf("solo-%d", s.P) }

// Pick implements Adversary.
func (s *Solo) Pick(ready, steps []int) int {
	if contains(ready, s.P) {
		return s.P
	}
	return s.rr.Pick(ready, steps)
}

// BlockK starves processes 0 … K-1: they are scheduled only when no other
// process is ready (i.e. after every higher process finished or crashed).
// The survivors must decide without ever hearing from the blocked prefix —
// the paper's "slow processes look crashed" indistinguishability.
type BlockK struct {
	K  int
	rr RoundRobin
}

// NewBlockK returns the adversary starving the first k processes.
func NewBlockK(k int) *BlockK { return &BlockK{K: k, rr: RoundRobin{last: -1}} }

// Name implements Adversary.
func (b *BlockK) Name() string { return fmt.Sprintf("block-%d", b.K) }

// Pick implements Adversary.
func (b *BlockK) Pick(ready, steps []int) int {
	var unblocked []int
	for _, p := range ready {
		if p >= b.K {
			unblocked = append(unblocked, p)
		}
	}
	if len(unblocked) > 0 {
		return b.rr.Pick(unblocked, steps)
	}
	return b.rr.Pick(ready, steps)
}

// PriorityInversion always runs the highest-id ready process — the inverse
// of the id-priority order — so low-id processes advance only once every
// higher process has finished or crashed: a cascade of solo suffixes.
type PriorityInversion struct{}

// Name implements Adversary.
func (PriorityInversion) Name() string { return "priority-inversion" }

// Pick implements Adversary.
func (PriorityInversion) Pick(ready, steps []int) int { return ready[len(ready)-1] }

// Laggard keeps the most-stepped ready process running — it maximizes the
// step spread, pinning all but one process at their current protocol
// position for as long as possible.
type Laggard struct{}

// Name implements Adversary.
func (Laggard) Name() string { return "laggard" }

// Pick chooses the ready process with the most granted steps (smallest id on
// ties, so the schedule is deterministic).
func (Laggard) Pick(ready, steps []int) int {
	best := ready[0]
	for _, p := range ready[1:] {
		if steps[p] > steps[best] {
			best = p
		}
	}
	return best
}

// AdversaryNames lists the named strategies NewAdversary accepts, with the
// parameterized families shown with their argument slot.
func AdversaryNames() []string {
	return []string{"round-robin", "random", "solo-<p>", "block-<k>", "priority-inversion", "laggard"}
}

// NewAdversary constructs an adversary from its registry name:
//
//	round-robin          fair cyclic schedule
//	random               seeded uniform pick (uses seed)
//	solo-<p>             run process p alone while it can run
//	block-<k>            starve processes 0…k-1
//	priority-inversion   always run the highest-id ready process
//	laggard              keep the most-stepped process running
//
// n is the process count (used to validate parameters); seed feeds the
// random strategy.
func NewAdversary(name string, seed int64, n int) (Adversary, error) {
	switch {
	case name == "round-robin":
		return NewRoundRobin(), nil
	case name == "random":
		return NewRandom(seed), nil
	case name == "priority-inversion":
		return PriorityInversion{}, nil
	case name == "laggard":
		return Laggard{}, nil
	case strings.HasPrefix(name, "solo-"):
		p, err := strconv.Atoi(strings.TrimPrefix(name, "solo-"))
		if err != nil || p < 0 || p >= n {
			return nil, fmt.Errorf("sched: bad solo process in %q (want solo-<p> with 0 ≤ p < %d)", name, n)
		}
		return NewSolo(p), nil
	case strings.HasPrefix(name, "block-"):
		k, err := strconv.Atoi(strings.TrimPrefix(name, "block-"))
		if err != nil || k < 0 || k >= n {
			return nil, fmt.Errorf("sched: bad block count in %q (want block-<k> with 0 ≤ k < %d)", name, n)
		}
		return NewBlockK(k), nil
	default:
		return nil, fmt.Errorf("sched: unknown adversary %q (have %s)", name, strings.Join(AdversaryNames(), ", "))
	}
}
