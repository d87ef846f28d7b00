package sched

import (
	"errors"
	"fmt"
)

// Replay is the adversary used for systematic schedule enumeration: at its
// i-th decision it picks ready[Choices[i]] (0 when the choice string is
// exhausted) and records the width of the decision — how many processes were
// ready. ExploreFiltered uses the recorded widths to walk the whole schedule
// tree.
type Replay struct {
	Choices []int
	pos     int
	widths  []int
}

// Name implements Adversary; it renders the choice prefix driving this run.
func (r *Replay) Name() string { return fmt.Sprintf("replay%v", r.Choices) }

// Pick implements Adversary.
func (r *Replay) Pick(ready, steps []int) int {
	c := 0
	if r.pos < len(r.Choices) {
		c = r.Choices[r.pos]
	}
	r.pos++
	r.widths = append(r.widths, len(ready))
	if c >= len(ready) {
		// Stale choice from a shorter sibling branch; clamp deterministically.
		c = len(ready) - 1
	}
	return ready[c]
}

// ErrScheduleFiltered is the sentinel a run callback returns from
// ExploreFiltered to report that the completed schedule falls outside the
// model under exploration: the schedule still contributes its decision
// widths to the tree walk (the enumeration must visit every schedule to
// find the next one), but it is counted as filtered rather than kept, and
// the walk continues. The callback must only return it after the run
// completed normally — a filtered verdict needs the full schedule.
var ErrScheduleFiltered = errors.New("sched: schedule outside model")

// ExploreFiltered enumerates every schedule of a deterministic bounded
// computation: it repeatedly invokes run with a Replay adversary, using the
// decision widths recorded by each run to generate the lexicographically
// next choice string, until the tree is exhausted. run must build fresh
// state each call and drive a Controller whose Adversary is the given
// Replay. It classifies each completed schedule as inside the model (nil),
// outside it (ErrScheduleFiltered), or a genuine violation (any other
// error, which aborts the walk).
//
// ExploreFiltered returns how many schedules were kept and how many
// filtered. limit > 0 aborts once their sum reaches it (an error reports
// the truncation, so a test can never silently under-explore). This is the
// executable form of the GACT model definition — a model is the subset of
// runs it admits — and the ground truth the restricted-subdivision
// semantics is tested against.
func ExploreFiltered(limit int, run func(adv *Replay) error) (kept, filtered int, err error) {
	choices := []int{}
	for {
		r := &Replay{Choices: choices}
		switch err := run(r); {
		case err == nil:
			kept++
		case errors.Is(err, ErrScheduleFiltered):
			filtered++
		default:
			return kept, filtered, fmt.Errorf("sched: schedule %v: %w", r.Choices, err)
		}
		if limit > 0 && kept+filtered >= limit {
			return kept, filtered, fmt.Errorf("sched: exploration truncated at %d schedules", limit)
		}
		// The decisions actually taken this run: the explicit prefix, then
		// default 0s up to the recorded depth.
		taken := make([]int, len(r.widths))
		copy(taken, choices)
		// Backtrack to the deepest decision with an unexplored sibling.
		i := len(taken) - 1
		for ; i >= 0; i-- {
			if taken[i]+1 < r.widths[i] {
				break
			}
		}
		if i < 0 {
			return kept, filtered, nil
		}
		choices = append(taken[:i:i], taken[i]+1)
	}
}

// Group runs a family of process bodies either under a Controller or, when
// ctl is nil, as plain goroutines on the live Go scheduler. It is the spawn
// shim all instrumented runtimes share, so the production path keeps its
// exact goroutine structure.
type Group struct {
	ctl  *Controller
	done chan struct{}
	live int
}

// NewGroup returns a Group over ctl (nil = live execution).
func NewGroup(ctl *Controller) *Group {
	return &Group{ctl: ctl, done: make(chan struct{}, 64)}
}

// Go spawns body as process proc.
func (g *Group) Go(proc int, body func()) {
	if g.ctl != nil {
		g.ctl.Go(proc, body)
		return
	}
	g.live++
	go func() {
		defer func() { g.done <- struct{}{} }()
		body()
	}()
}

// Wait blocks until every spawned body finished (live mode) or the schedule
// ran to completion (controlled mode). In controlled mode it surfaces the
// Controller's verdict — notably *BudgetError when the step budget ran out.
func (g *Group) Wait() error {
	if g.ctl != nil {
		return g.ctl.Wait()
	}
	for i := 0; i < g.live; i++ {
		<-g.done
	}
	return nil
}
