package sched

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// runCounter drives procs processes, each passing points step points and
// counting its completed segments, under the given controller settings. It
// returns the controller (for post-run inspection), the per-process progress
// counters, and Wait's verdict.
func runCounter(adv Adversary, crashAt []int, procs, points, maxSteps int) (*Controller, []int, error) {
	ctl := New(Config{Procs: procs, Adversary: adv, CrashAt: crashAt, MaxSteps: maxSteps})
	progress := make([]int, procs)
	for i := 0; i < procs; i++ {
		ctl.Go(i, func() {
			for s := 0; s < points; s++ {
				ctl.Step()
				progress[i]++
			}
		})
	}
	return ctl, progress, ctl.Wait()
}

func TestRoundRobinTraceIsCyclic(t *testing.T) {
	ctl, progress, err := runCounter(NewRoundRobin(), nil, 3, 2, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// Each process needs points+1 grants (initial segment, one per step
	// point); round-robin interleaves them cyclically.
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if got := ctl.Trace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	if want := []int{2, 2, 2}; !reflect.DeepEqual(progress, want) {
		t.Fatalf("progress = %v, want %v", progress, want)
	}
	for p := 0; p < 3; p++ {
		if ctl.StatusOf(p) != StatusDone {
			t.Fatalf("P%d status = %v, want done", p, ctl.StatusOf(p))
		}
	}
}

func TestRandomScheduleIsReproducible(t *testing.T) {
	const seed = 42
	run := func() []int {
		ctl, _, err := runCounter(NewRandom(seed), nil, 4, 5, 0)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		return ctl.Trace()
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed, different traces:\n%v\n%v", first, second)
	}
	ctl, _, err := runCounter(NewRandom(seed+1), nil, 4, 5, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if reflect.DeepEqual(first, ctl.Trace()) {
		t.Fatalf("seeds %d and %d produced the same trace %v", seed, seed+1, first)
	}
}

func TestCrashInjectionStopsMidProtocol(t *testing.T) {
	// P1 crashes the moment it attempts its 2nd step (0-based index 2): it
	// has completed exactly two segments, i.e. one progress increment.
	ctl, progress, err := runCounter(NewRoundRobin(), []int{-1, 2, -1}, 3, 2, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !ctl.Crashed(1) {
		t.Fatalf("P1 status = %v, want crashed", ctl.StatusOf(1))
	}
	if want := []int{2, 1, 2}; !reflect.DeepEqual(progress, want) {
		t.Fatalf("progress = %v, want %v", progress, want)
	}
	for _, p := range []int{0, 2} {
		if ctl.StatusOf(p) != StatusDone {
			t.Fatalf("P%d status = %v, want done", p, ctl.StatusOf(p))
		}
	}
}

func TestCrashAtZeroRunsNoCode(t *testing.T) {
	ctl, progress, err := runCounter(NewRoundRobin(), []int{0, -1}, 2, 3, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !ctl.Crashed(0) || progress[0] != 0 {
		t.Fatalf("P0 (crashAt=0): status %v, progress %d; want crashed, 0", ctl.StatusOf(0), progress[0])
	}
	if ctl.StatusOf(1) != StatusDone || progress[1] != 3 {
		t.Fatalf("P1: status %v, progress %d; want done, 3", ctl.StatusOf(1), progress[1])
	}
}

func TestBudgetErrorOnLivelock(t *testing.T) {
	ctl := New(Config{Procs: 2, Adversary: NewRoundRobin(), MaxSteps: 100})
	ctl.Go(0, func() {
		for {
			ctl.Step() // never finishes
		}
	})
	ctl.Go(1, func() {})
	err := ctl.Wait()
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Wait = %v, want *BudgetError", err)
	}
	if be.MaxSteps != 100 || !reflect.DeepEqual(be.Starved, []int{0}) {
		t.Fatalf("BudgetError = %+v, want MaxSteps=100 Starved=[0]", be)
	}
	if !ctl.Crashed(0) || ctl.StatusOf(1) != StatusDone {
		t.Fatalf("statuses = %v/%v, want crashed/done", ctl.StatusOf(0), ctl.StatusOf(1))
	}
	if !strings.Contains(err.Error(), "step budget 100") {
		t.Fatalf("error %q does not name the budget", err)
	}
}

func TestSoloStarvesAWaitingPeer(t *testing.T) {
	// P0 spins until P1 raises a flag. Solo-0 never schedules P1, so the
	// budget fail-stops both; round-robin completes the same program.
	run := func(adv Adversary) error {
		ctl := New(Config{Procs: 2, Adversary: adv, MaxSteps: 200})
		flag := false
		ctl.Go(0, func() {
			for !flag {
				ctl.Step()
			}
		})
		ctl.Go(1, func() {
			ctl.Step()
			flag = true
		})
		return ctl.Wait()
	}
	var be *BudgetError
	if err := run(NewSolo(0)); !errors.As(err, &be) {
		t.Fatalf("solo-0: Wait = %v, want *BudgetError", err)
	}
	if err := run(NewRoundRobin()); err != nil {
		t.Fatalf("round-robin: Wait = %v, want nil", err)
	}
}

func TestStepIsPassThroughAfterWait(t *testing.T) {
	ctl, _, err := runCounter(NewRoundRobin(), nil, 2, 1, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	done := make(chan struct{})
	go func() {
		ctl.Step() // must not block: the schedule is over
		close(done)
	}()
	<-done
}

func TestAdversaryRegistry(t *testing.T) {
	const n = 3
	valid := []string{"round-robin", "random", "solo-0", "solo-2", "block-1", "block-2", "priority-inversion", "laggard"}
	for _, name := range valid {
		adv, err := NewAdversary(name, 7, n)
		if err != nil {
			t.Fatalf("NewAdversary(%q): %v", name, err)
		}
		if name != "random" && adv.Name() != name {
			t.Fatalf("NewAdversary(%q).Name() = %q, want the registry name back", name, adv.Name())
		}
	}
	for _, name := range []string{"bogus", "solo-3", "solo-x", "block-3", "block--1"} {
		if _, err := NewAdversary(name, 7, n); err == nil {
			t.Fatalf("NewAdversary(%q) succeeded, want error", name)
		}
	}
}

func TestRandomNameEmbedsSeed(t *testing.T) {
	if got := NewRandom(99).Name(); got != "random(seed=99)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestExploreEnumeratesAllInterleavings(t *testing.T) {
	// Two processes with one step point each: two segments per process, so
	// the complete schedules are the interleavings of AABB — C(4,2) = 6.
	traces := map[string]bool{}
	count, _, err := ExploreFiltered(0, func(adv *Replay) error {
		ctl := New(Config{Procs: 2, Adversary: adv})
		for i := 0; i < 2; i++ {
			ctl.Go(i, func() { ctl.Step() })
		}
		if err := ctl.Wait(); err != nil {
			return err
		}
		key := ""
		for _, p := range ctl.Trace() {
			key += string(rune('A' + p))
		}
		traces[key] = true
		return nil
	})
	if err != nil {
		t.Fatalf("ExploreFiltered: %v", err)
	}
	if count != 6 || len(traces) != 6 {
		t.Fatalf("ExploreFiltered kept %d schedules over %d distinct traces, want 6/6: %v", count, len(traces), traces)
	}
}

func TestExploreLimitReportsTruncation(t *testing.T) {
	_, _, err := ExploreFiltered(2, func(adv *Replay) error {
		ctl := New(Config{Procs: 2, Adversary: adv})
		for i := 0; i < 2; i++ {
			ctl.Go(i, func() { ctl.Step() })
		}
		return ctl.Wait()
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("ExploreFiltered with limit 2 = %v, want truncation error", err)
	}
}

func TestGroupLiveModeRunsPlainGoroutines(t *testing.T) {
	grp := NewGroup(nil)
	hits := make([]int, 3)
	for i := 0; i < 3; i++ {
		grp.Go(i, func() { hits[i] = 1 })
	}
	if err := grp.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !reflect.DeepEqual(hits, []int{1, 1, 1}) {
		t.Fatalf("hits = %v", hits)
	}
	if grp.Controller() != nil {
		t.Fatal("live group reports a controller")
	}
}

// Controller returns the controller driving this group (nil in live mode).
func (g *Group) Controller() *Controller { return g.ctl }
