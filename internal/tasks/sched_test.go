package tasks

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"waitfree/internal/core"
	"waitfree/internal/sched"
)

// schedCase is one (adversary, seed) point of the schedule-replay sweep.
// Every failure message below repeats the adversary name, the seed, and the
// crash vector, so a red test is a reproducible schedule by construction.
type schedCase struct {
	adv  string
	seed int64
}

// schedCases sweeps every registry adversary for n processes; the seeded
// random strategy is sampled at several seeds.
func schedCases(n int) []schedCase {
	cases := []schedCase{
		{"round-robin", 1},
		{"priority-inversion", 1},
		{"laggard", 1},
	}
	for p := 0; p < n; p++ {
		cases = append(cases, schedCase{fmt.Sprintf("solo-%d", p), 1})
	}
	for k := 1; k < n; k++ {
		cases = append(cases, schedCase{fmt.Sprintf("block-%d", k), 1})
	}
	for _, seed := range []int64{1, 7, 20260805} {
		cases = append(cases, schedCase{"random", seed})
	}
	return cases
}

// crashVector converts a crash-set bitmask into a Config.CrashAt vector:
// process i in the mask is fail-stopped when it attempts its (2+i)-th step —
// mid-protocol for every runtime here, whose processes all take more step
// points than that to decide.
func crashVector(procs, mask int) []int {
	crashAt := make([]int, procs)
	for i := range crashAt {
		crashAt[i] = -1
		if mask&(1<<i) != 0 {
			crashAt[i] = 2 + i
		}
	}
	return crashAt
}

// forEachSchedule runs body for every (adversary, seed, proper-subset crash
// mask) combination, handing it a fresh controller.
func forEachSchedule(t *testing.T, procs, maxSteps int, body func(t *testing.T, ctl *sched.Controller, tc schedCase, mask int, crashAt []int)) {
	t.Helper()
	for _, tc := range schedCases(procs) {
		for mask := 0; mask < (1<<procs)-1; mask++ { // every PROPER subset crashes
			name := fmt.Sprintf("%s/seed=%d/crash=%0*b", tc.adv, tc.seed, procs, mask)
			t.Run(name, func(t *testing.T) {
				adv, err := sched.NewAdversary(tc.adv, tc.seed, procs)
				if err != nil {
					t.Fatalf("NewAdversary(%q): %v", tc.adv, err)
				}
				crashAt := crashVector(procs, mask)
				ctl := sched.New(sched.Config{Procs: procs, Adversary: adv, CrashAt: crashAt, MaxSteps: maxSteps})
				body(t, ctl, tc, mask, crashAt)
			})
		}
	}
}

func TestCommitAdoptUnderAdversarialSchedules(t *testing.T) {
	const procs = 3
	inputs := []int{7, 7, 9}
	forEachSchedule(t, procs, 0, func(t *testing.T, ctl *sched.Controller, tc schedCase, mask int, crashAt []int) {
		out, err := RunCommitAdopt(inputs, nil, sched.Under(ctl))
		if err != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: commit-adopt is wait-free but did not finish: %v",
				tc.adv, tc.seed, crashAt, err)
		}
		if verr := ValidateCommitAdopt(inputs, out); verr != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: %v", tc.adv, tc.seed, crashAt, verr)
		}
		for i := 0; i < procs; i++ {
			if mask&(1<<i) != 0 {
				if !ctl.Crashed(i) {
					t.Errorf("adversary=%s seed=%d crash=%v: P%d should have crashed, status %v",
						tc.adv, tc.seed, crashAt, i, ctl.StatusOf(i))
				}
				continue
			}
			if !out[i].Decided {
				t.Errorf("adversary=%s seed=%d crash=%v: survivor P%d did not decide",
					tc.adv, tc.seed, crashAt, i)
			}
		}
	})
}

func TestSetConsensusUnderAdversarialSchedules(t *testing.T) {
	const procs = 3
	inputs := []int{3, 1, 2}
	forEachSchedule(t, procs, 20000, func(t *testing.T, ctl *sched.Controller, tc schedCase, mask int, crashAt []int) {
		f := bits.OnesCount(uint(mask))
		if f == 0 {
			f = 1
		}
		res, err := RunFResilientSetConsensus(inputs, f, nil, sched.Under(ctl))
		var be *sched.BudgetError
		if err != nil && !errors.As(err, &be) {
			t.Fatalf("adversary=%s seed=%d crash=%v: %v", tc.adv, tc.seed, crashAt, err)
		}
		// The protocol is f-resilient, not wait-free: starvation adversaries
		// may legally spin it into the step budget. Whatever WAS decided must
		// still satisfy (f+1)-agreement and validity.
		if verr := ValidateSetConsensus(inputs, res, f+1); verr != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: %v", tc.adv, tc.seed, crashAt, verr)
		}
		// Under the fair schedule the f-resilient protocol must terminate
		// (at most f injected crashes) with every survivor decided.
		if tc.adv == "round-robin" {
			if err != nil {
				t.Fatalf("adversary=%s seed=%d crash=%v: fair schedule did not terminate: %v",
					tc.adv, tc.seed, crashAt, err)
			}
			for i := 0; i < procs; i++ {
				if mask&(1<<i) == 0 && res.Decisions[i] < 0 {
					t.Errorf("adversary=%s seed=%d crash=%v: survivor P%d undecided under fair schedule",
						tc.adv, tc.seed, crashAt, i)
				}
			}
		}
	})
}

func TestRenamingUnderAdversarialSchedules(t *testing.T) {
	const procs = 3
	forEachSchedule(t, procs, 0, func(t *testing.T, ctl *sched.Controller, tc schedCase, mask int, crashAt []int) {
		res, err := RunRenaming(core.NewDirectMemory(procs), procs, nil, nil, sched.Under(ctl))
		if err != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: renaming is wait-free but did not finish: %v",
				tc.adv, tc.seed, crashAt, err)
		}
		if verr := ValidateRenaming(res, procs); verr != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: %v", tc.adv, tc.seed, crashAt, verr)
		}
		for i := 0; i < procs; i++ {
			if mask&(1<<i) != 0 {
				if res.Names[i] != 0 {
					t.Errorf("adversary=%s seed=%d crash=%v: crashed P%d holds name %d",
						tc.adv, tc.seed, crashAt, i, res.Names[i])
				}
				continue
			}
			if res.Names[i] == 0 {
				t.Errorf("adversary=%s seed=%d crash=%v: survivor P%d got no name",
					tc.adv, tc.seed, crashAt, i)
			}
		}
	})
}

func TestApproxAgreementUnderAdversarialSchedules(t *testing.T) {
	const (
		procs = 3
		eps   = 0.05
	)
	inputs := []float64{0, 1, 0.5}
	forEachSchedule(t, procs, 0, func(t *testing.T, ctl *sched.Controller, tc schedCase, mask int, crashAt []int) {
		res, err := RunApproxAgreement(inputs, eps, nil, sched.Under(ctl))
		if err != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: approximate agreement is wait-free but did not finish: %v",
				tc.adv, tc.seed, crashAt, err)
		}
		if verr := ValidateApprox(inputs, res, eps); verr != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: %v", tc.adv, tc.seed, crashAt, verr)
		}
		for i := 0; i < procs; i++ {
			if mask&(1<<i) != 0 {
				if !math.IsNaN(res.Outputs[i]) {
					t.Errorf("adversary=%s seed=%d crash=%v: crashed P%d reports output %g",
						tc.adv, tc.seed, crashAt, i, res.Outputs[i])
				}
				continue
			}
			if math.IsNaN(res.Outputs[i]) {
				t.Errorf("adversary=%s seed=%d crash=%v: survivor P%d has no output",
					tc.adv, tc.seed, crashAt, i)
			}
		}
	})
}

// TestRenamingOverEmulationUnderSchedules drives the Figure-2 emulation
// itself through the scheduler: the same renaming protocol, but every shot
// memory operation funnels through the emulated snapshot loop.
func TestRenamingOverEmulationUnderSchedules(t *testing.T) {
	const procs = 3
	for _, advName := range []string{"round-robin", "priority-inversion", "random"} {
		for _, mask := range []int{0, 0b001, 0b110} {
			t.Run(fmt.Sprintf("%s/crash=%03b", advName, mask), func(t *testing.T) {
				adv, err := sched.NewAdversary(advName, 11, procs)
				if err != nil {
					t.Fatal(err)
				}
				crashAt := crashVector(procs, mask)
				ctl := sched.New(sched.Config{Procs: procs, Adversary: adv, CrashAt: crashAt})
				res, err := RunRenaming(core.NewEmulatedMemory(procs), procs, nil, nil, sched.Under(ctl))
				if err != nil {
					t.Fatalf("adversary=%s seed=11 crash=%v: %v", advName, crashAt, err)
				}
				if verr := ValidateRenaming(res, procs); verr != nil {
					t.Fatalf("adversary=%s seed=11 crash=%v: %v", advName, crashAt, verr)
				}
				for i := 0; i < procs; i++ {
					if mask&(1<<i) == 0 && res.Names[i] == 0 {
						t.Errorf("adversary=%s seed=11 crash=%v: survivor P%d got no name", advName, crashAt, i)
					}
				}
			})
		}
	}
}

// TestTaskScheduleReproducibility pins the tentpole property end to end: the
// same (adversary, seed, crash vector) replays the identical interleaving of
// a real runtime, step for step.
func TestTaskScheduleReproducibility(t *testing.T) {
	const procs = 3
	inputs := []int{4, 5, 6}
	run := func() ([]int, []CADecision) {
		ctl := sched.New(sched.Config{
			Procs:     procs,
			Adversary: sched.NewRandom(1234),
			CrashAt:   []int{-1, 3, -1},
		})
		out, err := RunCommitAdopt(inputs, nil, sched.Under(ctl))
		if err != nil {
			t.Fatalf("RunCommitAdopt: %v", err)
		}
		return ctl.Trace(), out
	}
	trace1, out1 := run()
	trace2, out2 := run()
	if !reflect.DeepEqual(trace1, trace2) {
		t.Fatalf("adversary=random seed=1234 crash=[-1 3 -1]: traces diverge:\n%v\n%v", trace1, trace2)
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Fatalf("adversary=random seed=1234 crash=[-1 3 -1]: outcomes diverge: %+v vs %+v", out1, out2)
	}
	if len(trace1) == 0 {
		t.Fatal("empty trace: the schedule did not run under the controller")
	}
}
