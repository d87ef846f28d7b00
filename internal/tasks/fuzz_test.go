package tasks

import (
	"math"
	"testing"

	"waitfree/internal/core"
	"waitfree/internal/sched"
)

// FuzzDecodeRenameState hardens the rename-state codec used over abstract
// (possibly emulated) memory.
func FuzzDecodeRenameState(f *testing.F) {
	f.Add("3:7")
	f.Add("")
	f.Add(":")
	f.Add("a:b")
	f.Add("1:2:3")
	f.Fuzz(func(t *testing.T, s string) {
		id, prop, err := decodeRenameState(s)
		if err != nil {
			return
		}
		id2, prop2, err := decodeRenameState(encodeRenameState(id, prop))
		if err != nil || id2 != id || prop2 != prop {
			t.Fatalf("round trip (%d,%d) → (%d,%d,%v)", id, prop, id2, prop2, err)
		}
	})
}

// fuzzTaskAdversaries is the strategy pool FuzzScheduledTasks draws from.
var fuzzTaskAdversaries = []string{
	"round-robin", "random", "priority-inversion", "laggard",
	"solo-0", "solo-1", "solo-2", "block-1", "block-2",
}

// FuzzScheduledTasks runs the wait-free task runtimes (commit-adopt,
// renaming, approximate agreement) under fuzzed scheduler seeds, adversary
// choices, and proper-subset crash vectors: every schedule found must
// terminate within the step budget with spec-conforming survivor outputs.
func FuzzScheduledTasks(f *testing.F) {
	f.Add(int64(1), 0, 0)
	f.Add(int64(42), 3, 1)
	f.Add(int64(7), 5, 6)
	f.Add(int64(20260805), 6, 8)
	f.Fuzz(func(t *testing.T, seed int64, maskSel, advSel int) {
		const procs = 3
		name := fuzzTaskAdversaries[((advSel%len(fuzzTaskAdversaries))+len(fuzzTaskAdversaries))%len(fuzzTaskAdversaries)]
		mask := ((maskSel % 7) + 7) % 7 // proper subsets of {0,1,2} only
		crashAt := crashVector(procs, mask)

		ctlFor := func() *sched.Controller {
			adv, err := sched.NewAdversary(name, seed, procs)
			if err != nil {
				t.Fatalf("NewAdversary(%q): %v", name, err)
			}
			return sched.New(sched.Config{Procs: procs, Adversary: adv, CrashAt: crashAt, MaxSteps: 300000})
		}

		inputs := []int{int(seed%100) - 50, 7, 7}
		out, err := RunCommitAdopt(inputs, nil, sched.Under(ctlFor()))
		if err != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: commit-adopt: %v", name, seed, crashAt, err)
		}
		if verr := ValidateCommitAdopt(inputs, out); verr != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: commit-adopt: %v", name, seed, crashAt, verr)
		}

		res, err := RunRenaming(core.NewDirectMemory(procs), procs, nil, nil, sched.Under(ctlFor()))
		if err != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: renaming: %v", name, seed, crashAt, err)
		}
		if verr := ValidateRenaming(res, procs); verr != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: renaming: %v", name, seed, crashAt, verr)
		}

		fin := []float64{float64(seed%17) / 17, 0.25, 1}
		const eps = 0.1
		ares, err := RunApproxAgreement(fin, eps, nil, sched.Under(ctlFor()))
		if err != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: approx: %v", name, seed, crashAt, err)
		}
		if verr := ValidateApprox(fin, ares, eps); verr != nil {
			t.Fatalf("adversary=%s seed=%d crash=%v: approx: %v", name, seed, crashAt, verr)
		}
		for i := 0; i < procs; i++ {
			if mask&(1<<i) == 0 && math.IsNaN(ares.Outputs[i]) {
				t.Fatalf("adversary=%s seed=%d crash=%v: approx survivor P%d has no output",
					name, seed, crashAt, i)
			}
		}
	})
}
