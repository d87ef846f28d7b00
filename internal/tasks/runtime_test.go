package tasks

import (
	"math"
	"testing"
	"testing/quick"

	"waitfree/internal/core"
)

func TestRenamingAllParticipate(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 20; trial++ {
			res, err := RunRenaming(core.NewDirectMemory(procs), procs, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateRenaming(res, procs); err != nil {
				t.Fatalf("procs=%d trial=%d: %v", procs, trial, err)
			}
			for i, name := range res.Names {
				if name == 0 {
					t.Fatalf("procs=%d: process %d did not decide", procs, i)
				}
			}
		}
	}
}

func TestRenamingSubsets(t *testing.T) {
	// Only a subset participates; the bound is 2p−1 for p participants.
	const procs = 5
	for mask := 1; mask < 1<<procs; mask++ {
		participate := make([]bool, procs)
		p := 0
		for i := 0; i < procs; i++ {
			if mask&(1<<i) != 0 {
				participate[i] = true
				p++
			}
		}
		res, err := RunRenaming(core.NewDirectMemory(procs), procs, participate, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateRenaming(res, p); err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for i := 0; i < procs; i++ {
			if participate[i] && res.Names[i] == 0 {
				t.Fatalf("mask %b: participant %d did not decide", mask, i)
			}
			if !participate[i] && res.Names[i] != 0 {
				t.Fatalf("mask %b: non-participant %d decided", mask, i)
			}
		}
	}
}

func TestRenamingWithCrashes(t *testing.T) {
	// A crashed participant still counts toward p, and survivors must
	// decide distinct names within 2p−1.
	const procs = 4
	for trial := 0; trial < 20; trial++ {
		res, err := RunRenaming(core.NewDirectMemory(procs), procs, nil, []int{1, -1, -1, -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateRenaming(res, procs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 1; i < procs; i++ {
			if res.Names[i] == 0 {
				t.Fatalf("trial %d: survivor %d did not decide", trial, i)
			}
		}
	}
}

func TestApproxAgreementConverges(t *testing.T) {
	cases := []struct {
		inputs []float64
		eps    float64
	}{
		{[]float64{0, 1}, 0.25},
		{[]float64{0, 1, 1}, 0.1},
		{[]float64{3, 7, 5, 1}, 0.5},
		{[]float64{2, 2, 2}, 0.01},
	}
	for _, tc := range cases {
		for trial := 0; trial < 10; trial++ {
			res, err := RunApproxAgreement(tc.inputs, tc.eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateApprox(tc.inputs, res, tc.eps); err != nil {
				t.Fatalf("inputs %v eps %g: %v", tc.inputs, tc.eps, err)
			}
		}
	}
}

func TestApproxAgreementWithCrashes(t *testing.T) {
	inputs := []float64{0, 1, 0.5}
	for trial := 0; trial < 10; trial++ {
		res, err := RunApproxAgreement(inputs, 0.125, []int{-1, 1, -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateApprox(inputs, res, 0.125); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !math.IsNaN(res.Outputs[1]) {
			t.Fatal("crashed process should have no output")
		}
	}
}

func TestApproxRoundsForEpsilon(t *testing.T) {
	if got := RoundsForEpsilon(1, 0.25); got != 2 {
		t.Errorf("RoundsForEpsilon(1, .25) = %d, want 2", got)
	}
	if got := RoundsForEpsilon(0.1, 0.5); got != 0 {
		t.Errorf("already-agreed inputs need %d rounds, want 0", got)
	}
	if got := RoundsForEpsilon(1, 0); got != 0 {
		t.Errorf("eps=0 should clamp to 0 rounds, got %d", got)
	}
}

func TestApproxQuickRandomInputs(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 5 {
			return true
		}
		inputs := make([]float64, len(raw))
		for i, r := range raw {
			inputs[i] = float64(r) / 16
		}
		const eps = 0.5
		res, err := RunApproxAgreement(inputs, eps, nil)
		if err != nil {
			return false
		}
		return ValidateApprox(inputs, res, eps) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFResilientSetConsensus(t *testing.T) {
	inputs := []int{30, 10, 20, 40}
	for f := 0; f < 3; f++ {
		k := f + 1
		for trial := 0; trial < 10; trial++ {
			res, err := RunFResilientSetConsensus(inputs, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateSetConsensus(inputs, res, k); err != nil {
				t.Fatalf("f=%d trial=%d: %v", f, trial, err)
			}
		}
	}
}

func TestFResilientSetConsensusWithCrashes(t *testing.T) {
	inputs := []int{3, 1, 2, 4}
	crashed := []bool{false, true, false, false}
	res, err := RunFResilientSetConsensus(inputs, 1, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSetConsensus(inputs, res, 2); err != nil {
		t.Fatal(err)
	}
	if res.Decisions[1] != -1 {
		t.Fatal("crashed process decided")
	}
	for _, i := range []int{0, 2, 3} {
		if res.Decisions[i] < 0 {
			t.Fatalf("survivor %d did not decide", i)
		}
	}
}

func TestFResilientSetConsensusRejectsTooManyCrashes(t *testing.T) {
	if _, err := RunFResilientSetConsensus([]int{1, 2, 3}, 1, []bool{true, true, false}); err == nil {
		t.Fatal("2 crashes with f=1 should be rejected (would block)")
	}
}

func TestSetConsensusZeroResilienceIsConsensus(t *testing.T) {
	// f=0, k=1: everyone waits for all inputs and decides the global min —
	// plain consensus, which is fine when nobody crashes.
	inputs := []int{5, 3, 9}
	res, err := RunFResilientSetConsensus(inputs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Decisions {
		if d != 3 {
			t.Fatalf("P%d decided %d, want global min 3", i, d)
		}
	}
}

func TestValidateApproxDetectsViolations(t *testing.T) {
	inputs := []float64{0, 1}
	check := func(outputs []float64, eps float64) error {
		return ValidateApprox(inputs, &ApproxResult{Outputs: outputs}, eps)
	}
	if err := check([]float64{0, 0.9}, 0.5); err == nil {
		t.Error("disagreement beyond eps not detected")
	}
	if err := check([]float64{-0.5, 0}, 1); err == nil {
		t.Error("out-of-range output not detected")
	}
	if err := check([]float64{math.NaN(), 0.5}, 0.1); err != nil {
		t.Errorf("NaN should be skipped: %v", err)
	}
}
