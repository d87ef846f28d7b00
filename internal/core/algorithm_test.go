package core_test

import (
	"math"
	"testing"

	"waitfree/internal/core"
	"waitfree/internal/tasks"
)

// validate checks outputs with the one ε-agreement validator.
func validate(inputs, outputs []float64, eps float64) error {
	return tasks.ValidateApprox(inputs, &tasks.ApproxResult{Outputs: outputs}, eps)
}

func TestApproxAgreementOnDirectMemory(t *testing.T) {
	cases := []struct {
		inputs []float64
		eps    float64
	}{
		{[]float64{0, 1}, 0.25},
		{[]float64{0, 1, 0.5}, 0.1},
		{[]float64{3, 7, 5, 1}, 0.5},
		{[]float64{2, 2}, 0.01},
	}
	for _, tc := range cases {
		for trial := 0; trial < 10; trial++ {
			out, err := core.RunApproxAgreement(core.NewDirectMemory(len(tc.inputs)), tc.inputs, tc.eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := validate(tc.inputs, out, tc.eps); err != nil {
				t.Fatalf("inputs %v eps %g: %v", tc.inputs, tc.eps, err)
			}
		}
	}
}

// TestApproxAgreementOnEmulatedMemory is the end-to-end theorem: a real
// task, solved by a value-dependent protocol, over the Figure 2 emulation.
func TestApproxAgreementOnEmulatedMemory(t *testing.T) {
	inputs := []float64{0, 1, 0.25}
	const eps = 0.125
	for trial := 0; trial < 10; trial++ {
		out, err := core.RunApproxAgreement(core.NewEmulatedMemory(len(inputs)), inputs, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := validate(inputs, out, eps); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestApproxAgreementEmulatedWithCrash(t *testing.T) {
	inputs := []float64{0, 1}
	for trial := 0; trial < 10; trial++ {
		out, err := core.RunApproxAgreement(core.NewEmulatedMemory(2), inputs, 0.25, []int{1, -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := validate(inputs, out, 0.25); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !math.IsNaN(out[0]) {
			t.Fatal("crashed process produced an output")
		}
		if math.IsNaN(out[1]) {
			t.Fatal("survivor produced no output")
		}
	}
}

func TestApproxAgreementAlreadyAgreed(t *testing.T) {
	inputs := []float64{5, 5, 5}
	out, err := core.RunApproxAgreement(core.NewDirectMemory(3), inputs, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range out {
		if x != 5 {
			t.Fatalf("P%d output %g, want 5 (zero rounds needed)", i, x)
		}
	}
}

func TestApproxAgreementErrors(t *testing.T) {
	if _, err := core.RunApproxAgreement(core.NewDirectMemory(1), nil, 0.1, nil); err == nil {
		t.Error("empty inputs should fail")
	}
	if _, err := core.RunApproxAgreement(core.NewDirectMemory(1), []float64{1}, 0, nil); err == nil {
		t.Error("eps=0 should fail")
	}
}
