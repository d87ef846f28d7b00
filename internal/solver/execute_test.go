package solver

import (
	"context"
	"testing"

	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// inputTuple picks, for each process, the input vertex with the given value.
func inputTuple(t *testing.T, task *tasks.Task, vals ...string) []topology.Vertex {
	t.Helper()
	out := make([]topology.Vertex, len(vals))
	for i, val := range vals {
		found := false
		for _, v := range task.Inputs.VerticesOfColor(i) {
			if task.InputValue(v) == val {
				out[i] = v
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no input vertex for P%d=%s", i, val)
		}
	}
	return out
}

// TestExecuteApproxAgreement compiles the ε-agreement decision map and runs
// it as a real concurrent protocol — the characterization end to end.
func TestExecuteApproxAgreement(t *testing.T) {
	task := tasks.ApproxAgreement(2)
	res, err := SolveUpTo(task, 1, Options{})
	if err != nil || !res.Solvable {
		t.Fatalf("solve: %v %v", res.Solvable, err)
	}
	inputs := inputTuple(t, task, "0", "2")
	for trial := 0; trial < 25; trial++ {
		out, err := Execute(task, res, inputs, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ValidateExecution(task, inputs, out, []int{0, 1}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for p, w := range out {
			if w < 0 {
				t.Fatalf("trial %d: P%d did not decide", trial, p)
			}
		}
	}
}

func TestExecuteWithCrash(t *testing.T) {
	task := tasks.ApproxAgreement(2)
	res, err := SolveUpTo(task, 1, Options{})
	if err != nil || !res.Solvable {
		t.Fatal("solve failed")
	}
	inputs := inputTuple(t, task, "0", "2")
	for trial := 0; trial < 10; trial++ {
		out, err := Execute(task, res, inputs, []int{0, -1}) // P0 takes no steps
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != -1 {
			t.Fatal("crashed process decided")
		}
		// Only P1 participates: its decision must be allowed for its solo
		// input — i.e. its own value 2.
		if err := ValidateExecution(task, inputs, out, []int{1}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := task.OutputValue(out[1]); got != "2" {
			t.Fatalf("solo P1 decided %s, want 2", got)
		}
	}
}

func TestExecuteLevelZeroTask(t *testing.T) {
	task := tasks.SetConsensus(3, 3)
	res, err := SolveAtLevelOn(context.Background(), task, 0, topology.SDSPow(task.Inputs, 0), Options{})
	if err != nil || !res.Solvable {
		t.Fatal("solve failed")
	}
	inputs := inputTuple(t, task, "0", "1", "2")
	out, err := Execute(task, res, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExecution(task, inputs, out, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteThreeProcessApprox compiles and runs the 3-process
// ε-agreement decision map (level 1, over SDS of eight glued triangles).
func TestExecuteThreeProcessApprox(t *testing.T) {
	task := tasks.ApproxAgreementN(3, 2)
	res, err := SolveUpTo(task, 1, Options{})
	if err != nil || !res.Solvable {
		t.Fatalf("solve: %v %v", res.Solvable, err)
	}
	inputs := inputTuple(t, task, "0", "2", "0")
	for trial := 0; trial < 15; trial++ {
		out, err := Execute(task, res, inputs, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ValidateExecution(task, inputs, out, []int{0, 1, 2}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	// One crash.
	out, err := Execute(task, res, inputs, []int{-1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExecution(task, inputs, out, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteRejectsBadInputs(t *testing.T) {
	task := tasks.ApproxAgreement(2)
	res, err := SolveUpTo(task, 1, Options{})
	if err != nil || !res.Solvable {
		t.Fatal("solve failed")
	}
	// Unsolvable result.
	consensus := tasks.Consensus(2)
	bad, _ := SolveAtLevelOn(context.Background(), consensus, 0, topology.SDSPow(consensus.Inputs, 0), Options{})
	if _, err := Execute(consensus, bad, nil, nil); err == nil {
		t.Error("executing an unsolvable result must fail")
	}
	// Wrong arity.
	if _, err := Execute(task, res, []topology.Vertex{0}, nil); err == nil {
		t.Error("wrong input count must fail")
	}
	// Wrong color: swap the two inputs.
	inputs := inputTuple(t, task, "0", "2")
	if _, err := Execute(task, res, []topology.Vertex{inputs[1], inputs[0]}, nil); err == nil {
		t.Error("mis-colored inputs must fail")
	}
}

// TestExecuteDecidesInExactlyBRounds is Lemma 3.1 made concrete: a compiled
// decision map is a bounded wait-free protocol — every process decides after
// exactly res.Level one-shot memories.
func TestExecuteDecidesInExactlyBRounds(t *testing.T) {
	task := tasks.ApproxAgreement(4)
	res, err := SolveUpTo(task, 2, Options{})
	if err != nil || !res.Solvable || res.Level != 2 {
		t.Fatalf("solve: %+v %v", res, err)
	}
	// The protocol runs res.Level rounds by construction; deciding earlier
	// or later is impossible. Execute's correctness across trials is the
	// observable consequence.
	inputs := inputTuple(t, task, "0", "4")
	out, err := Execute(task, res, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExecution(task, inputs, out, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
}
