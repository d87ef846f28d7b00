package main

import (
	"strings"
	"testing"
)

// TestSubcommandsRun exercises every CLI path with small parameters; each
// subcommand validates its own experiment and returns an error on any
// property violation, so "no error" is a meaningful check.
func TestSubcommandsRun(t *testing.T) {
	cases := [][]string{
		{"emulate", "-n", "2", "-k", "2", "-trials", "1"},
		{"emulate", "-n", "2", "-k", "2", "-trials", "1", "-crash", "0", "-show"},
		{"complex", "-n", "2", "-b", "1"},
		{"homology"},
		{"solve", "-maxb", "1"},
		{"twoproc"},
		{"converge", "-n", "1", "-target", "1", "-trials", "2", "-maxk", "2"},
		{"rename", "-n", "3", "-trials", "2"},
		{"bg", "-sim", "2", "-m", "3", "-f", "1", "-crashes", "0", "-trials", "1"},
		{"bound", "-n", "2"},
		{"adversary", "-algo", "commitadopt", "-adv", "priority-inversion", "-n", "3", "-crash", "2,-1,-1"},
		{"adversary", "-algo", "setconsensus", "-adv", "solo-0", "-n", "3", "-maxsteps", "2000"},
		{"adversary", "-algo", "renaming", "-adv", "random", "-seed", "42", "-n", "3"},
		{"adversary", "-algo", "renaming-emulated", "-adv", "round-robin", "-n", "3"},
		{"adversary", "-algo", "approx", "-adv", "laggard", "-n", "3", "-crash", "-1,3,-1"},
		{"adversary", "-algo", "fullinfo", "-adv", "block-1", "-n", "3"},
		{"adversary", "-algo", "bg", "-adv", "random", "-seed", "7", "-n", "3", "-crash", "-1,-1,9"},
		{"modelcheck", "-n", "3"},
		{"sperner", "-n", "2", "-b", "1", "-samples", "5"},
		{"ncsac", "-path", "3", "-trials", "2"},
		{"ncsac", "-path", "5", "-trials", "2"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, "_"), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
		})
	}
}

func TestRunRejectsUnknownAndEmpty(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("empty args should fail")
	}
	if err := run([]string{"nonsense"}); err == nil {
		t.Error("unknown subcommand should fail")
	}
}

func TestGuardsRejectExplosiveParameters(t *testing.T) {
	if err := run([]string{"complex", "-n", "3", "-b", "3"}); err == nil {
		t.Error("oversized complex enumeration should be rejected")
	}
	if err := run([]string{"sperner", "-n", "3", "-b", "3"}); err == nil {
		t.Error("oversized Sperner instance should be rejected")
	}
	if err := run([]string{"bg", "-crashes", "3", "-f", "1"}); err == nil {
		t.Error("crashes > f should be rejected (would block)")
	}
	if err := run([]string{"adversary", "-algo", "commitadopt", "-n", "2", "-crash", "0,0"}); err == nil {
		t.Error("crashing every process should be rejected (not a proper subset)")
	}
	if err := run([]string{"adversary", "-adv", "solo-5", "-n", "3"}); err == nil {
		t.Error("out-of-range solo adversary should be rejected")
	}
}

// TestSolveLabelsOnlyBudgetOverruns: a refused level is an error of its
// own, not a search that ran out of nodes.
func TestSolveLabelsOnlyBudgetOverruns(t *testing.T) {
	out := captureStdout(t, func() error { return run([]string{"solve", "-maxb", "-1"}) })
	if strings.Contains(string(out), "budget exceeded") {
		t.Fatalf("solve -maxb -1 labels a refused level a budget overrun:\n%s", out)
	}
}
