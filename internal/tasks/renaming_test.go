package tasks

import (
	"testing"

	"waitfree/internal/core"
)

func TestRenamingOverDirectMemory(t *testing.T) {
	const procs = 4
	for trial := 0; trial < 15; trial++ {
		res, err := RunRenaming(core.NewDirectMemory(procs), procs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateRenaming(res, procs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, name := range res.Names {
			if name == 0 {
				t.Fatalf("trial %d: P%d undecided", trial, i)
			}
		}
	}
}

// TestRenamingOverEmulatedMemory: renaming — a §1 motivating task — solved
// inside the iterated immediate snapshot model through the Figure 2
// emulation.
func TestRenamingOverEmulatedMemory(t *testing.T) {
	const procs = 3
	for trial := 0; trial < 10; trial++ {
		mem := core.NewEmulatedMemory(procs)
		res, err := RunRenaming(mem, procs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateRenaming(res, procs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, name := range res.Names {
			if name == 0 {
				t.Fatalf("trial %d: P%d undecided", trial, i)
			}
		}
		for _, used := range mem.MemoriesUsed() {
			if used == 0 {
				t.Fatal("emulator consumed no memories")
			}
		}
	}
}

func TestRenamingOverEmulatedWithCrash(t *testing.T) {
	const procs = 3
	for trial := 0; trial < 5; trial++ {
		res, err := RunRenaming(core.NewEmulatedMemory(procs), procs, nil, []int{1, -1, -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateRenaming(res, procs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, i := range []int{1, 2} {
			if res.Names[i] == 0 {
				t.Fatalf("trial %d: survivor %d undecided", trial, i)
			}
		}
	}
}

func TestRenamingOverMatchesNativeBound(t *testing.T) {
	// The emulated and native runs obey the same 2p−1 bound; sparse
	// participation tightens it.
	const procs = 4
	participate := []bool{true, false, true, false}
	res, err := RunRenaming(core.NewEmulatedMemory(procs), procs, participate, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRenaming(res, 2); err != nil {
		t.Fatal(err)
	}
}

func TestRenameStateCodec(t *testing.T) {
	id, prop, err := decodeRenameState(encodeRenameState(3, 7))
	if err != nil || id != 3 || prop != 7 {
		t.Fatalf("round trip = (%d, %d, %v)", id, prop, err)
	}
	if _, _, err := decodeRenameState("garbage"); err == nil {
		t.Error("garbage must fail")
	}
	if _, _, err := decodeRenameState("x:1"); err == nil {
		t.Error("bad id must fail")
	}
	if _, _, err := decodeRenameState("1:x"); err == nil {
		t.Error("bad proposal must fail")
	}
}
