// Renaming: the second benchmark task of the paper's introduction.
//
// Runs the wait-free snapshot-based renaming algorithm for several
// participation patterns — all processes, sparse participation, and a crash
// mid-protocol — validating distinctness and the (2p−1) name-space bound
// each time.
package main

import (
	"fmt"
	"log"

	"waitfree/internal/core"
	"waitfree/internal/tasks"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const procs = 5

	// All participate.
	res, err := tasks.RunRenaming(core.NewDirectMemory(procs), procs, nil, nil)
	if err != nil {
		return err
	}
	if err := tasks.ValidateRenaming(res, procs); err != nil {
		return err
	}
	fmt.Printf("all %d processes: names %v (bound %d)\n", procs, res.Names, 2*procs-1)

	// Sparse participation: only processes 1 and 4 show up; with p = 2
	// participants the bound tightens to 3.
	participate := []bool{false, true, false, false, true}
	res, err = tasks.RunRenaming(core.NewDirectMemory(procs), procs, participate, nil)
	if err != nil {
		return err
	}
	if err := tasks.ValidateRenaming(res, 2); err != nil {
		return err
	}
	fmt.Printf("only P1 and P4: names %v (bound %d)\n", res.Names, 3)

	// Crash: P0 stops after its first scan; the survivors still rename.
	res, err = tasks.RunRenaming(core.NewDirectMemory(procs), procs, nil, []int{1, -1, -1, -1, -1})
	if err != nil {
		return err
	}
	if err := tasks.ValidateRenaming(res, procs); err != nil {
		return err
	}
	fmt.Printf("P0 crashed mid-protocol: names %v (0 = crashed, undecided)\n", res.Names)
	fmt.Printf("scan iterations per process: %v (wait-free: bounded, no waiting on the crash)\n", res.Steps)
	return nil
}
