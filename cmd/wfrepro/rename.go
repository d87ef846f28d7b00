package main

import (
	"fmt"

	"waitfree/internal/bg"
	"waitfree/internal/core"
	"waitfree/internal/tasks"
)

// cmdRename runs the wait-free (2p−1)-renaming algorithm.
func cmdRename(args []string) error {
	fs := newFlagSet("rename")
	procs := fs.Int("n", 4, "number of processes")
	trials := fs.Int("trials", 10, "independent runs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Printf("wait-free snapshot renaming, %d processes, target name space [1, %d]\n", *procs, 2**procs-1)
	maxName, maxSteps := 0, 0
	for t := 0; t < *trials; t++ {
		res, err := tasks.RunRenaming(core.NewDirectMemory(*procs), *procs, nil, nil)
		if err != nil {
			return err
		}
		if err := tasks.ValidateRenaming(res, *procs); err != nil {
			return fmt.Errorf("trial %d: %w", t, err)
		}
		for i, name := range res.Names {
			if name > maxName {
				maxName = name
			}
			if res.Steps[i] > maxSteps {
				maxSteps = res.Steps[i]
			}
		}
	}
	fmt.Printf("  %d runs: all names distinct; max name used %d (bound %d); max scan iterations %d\n",
		*trials, maxName, 2**procs-1, maxSteps)
	return nil
}

// cmdBG runs the Borowsky–Gafni simulation demo: simulators drive an
// f-resilient set consensus protocol of m simulated processes, surviving up
// to f simulator crashes.
func cmdBG(args []string) error {
	fs := newFlagSet("bg")
	nSim := fs.Int("sim", 3, "number of simulators")
	mProc := fs.Int("m", 5, "number of simulated processes")
	f := fs.Int("f", 2, "resilience of the simulated protocol (crashes tolerated)")
	crashes := fs.Int("crashes", 1, "simulators to crash (must be ≤ f)")
	trials := fs.Int("trials", 5, "independent runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *crashes > *f {
		return fmt.Errorf("%d crashes exceed the simulated resilience f=%d; the run would block", *crashes, *f)
	}

	inputs := make([]int, *nSim)
	for i := range inputs {
		inputs[i] = 10 * (i + 1)
	}
	fmt.Printf("BG simulation: %d simulators run %d simulated processes of %d-resilient set consensus\n",
		*nSim, *mProc, *f)
	for t := 0; t < *trials; t++ {
		sim := bg.NewSimulation(*nSim, *mProc, &bg.SetConsensusCode{MProc: *mProc, F: *f, Inputs: inputs})
		var crashAfter []int
		if *crashes > 0 {
			crashAfter = make([]int, *nSim)
			for i := range crashAfter {
				crashAfter[i] = -1
			}
			for i := 0; i < *crashes; i++ {
				crashAfter[i] = 3 + i // crash early, inside the simulation
			}
		}
		res := sim.RunAll(crashAfter)
		distinct := make(map[int]bool)
		for _, d := range res.Adopted {
			if d >= 0 {
				distinct[d] = true
			}
		}
		fmt.Printf("  trial %d: adopted=%v (%d distinct ≤ %d), simulated decisions=%d\n",
			t, res.Adopted, len(distinct), *f+1, len(res.Simulated))
		if len(distinct) > *f+1 {
			return fmt.Errorf("agreement bound violated")
		}
	}
	return nil
}
