// Benchmarks regenerating every experiment of EXPERIMENTS.md (E1–E11), one
// benchmark (family) per paper artifact. Run with:
//
//	go test -bench=. -benchmem ./...
package waitfree_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"waitfree/internal/bg"
	"waitfree/internal/converge"
	"waitfree/internal/core"
	"waitfree/internal/homology"
	"waitfree/internal/modelcheck"
	"waitfree/internal/protocol"
	"waitfree/internal/register"
	"waitfree/internal/sched"
	"waitfree/internal/solver"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// --- E1: Figure 1, the k-shot protocol on native atomic snapshots ---------

func BenchmarkFig1AtomicSnapshot(b *testing.B) {
	for _, n := range []int{2, 3, 5} {
		b.Run(fmt.Sprintf("n=%d/k=3", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := core.RunKShot(core.NewDirectMemory(n), core.RunConfig{N: n, K: 3})
				if err != nil {
					b.Fatal(err)
				}
				if len(tr.Ops) != n*6 {
					b.Fatal("short trace")
				}
			}
		})
	}
}

// --- E2: Figure 2, the emulation over iterated immediate snapshots --------

func BenchmarkFig2Emulation(b *testing.B) {
	for _, n := range []int{2, 3, 5} {
		b.Run(fmt.Sprintf("n=%d/k=3", n), func(b *testing.B) {
			var memories int
			for i := 0; i < b.N; i++ {
				mem := core.NewEmulatedMemory(n)
				if _, err := core.RunKShot(mem, core.RunConfig{N: n, K: 3}); err != nil {
					b.Fatal(err)
				}
				for _, m := range mem.MemoriesUsed() {
					memories += m
				}
			}
			// One-shot memories consumed per emulated operation (≥ 1; the
			// excess is the price of contention — the paper's "nonblocking"
			// caveat quantified).
			b.ReportMetric(float64(memories)/float64(b.N*n*6), "memories/op")
		})
	}
}

// --- E17: the deterministic scheduler's cost on the Figure-2 emulation -----

// BenchmarkScheduledEmulation measures the Figure-2 emulation on the live Go
// scheduler (the production path, gate checks compiled in but nil) against
// the same run serialized under deterministic adversaries. The live variant
// is the regression guard for the step-point instrumentation: it must stay
// within noise of BenchmarkFig2Emulation.
func BenchmarkScheduledEmulation(b *testing.B) {
	const (
		n = 3
		k = 3
	)
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunKShot(core.NewEmulatedMemory(n), core.RunConfig{N: n, K: k}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, advName := range []string{"round-robin", "random", "priority-inversion"} {
		b.Run(advName, func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				adv, err := sched.NewAdversary(advName, int64(i+1), n)
				if err != nil {
					b.Fatal(err)
				}
				ctl := sched.New(sched.Config{Procs: n, Adversary: adv})
				if _, err := core.RunKShot(core.NewEmulatedMemory(n), core.RunConfig{N: n, K: k, Sched: ctl}); err != nil {
					b.Fatal(err)
				}
				steps += ctl.TotalSteps()
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
		})
	}
}

// BenchmarkEmulationOverhead contrasts E1 and E2 head to head at n=3.
func BenchmarkEmulationOverhead(b *testing.B) {
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunKShot(core.NewDirectMemory(3), core.RunConfig{N: 3, K: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("emulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunKShot(core.NewEmulatedMemory(3), core.RunConfig{N: 3, K: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E3: Lemma 3.2, the one-shot view complex = SDS(sⁿ) --------------------

func BenchmarkOneShotComplex(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vc := protocol.ViewComplex(n, 1)
				if len(vc.Facets()) != topology.CountOrderedPartitions(n+1) {
					b.Fatal("wrong facet count")
				}
			}
		})
	}
}

// --- E4: Lemma 3.3, SDS^b growth -------------------------------------------

func BenchmarkIteratedComplex(b *testing.B) {
	for _, rounds := range []int{1, 2} {
		b.Run(fmt.Sprintf("n=2/b=%d", rounds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vc := protocol.ViewComplex(2, rounds)
				want := 1
				for j := 0; j < rounds; j++ {
					want *= 13
				}
				if len(vc.Facets()) != want {
					b.Fatal("wrong facet count")
				}
			}
		})
	}
}

func BenchmarkSDSConstruction(b *testing.B) {
	for _, bb := range []int{1, 2} {
		b.Run(fmt.Sprintf("n=2/b=%d", bb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topology.SDSPow(topology.Simplex(2), bb)
			}
		})
	}
}

// --- E5: Lemma 3.1, the König-tree decision bound ---------------------------

func BenchmarkBoundedSolvability(b *testing.B) {
	decided := func(p, round int, key string) bool { return round >= 2 }
	for i := 0; i < b.N; i++ {
		bound, err := protocol.ExploreDecisionBound(2, decided, 4)
		if err != nil || bound != 2 {
			b.Fatalf("bound=%d err=%v", bound, err)
		}
	}
}

// --- E6: Proposition 3.1, the solvability checker ---------------------------

func BenchmarkSolverConsensus(b *testing.B) {
	task := tasks.Consensus(2)
	for i := 0; i < b.N; i++ {
		res, err := solver.SolveUpTo(task, 2, solver.Options{})
		if err != nil || res.Solvable {
			b.Fatalf("unexpected: %v %v", res.Solvable, err)
		}
	}
}

func BenchmarkSolverSetConsensus(b *testing.B) {
	task := tasks.SetConsensus(3, 2)
	for i := 0; i < b.N; i++ {
		res, err := solver.SolveAtLevelOn(context.Background(), task, 1, topology.SDSPow(task.Inputs, 1), solver.Options{})
		if err != nil || res.Solvable {
			b.Fatalf("unexpected: %v %v", res.Solvable, err)
		}
	}
}

func BenchmarkSolverApprox(b *testing.B) {
	for _, d := range []int{2, 4, 9} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			task := tasks.ApproxAgreement(d)
			for i := 0; i < b.N; i++ {
				res, err := solver.SolveUpTo(task, 2, solver.Options{})
				if err != nil || !res.Solvable {
					b.Fatalf("unexpected: %v %v", res.Solvable, err)
				}
			}
		})
	}
}

// BenchmarkTwoProcExactDecision measures the exact (unbounded-level)
// two-process decision procedure.
func BenchmarkTwoProcExactDecision(b *testing.B) {
	b.Run("consensus", func(b *testing.B) {
		task := tasks.Consensus(2)
		for i := 0; i < b.N; i++ {
			res, err := solver.DecideTwoProcess(task)
			if err != nil || res.Solvable {
				b.Fatalf("unexpected: %v %v", res, err)
			}
		}
	})
	b.Run("approx-27", func(b *testing.B) {
		task := tasks.ApproxAgreement(27)
		for i := 0; i < b.N; i++ {
			res, err := solver.DecideTwoProcess(task)
			if err != nil || !res.Solvable || res.Level != 3 {
				b.Fatalf("unexpected: %+v %v", res, err)
			}
		}
	})
}

// BenchmarkModelCheck measures the exhaustive interleaving exploration of
// the participating-set algorithm (E3's step-level verification).
func BenchmarkModelCheck(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := modelcheck.Explore(n)
				if err != nil {
					b.Fatal(err)
				}
				if res.Outcomes != topology.CountOrderedPartitions(n) {
					b.Fatal("outcome mismatch")
				}
			}
		})
	}
}

// BenchmarkModelCheckEmulation measures the exhaustive IIS-schedule
// verification of the Figure 2 emulation (one shot).
func BenchmarkModelCheckEmulation(b *testing.B) {
	for _, n := range []int{2, 3} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := modelcheck.ExploreEmulation(n, 14)
				if err != nil {
					b.Fatal(err)
				}
				if res.Terminals == 0 {
					b.Fatal("no terminals")
				}
			}
		})
	}
}

// BenchmarkSperner measures panchromatic counting over random Sperner
// labelings of SDS²(s²).
func BenchmarkSperner(b *testing.B) {
	c := topology.SDSPow(topology.Simplex(2), 2)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		label := topology.RandomSpernerLabeling(c, rng)
		n, err := topology.CountPanchromatic(c, label)
		if err != nil || n%2 != 1 {
			b.Fatalf("count=%d err=%v", n, err)
		}
	}
}

// BenchmarkLoopAgreement measures the checker on the Herlihy–Rajsbaum loop
// agreement family (the undecidability gadget): contractible (solvable at
// level 0) vs non-contractible (exhausted at level 1).
func BenchmarkLoopAgreement(b *testing.B) {
	mk := func(hollow bool) *tasks.Task {
		c := topology.NewComplex()
		x := c.MustAddVertex("a", topology.Uncolored)
		y := c.MustAddVertex("b", topology.Uncolored)
		z := c.MustAddVertex("d", topology.Uncolored)
		if hollow {
			c.MustAddSimplex(x, y)
			c.MustAddSimplex(y, z)
			c.MustAddSimplex(x, z)
		} else {
			c.MustAddSimplex(x, y, z)
		}
		c.Seal()
		task, err := tasks.LoopAgreement(c, [3]topology.Vertex{x, y, z},
			[3][]topology.Vertex{{x, y}, {y, z}, {x, z}})
		if err != nil {
			b.Fatal(err)
		}
		return task
	}
	b.Run("contractible", func(b *testing.B) {
		task := mk(false)
		for i := 0; i < b.N; i++ {
			res, err := solver.SolveAtLevelOn(context.Background(), task, 0, topology.SDSPow(task.Inputs, 0), solver.Options{})
			if err != nil || !res.Solvable {
				b.Fatalf("unexpected: %v %v", res.Solvable, err)
			}
		}
	})
	b.Run("noncontractible", func(b *testing.B) {
		task := mk(true)
		for i := 0; i < b.N; i++ {
			res, err := solver.SolveAtLevelOn(context.Background(), task, 1, topology.SDSPow(task.Inputs, 1), solver.Options{})
			if err != nil || res.Solvable {
				b.Fatalf("unexpected: %v %v", res.Solvable, err)
			}
		}
	})
}

// BenchmarkNCSAC measures compiling and running non-chromatic simplex
// agreement over a path complex (§5's NCSAC task).
func BenchmarkNCSAC(b *testing.B) {
	c := topology.NewComplex()
	var vs []topology.Vertex
	for i := 0; i < 3; i++ {
		vs = append(vs, c.MustAddVertex(fmt.Sprintf("a%d", i), topology.Uncolored))
	}
	c.MustAddSimplex(vs[0], vs[1])
	c.MustAddSimplex(vs[1], vs[2])
	c.Seal()

	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := converge.SolveNCSACTwoProcess(c, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	sol, err := converge.SolveNCSACTwoProcess(c, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := converge.RunNCSAC(sol, [2]topology.Vertex{0, 2}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := converge.ValidateNCSAC(sol, [2]topology.Vertex{0, 2}, out, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E7: Theorem 5.1, the convergence map and CSASS -------------------------

func BenchmarkConvergenceMapSearch(b *testing.B) {
	base := topology.Simplex(2)
	a := topology.SDS(base)
	for i := 0; i < b.N; i++ {
		if _, _, err := converge.FindChromaticMapCtx(context.Background(), base, a, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSASSRuntime runs chromatic simplex agreement on SDS(s²) with
// the solver's decision map for it (solver.Execute), and validates each
// run.
func BenchmarkCSASSRuntime(b *testing.B) {
	task, err := tasks.SimplexAgreement(topology.SDS(topology.Simplex(2)))
	if err != nil {
		b.Fatal(err)
	}
	res, err := solver.SolveUpTo(task, 2, solver.Options{})
	if err != nil || !res.Solvable {
		b.Fatalf("unexpected: %v %v", res.Solvable, err)
	}
	inputs := []topology.Vertex{0, 1, 2}
	all := []int{0, 1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := solver.Execute(task, res, inputs, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := solver.ValidateExecution(task, inputs, out, all); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeshComputation builds SDS^b(s²) with its geometric embedding and
// measures the mesh (quantitative Theorem 5.1).
func BenchmarkMeshComputation(b *testing.B) {
	for _, bb := range []int{1, 2} {
		b.Run(fmt.Sprintf("n=2/b=%d", bb), func(b *testing.B) {
			var mesh float64
			for i := 0; i < b.N; i++ {
				c, emb, err := topology.EmbedSDSPow(2, bb)
				if err != nil {
					b.Fatal(err)
				}
				mesh, err = topology.Mesh(c, emb)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mesh, "mesh")
		})
	}
}

// --- E8: Lemma 5.3, the canonical SDS → Bsd map -----------------------------

func BenchmarkSDSToBsd(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := topology.Simplex(n)
			sds := topology.SDS(s)
			bsd := topology.Bsd(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := topology.SDSToBsd(s, sds, bsd)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: Lemma 2.2, no holes (GF(2) homology) -------------------------------

func BenchmarkHomologySDS(b *testing.B) {
	cases := []struct {
		name string
		c    *topology.Complex
	}{
		{"SDS(s2)", topology.SDS(topology.Simplex(2))},
		{"SDS2(s2)", topology.SDSPow(topology.Simplex(2), 2)},
		{"SDS(s3)", topology.SDS(topology.Simplex(3))},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !homology.IsAcyclic(tc.c) {
					b.Fatal("hole detected")
				}
			}
		})
	}
}

// --- E10: renaming and f-resilient set consensus ----------------------------

func BenchmarkRenaming(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := tasks.RunRenaming(core.NewDirectMemory(n), n, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := tasks.ValidateRenaming(res, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Renaming through the Figure 2 emulation — a §1 task inside the IIS
	// model.
	b.Run("n=3/emulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := tasks.RunRenaming(core.NewEmulatedMemory(3), 3, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := tasks.ValidateRenaming(res, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFResilientSetConsensus(b *testing.B) {
	inputs := []int{30, 10, 20, 40}
	for i := 0; i < b.N; i++ {
		res, err := tasks.RunFResilientSetConsensus(inputs, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := tasks.ValidateSetConsensus(inputs, res, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: the BG simulation --------------------------------------------------

func BenchmarkBGSimulation(b *testing.B) {
	inputs := []int{30, 10, 20}
	for i := 0; i < b.N; i++ {
		sim := bg.NewSimulation(3, 5, &bg.SetConsensusCode{MProc: 5, F: 2, Inputs: inputs})
		res := sim.RunAll(nil)
		for _, d := range res.Adopted {
			if d < 0 {
				b.Fatal("simulator failed to adopt")
			}
		}
	}
}

// --- Substrate micro-benchmarks (context for E1/E2 costs) -------------------

func BenchmarkSnapshotScan(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := register.NewSnapshot[int](n)
			for i := 0; i < n; i++ {
				s.Update(i, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(s.Scan()) != n {
					b.Fatal("short scan")
				}
			}
		})
	}
}

func BenchmarkSnapshotUpdate(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := register.NewSnapshot[int](n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(0, i)
			}
		})
	}
}
