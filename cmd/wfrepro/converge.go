package main

import (
	"fmt"
	"os"

	"waitfree/internal/converge"
	"waitfree/internal/engine"
	"waitfree/internal/solver"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// cmdConverge reproduces Theorem 5.1: find a color- and carrier-preserving
// simplicial map SDS^k(sⁿ) → A for a sample chromatic subdivision A — the
// solver's decision map for chromatic simplex agreement on A — then run
// that task (CSASS) over the real IIS runtime with solver.Execute. With
// -json it answers the map-search query through the engine and emits
// exactly the /v1/converge response bytes.
func cmdConverge(args []string) error {
	fs := newFlagSet("converge")
	n := fs.Int("n", 2, "dimension (processes − 1)")
	target := fs.Int("target", 1, "target subdivision A = SDS^target(sⁿ)")
	trials := fs.Int("trials", 10, "distributed agreement runs")
	maxK := fs.Int("maxk", 3, "maximum level to search")
	asJSON := fs.Bool("json", false, "emit the /v1/converge response JSON instead of text")
	trace := fs.Bool("trace", false, "with -json: print the request's span tree to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	if *asJSON {
		ctx, flush := withTrace(ctx, *trace)
		resp, err := engine.New(engine.Options{}).Converge(ctx, engine.ConvergeRequest{
			N: *n, Target: *target, MaxK: *maxK,
		})
		flush()
		if err != nil {
			return err
		}
		return engine.WriteJSON(os.Stdout, resp)
	}

	base := topology.Simplex(*n)
	a := topology.SDSPow(base, *target)
	fmt.Printf("Theorem 5.1: searching for SDS^k(s%d) → SDS^%d(s%d), k ≤ %d\n", *n, *target, *n, *maxK)
	task, err := tasks.SimplexAgreement(a)
	if err != nil {
		return err
	}
	res, err := solver.SolveUpToCtx(ctx, task, *maxK, solver.Options{})
	if err != nil {
		return err
	}
	if !res.Solvable {
		return fmt.Errorf("%w (maxK=%d)", converge.ErrNotFound, *maxK)
	}
	phi, k := res.Map, res.Level
	fmt.Printf("  found at k = %d: simplicial=%v colorPreserving=%v carrierRespecting=%v\n",
		k, phi.Validate() == nil, phi.ColorPreserving(), phi.CarrierRespecting())

	procs := *n + 1
	inputs := make([]topology.Vertex, procs)
	all := make([]int, procs)
	for i := range inputs {
		inputs[i], all[i] = topology.Vertex(i), i
	}
	fmt.Printf("CSASS runtime: %d processes converge on a simplex of A via %d IIS rounds\n", procs, k)
	for t := 0; t < *trials; t++ {
		out, err := solver.Execute(task, res, inputs, nil)
		if err != nil {
			return err
		}
		if err := solver.ValidateExecution(task, inputs, out, all); err != nil {
			return fmt.Errorf("trial %d: %w", t, err)
		}
	}
	fmt.Printf("  %d/%d runs converged to simplices of A with carriers inside the participants\n", *trials, *trials)

	bsd := topology.Bsd(base)
	if _, kb, err := converge.FindCarrierMapCtx(ctx, base, bsd, *maxK); err == nil {
		fmt.Printf("Lemma 5.3: carrier-preserving SDS^%d(s%d) → Bsd(s%d) found\n", kb, *n, *n)
	}

	fmt.Println("mesh of the Lemma 3.2 embedding (the quantitative “k large enough”):")
	maxMeshB := 3
	if *n >= 2 {
		maxMeshB = 2
	}
	if *n >= 3 {
		maxMeshB = 1
	}
	for b := 1; b <= maxMeshB; b++ {
		c, emb, err := topology.EmbedSDSPow(*n, b)
		if err != nil {
			return err
		}
		mesh, err := topology.Mesh(c, emb)
		if err != nil {
			return err
		}
		fmt.Printf("  mesh(SDS^%d(s%d)) = %.4f (%d facets)\n", b, *n, mesh, len(c.Facets()))
	}
	return nil
}
