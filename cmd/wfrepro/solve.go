package main

import (
	"errors"
	"fmt"
	"os"

	"waitfree/internal/engine"
	"waitfree/internal/model"
	"waitfree/internal/solver"
	"waitfree/internal/tasks"
)

// cmdSolve reproduces Proposition 3.1 as a decision procedure: it reports
// solvability verdicts for the classic tasks at bounded subdivision levels.
// With -json it answers one query through the engine and emits exactly the
// /v1/solve response bytes.
func cmdSolve(args []string) error {
	fs := newFlagSet("solve")
	maxB := fs.Int("maxb", 2, "maximum subdivision level to check")
	asJSON := fs.Bool("json", false, "emit the /v1/solve response JSON for one query (requires -family)")
	family := fs.String("family", "", "task family for -json: one of "+fmt.Sprint(engine.Families()))
	procs := fs.Int("procs", 0, "processes for -json")
	k := fs.Int("k", 0, "set-consensus k for -json")
	d := fs.Int("d", 0, "approx-agreement denominator for -json (ε = 1/d)")
	m := fs.Int("m", 0, "renaming namespace parameter for -json")
	maxNodes := fs.Int64("maxnodes", 0, "per-level search node budget for -json (0 = engine default)")
	modelFlag := fs.String("model", "", "affine model: wait-free (default), <t>-resilient, <k>-concurrency, <k>-set")
	trace := fs.Bool("trace", false, "with -json: print the request's span tree to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	if *asJSON {
		ctx, flush := withTrace(ctx, *trace)
		resp, err := engine.New(engine.Options{}).Solve(ctx, engine.SolveRequest{
			Spec:     engine.TaskSpec{Family: *family, Procs: *procs, K: *k, D: *d, M: *m},
			MaxLevel: *maxB,
			MaxNodes: *maxNodes,
			Model:    *modelFlag,
		})
		flush()
		if err != nil {
			return err
		}
		return engine.WriteJSON(os.Stdout, resp)
	}

	spec, err := model.Parse(*modelFlag)
	if err != nil {
		return err
	}
	type job struct {
		task *tasks.Task
		maxB int
	}
	jobs := []job{
		{tasks.IdentityTask(3), 0},
		{tasks.SetConsensus(3, 3), 0},
		{tasks.Renaming(2, 3), 0},
		{tasks.ApproxAgreement(2), *maxB},
		{tasks.ApproxAgreement(4), *maxB},
		{tasks.Consensus(2), *maxB},
		{tasks.Consensus(3), min(*maxB, 2)},
		{tasks.SetConsensus(3, 2), min(*maxB, 1)},
	}
	if spec.IsWaitFree() {
		fmt.Println("Proposition 3.1 checker: ∃ color-preserving simplicial map SDS^b(I) → O respecting Δ?")
	} else {
		fmt.Printf("Proposition 3.1 checker (%s): ∃ color-preserving simplicial map R^b(I) → O respecting Δ?\n", spec.Canonical())
	}
	opts := solver.Options{Restrict: spec.Filter()}
	if !spec.IsWaitFree() {
		opts.Model = spec.Canonical()
	}
	for _, j := range jobs {
		if err := spec.Validate(len(j.task.Inputs.Colors())); err != nil {
			fmt.Printf("  %-24s skipped: %v\n", j.task.Name, err)
			continue
		}
		res, err := solver.SolveUpToCtx(ctx, j.task, j.maxB, opts)
		if errors.Is(err, solver.ErrBudget) {
			fmt.Printf("  %-24s budget exceeded: %v\n", j.task.Name, err)
			continue
		}
		if err != nil {
			fmt.Printf("  %-24s %v\n", j.task.Name, err)
			continue
		}
		verdict := fmt.Sprintf("UNSOLVABLE for all b ≤ %d (proven by exhaustion)", res.Level)
		switch res.CertificateKind {
		case solver.CertificateSperner:
			verdict = fmt.Sprintf("UNSOLVABLE at every b (Sperner certificate on a %d-vertex input face)", len(res.Certificate))
		case solver.CertificatePath:
			verdict = "UNSOLVABLE at every b (path certificate: one round connects two solo runs with different inputs)"
		}
		if res.Solvable {
			verdict = fmt.Sprintf("SOLVABLE at b = %d", res.Level)
			if err := solver.VerifyDecisionMap(j.task, res); err != nil {
				return fmt.Errorf("%s: found map fails verification: %w", j.task.Name, err)
			}
		}
		fmt.Printf("  %-24s %s  (%d nodes)\n", j.task.Name, verdict, res.Nodes)
	}
	fmt.Println("note: unsolvability at bounded b is exact for these instances; the general")
	fmt.Println("question is undecidable for ≥ 3 processes [Gafni–Koutsoupias 1995].")
	return nil
}
