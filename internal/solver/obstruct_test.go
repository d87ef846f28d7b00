package solver_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"waitfree/internal/model"
	"waitfree/internal/obs"
	"waitfree/internal/solver"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// TestObstructGateModels pins which models the certificate's gate admits
// at 3 processes: exactly those whose filter keeps all 13 ordered
// partitions.
func TestObstructGateModels(t *testing.T) {
	var open []string
	for _, spec := range gridModels(3) {
		if solver.KeepsAllPartitions(topology.Simplex(2), spec.Filter()) {
			open = append(open, spec.Canonical())
		}
	}
	if fmt.Sprint(open) != "[wait-free 2-resilient 3-concurrency 3-set]" {
		t.Errorf("gate at 3 processes admits %v", open)
	}
}

// soundnessTasks lists every task family at 1–3 processes, and at 4
// processes, with the deepest level the soundness grid checks for each.
func soundnessTasks() []struct {
	task *tasks.Task
	maxB int
} {
	var out []struct {
		task *tasks.Task
		maxB int
	}
	add := func(task *tasks.Task, maxB int) {
		out = append(out, struct {
			task *tasks.Task
			maxB int
		}{task, maxB})
	}
	for p := 1; p <= 4; p++ {
		maxB := 2
		if p == 4 {
			maxB = 1
		}
		add(tasks.IdentityTask(p), maxB)
		if p == 4 {
			add(tasks.Consensus(p), 2) // the service's heavy query
		} else {
			add(tasks.Consensus(p), maxB)
		}
		for k := 1; k <= p; k++ {
			add(tasks.SetConsensus(p, k), maxB)
		}
		for d := 1; d <= 3; d++ {
			add(tasks.ApproxAgreementN(p, d), maxB)
		}
		for m := p; m <= 5; m++ {
			add(tasks.Renaming(p, m), maxB)
		}
		add(tasks.WeakSymmetryBreaking(p), maxB)
	}
	for d := 1; d <= 6; d++ {
		add(tasks.ApproxAgreement(d), 2)
	}
	return out
}

// soundnessBudget bounds each search in the soundness grid. A certified
// level may exhaust it — set-consensus-3p-2 at b = 2 and set-consensus-4p-3
// at b = 1 exceed any budget the search can afford — but it must never
// find a map.
func soundnessBudget() int64 {
	if solver.RaceEnabled {
		return 20_000
	}
	return 100_000
}

// TestObstructSoundness is the certificates' soundness grid: for every
// family at 1–4 processes, under every model, wherever a certificate fires
// — the Sperner certificate under a model whose filter keeps all
// partitions, the path certificate under one that does not — neither the
// search nor (on levels small enough to enumerate) the exhaustive oracle
// finds a decision map on the model's level R^b, b ≤ 2 (b ≤ 1 at 4
// processes, and b ≤ 2 for wait-free consensus-4p). It also pins where the
// Sperner certificate fires: exactly consensus at 2–4 processes, set
// consensus with k < procs, and one-process weak symmetry breaking
// (TestPathCertificateFires pins the path certificate).
func TestObstructSoundness(t *testing.T) {
	for _, tc := range soundnessTasks() {
		task := tc.task
		var sigma []topology.Vertex
		var gated []model.Spec
		for _, spec := range gridModels(task.Procs) {
			if !solver.KeepsAllPartitions(task.Inputs, spec.Filter()) {
				if solver.Obstruct(task, spec.Filter()) != nil {
					t.Errorf("%s/%s: Sperner certificate fired past the model gate", task.Name, spec.Canonical())
				}
				if pq, _ := solver.PathObstruct(task, spec.Filter()); pq != nil {
					maxB := tc.maxB
					if task.Procs == 4 {
						maxB = 1
					}
					checkNoMap(t, task, spec, maxB, pq)
				}
				continue
			}
			got := solver.Obstruct(task, spec.Filter())
			if len(gated) > 0 && fmt.Sprint(got) != fmt.Sprint(sigma) {
				t.Errorf("%s: certificate %v under %s, %v under %s", task.Name, got, spec.Canonical(), sigma, gated[0].Canonical())
			}
			sigma = got
			gated = append(gated, spec)
		}
		fires := sigma != nil
		// A lone process's output is constant, so weak symmetry breaking
		// for one process has no output at all: σ is its input vertex.
		want := task.Name == fmt.Sprintf("consensus-%dp", task.Procs) && task.Procs >= 2 ||
			task.Name == "weak-symmetry-breaking-1p"
		for k := 1; k < task.Procs; k++ {
			want = want || task.Name == fmt.Sprintf("set-consensus-%dp-%d", task.Procs, k)
		}
		if fires != want {
			t.Errorf("%s: certificate fires = %v, want %v", task.Name, fires, want)
		}
		if fires {
			// Every gated model's level is SDS^b(I): check it once.
			checkNoMap(t, task, model.WaitFree(), tc.maxB, sigma)
		}
	}
}

// checkNoMap checks that neither the search nor, on levels of at most
// 2,000 facets, the exhaustive oracle finds a decision map for task on
// R^b(I) under spec at any b ≤ maxB. A search may exhaust its budget —
// set-consensus-3p-2 at b = 2 and set-consensus-4p-3 at b = 1 exceed any
// budget the search can afford — but it must never find a map.
func checkNoMap(t *testing.T, task *tasks.Task, spec model.Spec, maxB int, certificate []topology.Vertex) {
	t.Helper()
	ctx := context.Background()
	budget := soundnessBudget()
	sub := task.Inputs
	for b := 0; b <= maxB; b++ {
		if b > 0 {
			var err error
			if sub, err = topology.Subdivide(ctx, sub, 1, spec.Filter()); err != nil {
				t.Fatalf("%s/%s b=%d: Subdivide: %v", task.Name, spec.Canonical(), b, err)
			}
		}
		str, err := solver.SolveAtLevelOn(ctx, task, b, sub, solver.Options{MaxNodes: budget})
		if err != nil && !errors.Is(err, solver.ErrBudget) {
			t.Fatalf("%s/%s b=%d: search: %v", task.Name, spec.Canonical(), b, err)
		}
		if err == nil && str.Solvable {
			t.Errorf("%s/%s b=%d: certificate %v fired, but the search found a map", task.Name, spec.Canonical(), b, certificate)
		}
		if len(sub.Facets()) > 2000 {
			continue // the oracle enumerates every simplex of the level
		}
		exh, err := solver.SolveExhaustiveWithin(ctx, task, b, sub, budget)
		if err != nil && !errors.Is(err, solver.ErrBudget) {
			t.Fatalf("%s/%s b=%d: oracle: %v", task.Name, spec.Canonical(), b, err)
		}
		if err == nil && exh.Solvable {
			t.Errorf("%s/%s b=%d: certificate %v fired, but the oracle found a map", task.Name, spec.Canonical(), b, certificate)
		}
	}
}

// TestPathCertificateFires pins where Certify answers with a path
// certificate over the soundness grid's tasks and every model: consensus
// (and set consensus with k = 1, the same task over distinct inputs) at 3
// and 4 processes, under t-resilience with 0 < t < procs − 1 and under
// k-concurrency with k < procs. Elsewhere it must not fire:
//   - 0-resilience and k-set memory with k < procs keep no partition whose
//     first block is one process;
//   - 1-concurrency at 2 processes makes R(s¹) two disjoint edges, and
//     consensus-2p is solvable there;
//   - the other models keep every partition, where the Sperner certificate
//     answers instead;
//   - set consensus with k ≥ 2, approximate agreement, renaming and the
//     rest fail the agreement condition.
func TestPathCertificateFires(t *testing.T) {
	want := []string{
		"consensus-3p/1-resilient", "consensus-3p/1-concurrency", "consensus-3p/2-concurrency",
		"set-consensus-3p-1/1-resilient", "set-consensus-3p-1/1-concurrency", "set-consensus-3p-1/2-concurrency",
		"consensus-4p/1-resilient", "consensus-4p/2-resilient",
		"consensus-4p/1-concurrency", "consensus-4p/2-concurrency", "consensus-4p/3-concurrency",
		"set-consensus-4p-1/1-resilient", "set-consensus-4p-1/2-resilient",
		"set-consensus-4p-1/1-concurrency", "set-consensus-4p-1/2-concurrency", "set-consensus-4p-1/3-concurrency",
	}
	var got []string
	for _, tc := range soundnessTasks() {
		for _, spec := range gridModels(tc.task.Procs) {
			opts := solver.Options{Restrict: spec.Filter()}
			if !spec.IsWaitFree() {
				opts.Model = spec.Canonical()
			}
			res, err := solver.Certify(context.Background(), tc.task, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res != nil && res.CertificateKind == solver.CertificatePath {
				got = append(got, tc.task.Name+"/"+spec.Canonical())
				if len(res.Certificate) != 2 {
					t.Errorf("%s/%s: path certificate %v, want two vertices", tc.task.Name, spec.Canonical(), res.Certificate)
				}
			}
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("path certificate fires on\n %v\nwant\n %v", got, want)
	}
}

// TestObstructCertificates pins the certificate's face on the tasks it
// decides: the first edge, in vertex order, with inputs 0 and 1 for
// consensus, and the full facet of k+1 = procs ids for set consensus with
// k = procs − 1.
func TestObstructCertificates(t *testing.T) {
	cases := []struct {
		task *tasks.Task
		want string
	}{
		{tasks.Consensus(2), "P0=0 P1=1"},
		{tasks.Consensus(4), "P0=0 P3=1"},
		{tasks.SetConsensus(3, 2), "P0=0 P1=1 P2=2"},
		{tasks.SetConsensus(4, 3), "P0=0 P1=1 P2=2 P3=3"},
		{tasks.SetConsensus(3, 1), "P0=0 P1=1"},
	}
	for _, tc := range cases {
		sigma := solver.Obstruct(tc.task, nil)
		got := ""
		for i, v := range sigma {
			if i > 0 {
				got += " "
			}
			got += fmt.Sprintf("P%d=%s", tc.task.Inputs.Color(v), tc.task.InputValue(v))
		}
		if got != tc.want {
			t.Errorf("%s: certificate {%s}, want {%s}", tc.task.Name, got, tc.want)
		}
	}
}

// TestCertifiedChainBuildsNoLevel: a certified SolveUpToCtx records one
// solver.obstruct span, no sds.subdivide and no solver.search span, and
// reports the level's sizes from the closed form — for consensus-4p at
// b = 2, the 15,048 vertices and 90,000 facets of the built level.
func TestCertifiedChainBuildsNoLevel(t *testing.T) {
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	task := tasks.Consensus(4)
	res, err := solver.SolveUpToCtx(ctx, task, 2, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solvable || res.Level != 2 || res.Nodes != 0 || res.Certificate == nil || res.Subdivision != nil {
		t.Fatalf("consensus-4p b≤2: solvable=%v level=%d nodes=%d certificate=%v built=%v",
			res.Solvable, res.Level, res.Nodes, res.Certificate, res.Subdivision != nil)
	}
	if res.Vertices != 15048 || res.Facets != 90000 {
		t.Errorf("consensus-4p SDS²: %d vertices, %d facets; want 15048, 90000", res.Vertices, res.Facets)
	}
	snap := tr.Snapshot()
	spans := snap.Find("solver.obstruct")
	if len(spans) != 1 || spans[0].Ints["certified"] != 1 || spans[0].Ints["facets"] != 90000 {
		t.Fatalf("solver.obstruct spans: %+v", spans)
	}
	for _, name := range []string{"sds.subdivide", "solver.search"} {
		if n := len(snap.Find(name)); n != 0 {
			t.Errorf("certified solve recorded %d %s spans", n, name)
		}
	}

	// An uncertified task records the span too, with certified = 0, and
	// goes on to build and search.
	tr = obs.NewTrace()
	if _, err := solver.SolveUpToCtx(obs.WithTrace(context.Background(), tr), tasks.ApproxAgreement(2), 1, solver.Options{}); err != nil {
		t.Fatal(err)
	}
	snap = tr.Snapshot()
	if spans := snap.Find("solver.obstruct"); len(spans) != 1 || spans[0].Ints["certified"] != 0 {
		t.Fatalf("uncertified solve: solver.obstruct spans %+v", spans)
	}
	if n := len(snap.Find("solver.search")); n != 2 {
		t.Errorf("uncertified solve: %d solver.search spans, want 2", n)
	}
}

// TestObstructNeedsValues: a task without value functions gets no
// certificate, whatever its relation.
func TestObstructNeedsValues(t *testing.T) {
	task := *tasks.Consensus(2)
	task.InputValue = nil
	if solver.Obstruct(&task, nil) != nil {
		t.Error("certificate fired on a task with no input values")
	}
}

// TestCertifyPastClosedForm: past the closed form's four processes,
// Certify leaves the task to the chain even though Obstruct finds a
// certificate, so no answer carries sizes it could not compute.
func TestCertifyPastClosedForm(t *testing.T) {
	task := tasks.Consensus(5)
	if solver.Obstruct(task, nil) == nil {
		t.Fatal("consensus-5p has no certificate")
	}
	tr := obs.NewTrace()
	res, err := solver.Certify(obs.WithTrace(context.Background(), tr), task, 1, solver.Options{})
	if res != nil || err != nil {
		t.Fatalf("Certify(consensus-5p) = %+v, %v; want nil, nil", res, err)
	}
	if spans := tr.Snapshot().Find("solver.obstruct"); len(spans) != 1 || spans[0].Ints["certified"] != 0 {
		t.Fatalf("solver.obstruct spans: %+v", spans)
	}
}
