package engine

import (
	"fmt"
	"testing"

	"waitfree/internal/model"
	"waitfree/internal/tasks"
	"waitfree/internal/topology"
)

// legacyBuild is TaskSpec.Build as it was before validation moved into
// Check: each family validates its own parameters, then constructs. It is
// the oracle TestSpecCheckMatchesBuild holds Check and inputShape to.
func legacyBuild(s TaskSpec) (*tasks.Task, error) {
	if s.Procs < 0 || s.Procs > maxSpecProcs {
		return nil, fmt.Errorf("%w: procs=%d out of range [1,%d]", ErrInvalid, s.Procs, maxSpecProcs)
	}
	procs := s.Procs
	needProcs := func() error {
		if procs < 1 {
			return fmt.Errorf("%w: family %q needs procs ≥ 1", ErrInvalid, s.Family)
		}
		return nil
	}
	switch s.Family {
	case "identity":
		if err := needProcs(); err != nil {
			return nil, err
		}
		return tasks.IdentityTask(procs), nil
	case "consensus":
		if err := needProcs(); err != nil {
			return nil, err
		}
		return tasks.Consensus(procs), nil
	case "set-consensus":
		if err := needProcs(); err != nil {
			return nil, err
		}
		if s.K < 1 || s.K > procs {
			return nil, fmt.Errorf("%w: set-consensus needs 1 ≤ k ≤ procs, got k=%d procs=%d", ErrInvalid, s.K, procs)
		}
		return tasks.SetConsensus(procs, s.K), nil
	case "approx-agreement":
		if procs != 0 && procs != 2 {
			return nil, fmt.Errorf("%w: approx-agreement is 2-process (procs=%d)", ErrInvalid, procs)
		}
		if s.D < 1 || s.D > maxSpecD {
			return nil, fmt.Errorf("%w: approx-agreement needs 1 ≤ d ≤ %d, got %d", ErrInvalid, maxSpecD, s.D)
		}
		return tasks.ApproxAgreement(s.D), nil
	case "approx-agreement-n":
		if err := needProcs(); err != nil {
			return nil, err
		}
		if s.D < 1 || s.D > 8 {
			return nil, fmt.Errorf("%w: approx-agreement-n needs 1 ≤ d ≤ 8, got %d", ErrInvalid, s.D)
		}
		return tasks.ApproxAgreementN(procs, s.D), nil
	case "renaming":
		if err := needProcs(); err != nil {
			return nil, err
		}
		if s.M < procs || s.M > maxSpecM {
			return nil, fmt.Errorf("%w: renaming needs procs ≤ m ≤ %d, got m=%d procs=%d", ErrInvalid, maxSpecM, s.M, procs)
		}
		return tasks.Renaming(procs, s.M), nil
	case "wsb":
		if err := needProcs(); err != nil {
			return nil, err
		}
		return tasks.WeakSymmetryBreaking(procs), nil
	default:
		return nil, fmt.Errorf("%w: unknown task family %q (want one of %v)", ErrInvalid, s.Family, Families())
	}
}

// complexChainCost sums chainCostModel per facet of c: how EstimateCost
// priced a solve query from the built input complex before it priced it
// from inputShape.
func complexChainCost(c *topology.Complex, maxLevel int, spec model.Spec) int64 {
	var total int64
	for _, f := range c.Facets() {
		total = satAdd(total, chainCostModel(1, len(f), maxLevel, spec))
	}
	return total
}

// legacyEstimate is the Build-based EstimateCost.
func legacyEstimate(r SolveRequest, task *tasks.Task, buildErr error) (int64, error) {
	if r.MaxLevel < 0 || r.MaxLevel > MaxSolveLevel {
		return 0, fmt.Errorf("%w: max_level=%d out of range [0,%d]", ErrInvalid, r.MaxLevel, MaxSolveLevel)
	}
	if buildErr != nil {
		return 0, buildErr
	}
	spec, err := model.Parse(r.Model)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err := spec.Validate(len(task.Inputs.Colors())); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return complexChainCost(task.Inputs, r.MaxLevel, spec), nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestSpecCheckMatchesBuild runs a box of raw specs, valid and invalid,
// against the pre-split Build: Check's error equals legacyBuild's,
// inputShape equals the built input complex's facet count and facet size,
// and EstimateCost equals the Build-based estimate for every model (and a
// few invalid ones) at every b ≤ 3 and one b out of range.
func TestSpecCheckMatchesBuild(t *testing.T) {
	families := append(Families(), "nonsense", "")
	models := []string{"", "wait-free", "bogus", "9-set"}
	for p := 0; p <= 4; p++ {
		models = append(models, fmt.Sprintf("%d-resilient", p), fmt.Sprintf("%d-concurrency", p), fmt.Sprintf("%d-set", p))
	}
	built := map[string]*tasks.Task{} // Canonical → task, for valid specs
	valid := 0
	for _, fam := range families {
		for procs := -1; procs <= 5; procs++ {
			for _, k := range []int{-1, 0, 1, 2, 4, 5} {
				for _, d := range []int{-1, 0, 1, 3, 8, 9, 32, 33} {
					for _, m := range []int{-1, 0, 1, 3, 4, 8, 9} {
						s := TaskSpec{Family: fam, Procs: procs, K: k, D: d, M: m}
						checkErr := s.Check()
						task, ok := built[s.Canonical()]
						var buildErr error
						if checkErr != nil || !ok {
							task, buildErr = legacyBuild(s)
						}
						if errText(checkErr) != errText(buildErr) {
							t.Fatalf("%+v: Check = %v, Build = %v", s, checkErr, buildErr)
						}
						if checkErr != nil {
							for _, mdl := range models[:3] {
								r := SolveRequest{Spec: s, MaxLevel: 1, Model: mdl}
								got, gotErr := r.EstimateCost()
								want, wantErr := legacyEstimate(r, nil, buildErr)
								if got != want || errText(gotErr) != errText(wantErr) {
									t.Fatalf("%+v model %q: EstimateCost = %d, %v; Build-based %d, %v", s, mdl, got, gotErr, want, wantErr)
								}
							}
							continue
						}
						valid++
						if ok {
							continue // same task as an earlier spec of the box
						}
						built[s.Canonical()] = task
						facets, size := s.inputShape()
						if int(facets) != len(task.Inputs.Facets()) {
							t.Fatalf("%+v: inputShape facets %d, built %d", s, facets, len(task.Inputs.Facets()))
						}
						for _, f := range task.Inputs.Facets() {
							if len(f) != size {
								t.Fatalf("%+v: inputShape size %d, built facet of %d", s, size, len(f))
							}
						}
						for _, mdl := range models {
							for _, b := range []int{0, 1, 2, 3, MaxSolveLevel + 1} {
								r := SolveRequest{Spec: s, MaxLevel: b, Model: mdl}
								got, gotErr := r.EstimateCost()
								want, wantErr := legacyEstimate(r, task, nil)
								if got != want || errText(gotErr) != errText(wantErr) {
									t.Fatalf("%+v model %q b=%d: EstimateCost = %d, %v; Build-based %d, %v", s, mdl, b, got, gotErr, want, wantErr)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d valid specs (%d distinct tasks)", valid, len(built))
}
