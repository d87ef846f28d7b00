package engine

import (
	"fmt"

	"waitfree/internal/tasks"
)

// TaskSpec identifies a task instance by family and parameters. It is the
// serializable (JSON/gob/query-string) face of the tasks package's
// constructors, and the unit the engine hashes for content addressing:
// equal canonical strings build identical tasks.
type TaskSpec struct {
	Family string `json:"family"`
	Procs  int    `json:"procs,omitempty"`
	K      int    `json:"k,omitempty"` // set-consensus: max distinct decisions
	D      int    `json:"d,omitempty"` // approximate agreement: grid density (ε = 1/D)
	M      int    `json:"m,omitempty"` // renaming: namespace size
}

// Families lists the supported task families.
func Families() []string {
	return []string{
		"identity", "consensus", "set-consensus",
		"approx-agreement", "approx-agreement-n", "renaming", "wsb",
	}
}

// Canonical returns the spec's canonical string encoding. Irrelevant
// parameters are normalized away, so two specs that build the same task
// encode (and hash) identically.
func (s TaskSpec) Canonical() string {
	n := s.normalized()
	return fmt.Sprintf("task/%s/procs=%d/k=%d/d=%d/m=%d", n.Family, n.Procs, n.K, n.D, n.M)
}

// Hash returns the spec's content address.
func (s TaskSpec) Hash() string { return hashString(s.Canonical()) }

// normalized zeroes parameters the family ignores and applies defaults.
func (s TaskSpec) normalized() TaskSpec {
	out := TaskSpec{Family: s.Family, Procs: s.Procs}
	switch s.Family {
	case "set-consensus":
		out.K = s.K
	case "approx-agreement":
		out.Procs = 2
		out.D = s.D
	case "approx-agreement-n":
		out.D = s.D
	case "renaming":
		out.M = s.M
	}
	return out
}

// Guards keep the service endpoints inside the tractable envelope; the
// engine refuses specs whose complexes (or searches) would explode. The
// bounds are generous relative to the experiments in EXPERIMENTS.md.
const (
	maxSpecProcs = 4
	maxSpecD     = 32
	maxSpecM     = 8
)

// Check validates the spec without building anything: it returns exactly
// the error Build would, so admission and the warm path can reject a bad
// spec, or price and look up a good one, without constructing its task.
func (s TaskSpec) Check() error {
	if s.Procs < 0 || s.Procs > maxSpecProcs {
		return fmt.Errorf("%w: procs=%d out of range [1,%d]", ErrInvalid, s.Procs, maxSpecProcs)
	}
	procs := s.Procs
	needProcs := func() error {
		if procs < 1 {
			return fmt.Errorf("%w: family %q needs procs ≥ 1", ErrInvalid, s.Family)
		}
		return nil
	}
	switch s.Family {
	case "identity", "consensus", "wsb":
		return needProcs()
	case "set-consensus":
		if err := needProcs(); err != nil {
			return err
		}
		if s.K < 1 || s.K > procs {
			return fmt.Errorf("%w: set-consensus needs 1 ≤ k ≤ procs, got k=%d procs=%d", ErrInvalid, s.K, procs)
		}
	case "approx-agreement":
		if procs != 0 && procs != 2 {
			return fmt.Errorf("%w: approx-agreement is 2-process (procs=%d)", ErrInvalid, procs)
		}
		if s.D < 1 || s.D > maxSpecD {
			return fmt.Errorf("%w: approx-agreement needs 1 ≤ d ≤ %d, got %d", ErrInvalid, maxSpecD, s.D)
		}
	case "approx-agreement-n":
		if err := needProcs(); err != nil {
			return err
		}
		if s.D < 1 || s.D > 8 {
			return fmt.Errorf("%w: approx-agreement-n needs 1 ≤ d ≤ 8, got %d", ErrInvalid, s.D)
		}
	case "renaming":
		if err := needProcs(); err != nil {
			return err
		}
		if s.M < procs || s.M > maxSpecM {
			return fmt.Errorf("%w: renaming needs procs ≤ m ≤ %d, got m=%d procs=%d", ErrInvalid, maxSpecM, s.M, procs)
		}
	default:
		return fmt.Errorf("%w: unknown task family %q (want one of %v)", ErrInvalid, s.Family, Families())
	}
	return nil
}

// inputShape returns the facet count and facet size of the input complex
// Build would construct, without constructing it: consensus and
// approx-agreement-n take every 0/1-valued (0/d-valued) input vector, so
// 2^procs facets; approx-agreement is that at 2 processes; every other
// family has the one facet of process ids. Every facet has one vertex per
// process. The spec must pass Check.
func (s TaskSpec) inputShape() (facets int64, size int) {
	switch s.Family {
	case "consensus", "approx-agreement-n":
		return 1 << s.Procs, s.Procs
	case "approx-agreement":
		return 4, 2
	default:
		return 1, s.Procs
	}
}

// Build constructs the task, validating parameters with Check.
func (s TaskSpec) Build() (*tasks.Task, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	switch s.Family {
	case "identity":
		return tasks.IdentityTask(s.Procs), nil
	case "consensus":
		return tasks.Consensus(s.Procs), nil
	case "set-consensus":
		return tasks.SetConsensus(s.Procs, s.K), nil
	case "approx-agreement":
		return tasks.ApproxAgreement(s.D), nil
	case "approx-agreement-n":
		return tasks.ApproxAgreementN(s.Procs, s.D), nil
	case "renaming":
		return tasks.Renaming(s.Procs, s.M), nil
	default: // "wsb"; Check refused every other family
		return tasks.WeakSymmetryBreaking(s.Procs), nil
	}
}
