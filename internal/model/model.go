// Package model defines affine solvability models: restrictions of the
// wait-free iterated immediate snapshot runs, each realized as a filter on
// the facets of the standard chromatic subdivision.
//
// The Generalized Asynchronous Computability Theorem (Gafni–Kuznetsov–
// Manolescu) recasts a computation model as the subset of IIS runs it
// admits; "Read-Write Memory and k-Set Consensus as an Affine Task"
// (Gafni–He–Kuznetsov–Rieutord) shows the classical models correspond to
// affine tasks — subcomplexes of SDS(s) — whose iterations R^b replace
// SDS^b(I) in the Proposition 3.1 condition. Every model here is local and
// uniform: a facet of SDS corresponds to an ordered partition (B1,…,Bm) of
// its source facet (Lemma 3.2), a round schedule in which block B1 snapshots
// first and most concurrently, and the model accepts or rejects the facet by
// the block sizes alone:
//
//	wait-free      accept all partitions (the unrestricted model)
//	t-resilient    |Bm| ≥ m − t: at least m − t correct processes keep
//	               reading until they have seen every write, so they land
//	               together in the final block with the full view; only the
//	               ≤ t crashed processes — which write, are seen, and stop
//	               reading — occupy earlier blocks. t = 0 is the single
//	               synchronous block; t = m − 1 accepts everything, which is
//	               exactly wait-freedom as (m−1)-resilience.
//	k-concurrency  every |Bi| ≤ k: at most k processes take a snapshot
//	               simultaneously (k = 1 is round-by-round sequential)
//	k-set          |B1| ≥ m + 1 − k: memory augmented with k-set consensus —
//	               at least m + 1 − k processes adopt the agreed first-block
//	               view, so at most k distinct views survive the round
//	               (blocks are prefix-ordered), the snapshot rendering of at
//	               most k surviving opinions
//
// where m is the number of participants of the facet's source run. The
// filters are defined relative to m (not a global process count), so they
// compose under iteration and restrict faces of the input complex
// consistently.
package model

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"waitfree/internal/topology"
)

// Model families.
const (
	// FamilyWaitFree is the unrestricted model (the identity filter).
	FamilyWaitFree = "wait-free"
	// FamilyResilient is t-resilience: Param = t crash faults tolerated.
	FamilyResilient = "resilient"
	// FamilyConcurrency is k-concurrency: Param = k simultaneous snapshots.
	FamilyConcurrency = "concurrency"
	// FamilySet is k-set-consensus-augmented memory: Param = k.
	FamilySet = "set"
)

// ErrUnknown reports a model string that names no supported family. Callers
// must reject it — never fall back to wait-free, which would silently alias
// a different model's cache key.
var ErrUnknown = errors.New("model: unknown model")

// Spec identifies an affine model: a family plus its integer parameter
// (ignored for wait-free). The zero Spec is wait-free, so absent model
// fields in requests and artifacts mean the unrestricted model — exactly
// the pre-model semantics.
type Spec struct {
	Family string `json:"family,omitempty"`
	Param  int    `json:"param,omitempty"`
}

// WaitFree returns the unrestricted model.
func WaitFree() Spec { return Spec{} }

// TResilient returns the t-resilient model.
func TResilient(t int) Spec { return Spec{Family: FamilyResilient, Param: t} }

// KConcurrency returns the k-concurrency model.
func KConcurrency(k int) Spec { return Spec{Family: FamilyConcurrency, Param: k} }

// KSet returns the k-set-consensus-augmented model.
func KSet(k int) Spec { return Spec{Family: FamilySet, Param: k} }

// IsWaitFree reports whether the spec is the unrestricted model. Both the
// zero Spec and an explicit "wait-free" family qualify.
func (s Spec) IsWaitFree() bool {
	return s.Family == "" || s.Family == FamilyWaitFree
}

// Canonical renders the spec in the surface syntax Parse accepts:
// "wait-free", "1-resilient", "2-concurrency", "2-set". Canonical strings
// are what cache keys, span attributes, and CLI/API round-trips carry.
func (s Spec) Canonical() string {
	if s.IsWaitFree() {
		return FamilyWaitFree
	}
	return fmt.Sprintf("%d-%s", s.Param, s.Family)
}

// Parse reads the surface syntax: "wait-free" (or ""), "<t>-resilient",
// "<k>-concurrency", "<k>-set". Anything else is ErrUnknown.
func Parse(s string) (Spec, error) {
	if s == "" || s == FamilyWaitFree {
		return WaitFree(), nil
	}
	i := strings.IndexByte(s, '-')
	if i <= 0 {
		return Spec{}, fmt.Errorf("%w %q (want wait-free, <t>-resilient, <k>-concurrency, or <k>-set)", ErrUnknown, s)
	}
	n, err := strconv.Atoi(s[:i])
	if err != nil {
		return Spec{}, fmt.Errorf("%w %q: parameter %q is not an integer", ErrUnknown, s, s[:i])
	}
	switch fam := s[i+1:]; fam {
	case FamilyResilient, FamilyConcurrency, FamilySet:
		return Spec{Family: fam, Param: n}, nil
	default:
		return Spec{}, fmt.Errorf("%w %q (want wait-free, <t>-resilient, <k>-concurrency, or <k>-set)", ErrUnknown, s)
	}
}

// Validate checks the parameter range against the task's process count:
// t ∈ [0, procs−1] (tolerating all procs faults is vacuous), k ∈ [1, procs].
// The top of each range (t = procs−1, k = procs) is the wait-free filter in
// behavior but NOT in identity: it validates, computes, and caches under its
// own model key.
func (s Spec) Validate(procs int) error {
	switch {
	case s.IsWaitFree():
		return nil
	case s.Family == FamilyResilient:
		if s.Param < 0 || s.Param >= procs {
			return fmt.Errorf("model: %s needs 0 ≤ t ≤ procs−1 = %d", s.Canonical(), procs-1)
		}
	case s.Family == FamilyConcurrency, s.Family == FamilySet:
		if s.Param < 1 || s.Param > procs {
			return fmt.Errorf("model: %s needs 1 ≤ k ≤ procs = %d", s.Canonical(), procs)
		}
	default:
		return fmt.Errorf("%w %q", ErrUnknown, s.Family)
	}
	return nil
}

// AllowsPartition reports whether the model admits the round schedule with
// the given ordered-partition block sizes (summing to the round's
// participant count).
func (s Spec) AllowsPartition(blocks []int) bool {
	switch s.Family {
	case FamilyResilient:
		m := 0
		for _, b := range blocks {
			m += b
		}
		return blocks[len(blocks)-1] >= m-s.Param
	case FamilyConcurrency:
		for _, b := range blocks {
			if b > s.Param {
				return false
			}
		}
		return true
	case FamilySet:
		m := 0
		for _, b := range blocks {
			m += b
		}
		return blocks[0] >= m+1-s.Param
	default:
		return true
	}
}

// Filter returns the model's facet filter for topology.Subdivide — nil
// for wait-free, so the unrestricted path is not merely equivalent but the
// identical code path (and the identical complex object).
func (s Spec) Filter() topology.FacetFilter {
	if s.IsWaitFree() {
		return nil
	}
	spec := s
	return func(blocks []int) bool { return spec.AllowsPartition(blocks) }
}

// CountAllowedPartitions returns how many of the Fubini(m) ordered
// partitions of an m-set the model admits — the per-facet branching factor
// of the restricted subdivision chain, which is what the engine's cost
// model multiplies per level. For wait-free it is exactly the Fubini
// number, computed by the same checked recurrence the unrestricted cost
// model uses.
func (s Spec) CountAllowedPartitions(m int) (int, error) {
	return topology.CountKeptPartitions(m, s.Filter())
}
