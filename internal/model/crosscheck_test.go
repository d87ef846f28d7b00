package model_test

// The GACT correspondence, executed: a computation model is the subset of
// IIS runs it admits (Gafni–Kuznetsov–Manolescu), and the affine-task
// realization restricts the facets of the standard chromatic subdivision
// instead (Gafni–He–Kuznetsov–Rieutord). These tests check the two sides
// agree extensionally — the set of complete b-round runs the model's
// schedule filter keeps, rendered as per-process full-information view
// signatures, equals the set of facets of R^b(sⁿ⁻¹), rendered by vertex
// key — on two planes:
//
//   - step level (TestGACTStepLevelSchedules): sched.ExploreFiltered walks
//     every controller schedule of the real iis/immediate protocol code for
//     2 processes, so the correspondence is checked against genuine
//     interleavings of the production snapshot implementation. The full
//     step tree for 3 processes exceeds 2×10⁶ schedules at one round (the
//     one-shot protocol takes ~2n gated steps per process), so this plane
//     stops at n = 2.
//   - run level (TestGACTRunLevelGrid): the full n ≤ 3, b ≤ 2 model grid,
//     with the Replay adversary used directly as the nondeterminism oracle
//     over each round's ordered partition and the resulting views validated
//     by the real immediate.CheckProperties / OrderedPartitionOf code. The
//     per-round outcome set itself is pinned to the real scheduled code by
//     internal/modelcheck's crosscheck, so this plane composes verified
//     rounds instead of re-interleaving steps.

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"waitfree/internal/iis"
	"waitfree/internal/immediate"
	"waitfree/internal/model"
	"waitfree/internal/sched"
	"waitfree/internal/topology"
)

// modelsFor enumerates every model spec valid for n processes (the grid a
// service query could name).
func modelsFor(n int) []model.Spec {
	specs := []model.Spec{model.WaitFree()}
	for t := 0; t < n; t++ {
		specs = append(specs, model.TResilient(t))
	}
	for k := 1; k <= n; k++ {
		specs = append(specs, model.KConcurrency(k), model.KSet(k))
	}
	return specs
}

// restrictedFacetKeys returns the facets of R^b(sⁿ⁻¹) as a set of sorted
// vertex-key tuples — the subdivision side of the correspondence.
func restrictedFacetKeys(t *testing.T, n, b int, spec model.Spec) map[string]bool {
	t.Helper()
	r, err := topology.Subdivide(context.Background(), topology.Simplex(n-1), b, spec.Filter())
	if err != nil {
		t.Fatalf("Subdivide(s^%d, %d, %s): %v", n-1, b, spec.Canonical(), err)
	}
	set := make(map[string]bool, len(r.Facets()))
	for _, f := range r.Facets() {
		keys := make([]string, len(f))
		for i, v := range f {
			keys[i] = r.Key(v)
		}
		sort.Strings(keys)
		set[strings.Join(keys, "\x1f")] = true
	}
	return set
}

// advanceSignatures folds one round of views into the per-process
// full-information signatures, reproducing the topology package's SDS
// vertex-key grammar exactly: after round r, process p's signature is
// S(prev_p|{sorted prev_q for q in p's round-r view}), with round 0 the
// base vertex key "Pp". A run's final signature set therefore IS a facet
// key tuple of SDS^b — string equality is the correspondence.
func advanceSignatures(sigs []string, views []immediate.View[int]) []string {
	next := make([]string, len(sigs))
	for p, v := range views {
		if v == nil {
			continue
		}
		var seen []string
		for q := range sigs {
			if v.Contains(q) {
				seen = append(seen, sigs[q])
			}
		}
		sort.Strings(seen)
		next[p] = "S(" + sigs[p] + "|{" + strings.Join(seen, " ") + "})"
	}
	return next
}

func baseSignatures(n int) []string {
	sigs := make([]string, n)
	for p := range sigs {
		sigs[p] = fmt.Sprintf("P%d", p)
	}
	return sigs
}

func runKey(sigs []string) string {
	out := append([]string(nil), sigs...)
	sort.Strings(out)
	return strings.Join(out, "\x1f")
}

// blockSizes projects an ordered partition to its block-size vector.
func blockSizes(blocks [][]int) []int {
	sizes := make([]int, len(blocks))
	for i, b := range blocks {
		sizes[i] = len(b)
	}
	return sizes
}

// TestGACTStepLevelSchedules checks the correspondence against real
// step-level interleavings: every controller schedule of the genuine
// iis/immediate protocol for n = 2 at b ≤ 2, filtered per model via
// sched.ExploreFiltered with ErrScheduleFiltered.
func TestGACTStepLevelSchedules(t *testing.T) {
	const n = 2
	for b := 1; b <= 2; b++ {
		for _, spec := range modelsFor(n) {
			spec := spec
			t.Run(fmt.Sprintf("b=%d/%s", b, spec.Canonical()), func(t *testing.T) {
				got := map[string]bool{}
				kept, filtered, err := sched.ExploreFiltered(0, func(adv *sched.Replay) error {
					mem := iis.NewMemory[int](n)
					ctl := sched.New(sched.Config{Procs: n, Adversary: adv})
					mem.SetGate(ctl)
					views := make([][]immediate.View[int], b)
					for r := range views {
						views[r] = make([]immediate.View[int], n)
					}
					errs := make([]error, n)
					for i := 0; i < n; i++ {
						i := i
						ctl.Go(i, func() {
							for r := 0; r < b; r++ {
								v, werr := mem.WriteRead(i, r, r)
								if werr != nil {
									errs[i] = werr
									return
								}
								views[r][i] = v
							}
						})
					}
					if werr := ctl.Wait(); werr != nil {
						return werr
					}
					for _, e := range errs {
						if e != nil {
							return e
						}
					}
					// Classify the completed run: every round's ordered
					// partition (reconstructed by the real immediate code)
					// must be model-allowed.
					sigs := baseSignatures(n)
					allowed := true
					for r := 0; r < b; r++ {
						blocks, perr := immediate.OrderedPartitionOf(views[r])
						if perr != nil {
							return perr
						}
						if !spec.AllowsPartition(blockSizes(blocks)) {
							allowed = false
						}
						sigs = advanceSignatures(sigs, views[r])
					}
					if !allowed {
						return sched.ErrScheduleFiltered
					}
					got[runKey(sigs)] = true
					return nil
				})
				if err != nil {
					t.Fatalf("ExploreFiltered: %v", err)
				}
				want := restrictedFacetKeys(t, n, b, spec)
				if kept == 0 {
					t.Fatal("no schedule kept — the filter emptied the model")
				}
				if spec.Filter() == nil && filtered != 0 {
					t.Fatalf("wait-free filtered %d schedules", filtered)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("kept-run signatures (%d) != facets of R^%d(s%d) (%d)\nruns: %v\nfacets: %v",
						len(got), b, n-1, len(want), got, want)
				}
				t.Logf("%d schedules kept, %d filtered, %d distinct runs = %d facets", kept, filtered, len(got), len(want))
			})
		}
	}
}

// combinations returns all size-k subsets of set, in lexicographic order —
// the deterministic decision alphabet of the run-level exploration.
func combinations(set []int, k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	if len(set) < k {
		return nil
	}
	var out [][]int
	for _, rest := range combinations(set[1:], k-1) {
		out = append(out, append([]int{set[0]}, rest...))
	}
	out = append(out, combinations(set[1:], k)...)
	return out
}

// pickPartition drives the Replay adversary as a direct nondeterminism
// oracle: a sequence of (block size, block members) decisions yielding one
// ordered partition of procs. Distinct decision strings yield distinct
// partitions, so ExploreFiltered's tree walk enumerates each exactly once.
func pickPartition(adv *sched.Replay, procs []int) [][]int {
	remaining := append([]int(nil), procs...)
	var blocks [][]int
	for len(remaining) > 0 {
		sizes := make([]int, len(remaining))
		for i := range sizes {
			sizes[i] = i + 1
		}
		size := adv.Pick(sizes, nil)
		combos := combinations(remaining, size)
		idx := make([]int, len(combos))
		for i := range idx {
			idx[i] = i
		}
		block := combos[adv.Pick(idx, nil)]
		blocks = append(blocks, block)
		var rest []int
		for _, p := range remaining {
			if !contains(block, p) {
				rest = append(rest, p)
			}
		}
		remaining = rest
	}
	return blocks
}

func contains(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// viewsOf materializes an ordered partition as immediate-snapshot views
// (each process sees the union of blocks up to and including its own).
func viewsOf(n int, blocks [][]int) []immediate.View[int] {
	views := make([]immediate.View[int], n)
	prefix := make([]bool, n)
	for _, b := range blocks {
		for _, p := range b {
			prefix[p] = true
		}
		for _, p := range b {
			v := make(immediate.View[int], n)
			for q := 0; q < n; q++ {
				if prefix[q] {
					v[q] = immediate.Slot[int]{Val: q, Present: true}
				}
			}
			views[p] = v
		}
	}
	return views
}

// TestGACTRunLevelGrid checks the correspondence on the full n ≤ 3, b ≤ 2
// grid for every valid model: runs are enumerated at round granularity
// (ordered partition per round, chosen by the Replay oracle), realized as
// views, validated by the real immediate-snapshot property checks, and
// filtered through the model; the kept signature sets must equal the
// restricted subdivision's facets. Out-of-model runs are pruned at their
// first disallowed round — ErrScheduleFiltered on a prefix discards the
// whole subtree, which is exactly the run-set semantics.
func TestGACTRunLevelGrid(t *testing.T) {
	for n := 2; n <= 3; n++ {
		procs := make([]int, n)
		for i := range procs {
			procs[i] = i
		}
		for b := 1; b <= 2; b++ {
			for _, spec := range modelsFor(n) {
				spec := spec
				t.Run(fmt.Sprintf("n=%d/b=%d/%s", n, b, spec.Canonical()), func(t *testing.T) {
					got := map[string]bool{}
					kept, filtered, err := sched.ExploreFiltered(0, func(adv *sched.Replay) error {
						sigs := baseSignatures(n)
						for r := 0; r < b; r++ {
							blocks := pickPartition(adv, procs)
							if !spec.AllowsPartition(blockSizes(blocks)) {
								return sched.ErrScheduleFiltered
							}
							views := viewsOf(n, blocks)
							if cerr := immediate.CheckProperties(views); cerr != nil {
								return fmt.Errorf("partition %v: %w", blocks, cerr)
							}
							back, perr := immediate.OrderedPartitionOf(views)
							if perr != nil {
								return perr
							}
							if !reflect.DeepEqual(back, blocks) {
								return fmt.Errorf("partition %v round-tripped as %v", blocks, back)
							}
							sigs = advanceSignatures(sigs, views)
						}
						got[runKey(sigs)] = true
						return nil
					})
					if err != nil {
						t.Fatalf("ExploreFiltered: %v", err)
					}
					want := restrictedFacetKeys(t, n, b, spec)
					if len(got) != kept {
						t.Fatalf("%d kept runs but %d distinct signatures — the partition encoding double-counts", kept, len(got))
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("kept-run signatures (%d) != facets of R^%d(s%d) (%d)", len(got), b, n-1, len(want))
					}
					// Branching sanity: the number of allowed partitions per
					// round is the cost model's multiplier.
					allowed, aerr := spec.CountAllowedPartitions(n)
					if aerr != nil {
						t.Fatalf("CountAllowedPartitions: %v", aerr)
					}
					wantKept := 1
					for r := 0; r < b; r++ {
						wantKept *= allowed
					}
					if kept != wantKept {
						t.Fatalf("kept %d runs, want %d^%d = %d", kept, allowed, b, wantKept)
					}
					_ = filtered
				})
			}
		}
	}
}
