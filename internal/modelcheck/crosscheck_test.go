package modelcheck

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"waitfree/internal/immediate"
	"waitfree/internal/sched"
)

// TestScheduledImmediateMatchesModelChecker closes the loop between the two
// verification planes: sched.ExploreFiltered enumerates every interleaving of the
// REAL immediate.OneShot code for 2 processes (gated at the same write/scan
// granularity the model checker's step machine uses — the register-level
// double collect inside a Scan stays atomic, exactly like the model's atomic
// scan), and the set of outcome assignments must equal what the abstract
// state-space exploration of this package reaches.
func TestScheduledImmediateMatchesModelChecker(t *testing.T) {
	const n = 2
	got := map[string]struct{}{}

	count, _, err := sched.ExploreFiltered(0, func(adv *sched.Replay) error {
		one := immediate.New[int](n)
		views := make([]immediate.View[int], n)
		errs := make([]error, n)
		ctl := sched.New(sched.Config{Procs: n, Adversary: adv})
		one.SetGate(ctl) // immediate-level step points only
		for i := 0; i < n; i++ {
			ctl.Go(i, func() {
				views[i], errs[i] = one.WriteRead(i, i)
			})
		}
		if werr := ctl.Wait(); werr != nil {
			return werr
		}
		for i, e := range errs {
			if e != nil {
				return fmt.Errorf("P%d: %w", i, e)
			}
		}
		if cerr := immediate.CheckProperties(views); cerr != nil {
			return cerr
		}
		got[viewOutcomeKey(views)] = struct{}{}
		return nil
	})
	if err != nil {
		t.Fatalf("ExploreFiltered: %v", err)
	}
	if count < 6 {
		t.Fatalf("Explore ran only %d schedules; the interleaving tree of two 2-segment processes alone has 6", count)
	}
	t.Logf("explored %d schedules of the real levels algorithm", count)

	gotKeys := make([]string, 0, len(got))
	for k := range got {
		gotKeys = append(gotKeys, k)
	}
	sort.Strings(gotKeys)

	wantKeys, err := ReachableOutcomes(n)
	if err != nil {
		t.Fatalf("ReachableOutcomes: %v", err)
	}
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Fatalf("real scheduled code reaches %v, model checker reaches %v", gotKeys, wantKeys)
	}
	// And both equal the Lemma 3.2 ordered-partition outcomes.
	if want := OrderedPartitionOutcomeKeys(n); !reflect.DeepEqual(gotKeys, want) {
		t.Fatalf("real scheduled code reaches %v, ordered partitions give %v", gotKeys, want)
	}
}

// viewOutcomeKey renders real immediate snapshot views in outcomeKey's
// format: per-process view bitmask in binary, joined by ";".
func viewOutcomeKey[T any](views []immediate.View[T]) string {
	parts := make([]string, len(views))
	for i, v := range views {
		var set uint32
		for j := range v {
			if v.Contains(j) {
				set |= 1 << j
			}
		}
		parts[i] = fmt.Sprintf("%b", set)
	}
	return strings.Join(parts, ";")
}
