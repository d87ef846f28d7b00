package protocol

import (
	"fmt"
	"strings"
	"testing"

	"waitfree/internal/homology"
	"waitfree/internal/immediate"
	"waitfree/internal/topology"
)

// key canonically encodes an assignment for set comparison.
func (a ISAssignment) key() string {
	parts := make([]string, a.M)
	for i, v := range a.Views {
		parts[i] = fmt.Sprintf("%d:%b", i, v)
	}
	return strings.Join(parts, ";")
}

// TestLemma32OneShotComplexIsSDS is experiment E3: the one-shot immediate
// snapshot view complex equals the standard chromatic subdivision, exactly.
func TestLemma32OneShotComplexIsSDS(t *testing.T) {
	for n := 0; n <= 3; n++ {
		vc := ViewComplex(n, 1)
		sds := topology.SDS(topology.Simplex(n))
		if !vc.Equal(sds) {
			t.Errorf("n=%d: one-shot view complex ≠ SDS(sⁿ): f-vectors %v vs %v",
				n, vc.FVector(), sds.FVector())
		}
	}
}

// TestLemma33IteratedComplexIsSDSPow is experiment E4.
func TestLemma33IteratedComplexIsSDSPow(t *testing.T) {
	cases := []struct{ n, b int }{{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}}
	for _, tc := range cases {
		vc := ViewComplex(tc.n, tc.b)
		sds := topology.SDSPow(topology.Simplex(tc.n), tc.b)
		if !vc.Equal(sds) {
			t.Errorf("n=%d b=%d: view complex ≠ SDS^b: f-vectors %v vs %v",
				tc.n, tc.b, vc.FVector(), sds.FVector())
		}
	}
}

// TestViewComplexIsCertifiedSubdividedSimplex is the strong form of Lemmas
// 3.2/3.3: the independently enumerated view complex is *certified* to be a
// chromatic subdivided simplex by the structural checker — corners,
// carriers, pseudomanifold-with-boundary, acyclicity, faces subdividing
// faces — without reference to the SDS construction at all.
func TestViewComplexIsCertifiedSubdividedSimplex(t *testing.T) {
	cases := []struct{ n, b int }{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}}
	for _, tc := range cases {
		if err := homology.VerifySubdividedSimplex(ViewComplex(tc.n, tc.b)); err != nil {
			t.Errorf("n=%d b=%d: %v", tc.n, tc.b, err)
		}
	}
}

func TestViewComplexZeroRounds(t *testing.T) {
	vc := ViewComplex(2, 0)
	if !vc.Equal(topology.Simplex(2)) {
		t.Error("0-round view complex should be the input simplex")
	}
}

// TestISOutputsAreExactlyOrderedPartitions is the semantic half of Lemma
// 3.2: the assignments satisfying the three IS properties are exactly those
// generated by ordered partitions.
func TestISOutputsAreExactlyOrderedPartitions(t *testing.T) {
	for m := 1; m <= 4; m++ {
		byProps := AllISOutputs(m)
		byParts := OrderedPartitionOutputs(m)

		propKeys := make(map[string]struct{}, len(byProps))
		for _, a := range byProps {
			propKeys[a.key()] = struct{}{}
		}
		partKeys := make(map[string]struct{}, len(byParts))
		for _, a := range byParts {
			partKeys[a.key()] = struct{}{}
		}
		if len(propKeys) != len(partKeys) {
			t.Fatalf("m=%d: %d property-satisfying outcomes vs %d partition outcomes",
				m, len(propKeys), len(partKeys))
		}
		for k := range partKeys {
			if _, ok := propKeys[k]; !ok {
				t.Fatalf("m=%d: partition outcome %s violates IS properties", m, k)
			}
		}
		// Distinct ordered partitions give distinct outcomes.
		if len(partKeys) != topology.CountOrderedPartitions(m) {
			t.Fatalf("m=%d: %d distinct outcomes, want Fubini %d",
				m, len(partKeys), topology.CountOrderedPartitions(m))
		}
	}
}

func TestViewKeyCanonical(t *testing.T) {
	k1 := ViewKey("P0", []string{"P1", "P0"})
	k2 := ViewKey("P0", []string{"P0", "P1"})
	if k1 != k2 {
		t.Errorf("ViewKey not order-insensitive: %q vs %q", k1, k2)
	}
	if k1 != "S(P0|{P0 P1})" {
		t.Errorf("ViewKey = %q", k1)
	}
}

// TestRunFullInfoLandsInComplex runs the real concurrent protocol and checks
// each run's final views form a simplex of SDS^b — the bridge between the
// runtime and the combinatorial plane.
func TestRunFullInfoLandsInComplex(t *testing.T) {
	const procs, b = 3, 2
	sds := topology.SDSPow(topology.Simplex(procs-1), b)
	for trial := 0; trial < 30; trial++ {
		res, err := RunFullInfo(procs, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		simplex, err := LocateRun(sds, res)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(simplex) != procs {
			t.Fatalf("trial %d: %d finishers, want %d", trial, len(simplex), procs)
		}
	}
}

func TestRunFullInfoWithCrashes(t *testing.T) {
	const procs, b = 3, 2
	sds := topology.SDSPow(topology.Simplex(procs-1), b)
	for trial := 0; trial < 20; trial++ {
		res, err := RunFullInfo(procs, b, []int{1, -1, -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Keys[0] != "" {
			t.Fatal("crashed process reported a final view")
		}
		simplex, err := LocateRun(sds, res)
		if err != nil {
			t.Fatalf("trial %d: survivors' views not a simplex: %v", trial, err)
		}
		if len(simplex) != 2 {
			t.Fatalf("trial %d: %d finishers, want 2", trial, len(simplex))
		}
	}
}

// partitions reconstructs a run as a sequence of ordered partitions, one per
// round, from its recorded views (possible only for complete rounds: rounds
// where some participant's view mentions a process that produced no view
// are rejected by immediate.OrderedPartitionOf).
func partitions(res *RunResult) ([][][]int, error) {
	out := make([][][]int, len(res.Views))
	for round, views := range res.Views {
		blocks, err := immediate.OrderedPartitionOf(views)
		if err != nil {
			return nil, fmt.Errorf("protocol: round %d: %w", round, err)
		}
		out[round] = blocks
	}
	return out, nil
}

// TestRecordedRunPartitionsRegenerateViews is the formal §3.5 execution
// extracted from a live run: each round's views reconstruct to an ordered
// partition, and replaying the partitions regenerates the final view keys.
func TestRecordedRunPartitionsRegenerateViews(t *testing.T) {
	const procs, b = 3, 3
	inputs := make([]string, procs)
	for i := range inputs {
		inputs[i] = InputKey(i)
	}
	for trial := 0; trial < 25; trial++ {
		rec, err := RunFullInfoWithInputs(inputs, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := partitions(rec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Replay the partitions deterministically.
		state := append([]string(nil), inputs...)
		for _, blocks := range parts {
			next := make([]string, procs)
			var seen []string
			for _, block := range blocks {
				for _, i := range block {
					seen = append(seen, state[i])
				}
				for _, i := range block {
					next[i] = ViewKey(state[i], seen)
				}
			}
			state = next
		}
		for i := 0; i < procs; i++ {
			if state[i] != rec.Keys[i] {
				t.Fatalf("trial %d: replay of P%d gives %q, run recorded %q",
					trial, i, state[i], rec.Keys[i])
			}
		}
	}
}

func TestRecordedRunSequentialPartitions(t *testing.T) {
	// Solo process: each round's partition is the singleton block.
	rec, err := RunFullInfoWithInputs([]string{InputKey(0)}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partitions(rec)
	if err != nil {
		t.Fatal(err)
	}
	for r, blocks := range parts {
		if len(blocks) != 1 || len(blocks[0]) != 1 || blocks[0][0] != 0 {
			t.Fatalf("round %d: blocks = %v", r, blocks)
		}
	}
}

func TestRunFullInfoSolo(t *testing.T) {
	res, err := RunFullInfo(1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A solo process sees only itself every round.
	want := InputKey(0)
	for r := 0; r < 3; r++ {
		want = ViewKey(want, []string{want})
	}
	if res.Keys[0] != want {
		t.Errorf("solo view key = %q, want %q", res.Keys[0], want)
	}
}

func TestLocateRunRejectsForeignKeys(t *testing.T) {
	sds := topology.SDS(topology.Simplex(1))
	if _, err := LocateRun(sds, &RunResult{N: 2, B: 1, Keys: []string{"bogus", ""}}); err == nil {
		t.Error("foreign key accepted")
	}
}

func TestAllISOutputsPanicsOnLargeM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AllISOutputs(6) should panic")
		}
	}()
	AllISOutputs(6)
}
