package core

import (
	"strings"
	"testing"
	"testing/quick"

	"waitfree/internal/immediate"
)

func view(sets ...TupleSet) immediate.View[TupleSet] {
	v := make(immediate.View[TupleSet], len(sets))
	for i, s := range sets {
		if s != nil {
			v[i] = immediate.Slot[TupleSet]{Val: s, Present: true}
		}
	}
	return v
}

func TestUnionIntersectionOfView(t *testing.T) {
	a := Tuple{ID: 0, Seq: 1, Val: "a"}
	b := Tuple{ID: 1, Seq: 1, Val: "b"}
	c := Tuple{ID: 2, Seq: 1, Val: "c"}

	v := view(NewTupleSet(a, b), nil, NewTupleSet(b, c))
	u := UnionOfView(v)
	if len(u) != 3 || !u.Has(a) || !u.Has(b) || !u.Has(c) {
		t.Fatalf("union = %v", u)
	}
	in := IntersectionOfView(v)
	if len(in) != 1 || !in.Has(b) {
		t.Fatalf("intersection = %v", in)
	}

	if got := IntersectionOfView(view(nil, nil)); len(got) != 0 {
		t.Fatalf("empty view intersection = %v", got)
	}
}

func TestTupleSetBasics(t *testing.T) {
	a := Tuple{ID: 0, Seq: 2, Val: "x"}
	r := Tuple{ID: 0, Seq: 2, IsRead: true}
	s := NewTupleSet(a)
	if s.Has(r) {
		t.Fatal("read placeholder should differ from write tuple")
	}
	cl := s.Clone()
	cl.Add(r)
	if s.Has(r) {
		t.Fatal("Clone aliases original")
	}
	if got := cl.String(); !strings.Contains(got, "⊥") {
		t.Errorf("String() = %q, want placeholder marker", got)
	}
}

func TestDirectKShotTraceValid(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{1, 3}, {2, 4}, {3, 3}, {5, 2}} {
		tr, err := RunKShot(NewDirectMemory(tc.n), RunConfig{N: tc.n, K: tc.k})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d k=%d: invalid direct trace: %v", tc.n, tc.k, err)
		}
		if got := len(tr.Ops); got != tc.n*tc.k*2 {
			t.Fatalf("n=%d k=%d: %d ops, want %d", tc.n, tc.k, got, tc.n*tc.k*2)
		}
	}
}

// TestEmulatedKShotTraceValid is Proposition 4.1 at work: the emulated runs
// must satisfy exactly the same atomic snapshot execution specification.
func TestEmulatedKShotTraceValid(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{1, 3}, {2, 3}, {3, 3}, {4, 2}} {
		for trial := 0; trial < 5; trial++ {
			tr, err := RunKShot(NewEmulatedMemory(tc.n), RunConfig{N: tc.n, K: tc.k})
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d k=%d trial %d: emulation violates atomic snapshot spec: %v",
					tc.n, tc.k, trial, err)
			}
		}
	}
}

func TestEmulatedSoloUsesOneMemoryPerOp(t *testing.T) {
	// A solo process is alone in every view, so each operation terminates
	// after exactly one one-shot memory.
	const k = 4
	mem := NewEmulatedMemory(1)
	tr, err := RunKShot(mem, RunConfig{N: 1, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	used := mem.MemoriesUsed()
	if used[0] != 2*k {
		t.Fatalf("solo emulator used %d memories, want %d", used[0], 2*k)
	}
}

func TestEmulatedWithCrashes(t *testing.T) {
	// Process 0 crashes after its first write; the others must complete and
	// the surviving trace must still be a legal execution.
	const n, k = 3, 3
	for trial := 0; trial < 5; trial++ {
		mem := NewEmulatedMemory(n)
		tr, err := RunKShot(mem, RunConfig{N: n, K: k, CrashAfterOps: []int{1, -1, -1}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Survivors completed all ops.
		count := map[int]int{}
		for _, op := range tr.Ops {
			count[op.Proc]++
		}
		if count[1] != 2*k || count[2] != 2*k {
			t.Fatalf("survivors did not finish: %v", count)
		}
		if count[0] != 1 {
			t.Fatalf("crashed process completed %d ops, want 1", count[0])
		}
	}
}

func TestDirectWithCrashes(t *testing.T) {
	const n, k = 4, 3
	tr, err := RunKShot(NewDirectMemory(n), RunConfig{N: n, K: k, CrashAfterOps: []int{0, 2, -1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEmulationUnderJitterAdversary diversifies interleavings with the
// deterministic jitter adversary: every seed must still produce a legal
// trace, for both memory models.
func TestEmulationUnderJitterAdversary(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		cfg := RunConfig{N: 3, K: 2, JitterSeed: seed}
		for _, mem := range []ShotMemory{NewDirectMemory(3), NewEmulatedMemory(3)} {
			tr, err := RunKShot(mem, cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestEmulationQuickRandomCrashSchedules: under arbitrary crash vectors the
// emulated traces must remain legal atomic snapshot executions.
func TestEmulationQuickRandomCrashSchedules(t *testing.T) {
	f := func(c0, c1, c2 uint8) bool {
		const n, k = 3, 2
		crash := []int{int(c0%5) - 1, int(c1%5) - 1, int(c2%5) - 1} // -1..3
		tr, err := RunKShot(NewEmulatedMemory(n), RunConfig{N: n, K: k, CrashAfterOps: crash})
		if err != nil {
			t.Logf("crash=%v: %v", crash, err)
			return false
		}
		if err := tr.Validate(); err != nil {
			t.Logf("crash=%v: %v", crash, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFullInformationValueChaining(t *testing.T) {
	// Sequentially (n=1) the full-information value written at shot sq must
	// encode the view of shot sq−1.
	tr, err := RunKShot(NewDirectMemory(1), RunConfig{N: 1, K: 3, Inputs: []string{"seed"}})
	if err != nil {
		t.Fatal(err)
	}
	var writes []Op
	var reads []Op
	for _, op := range tr.Ops {
		if op.Kind == OpWrite {
			writes = append(writes, op)
		} else {
			reads = append(reads, op)
		}
	}
	if writes[0].Vals[0] != "seed" {
		t.Fatalf("first write %q, want seed", writes[0].Vals[0])
	}
	for i := 1; i < len(writes); i++ {
		want := EncodeFullInfo(reads[i-1].Vals, reads[i-1].Seqs)
		if writes[i].Vals[0] != want {
			t.Fatalf("write %d value %q, want %q", i+1, writes[i].Vals[0], want)
		}
	}
}

func TestEncodeFullInfo(t *testing.T) {
	vals := []string{"a", "", "c"}
	seqs := []int{2, 0, 1}
	got := EncodeFullInfo(vals, seqs)
	if got != `[0:2:"a",2:1:"c"]` {
		t.Fatalf("EncodeFullInfo = %q", got)
	}
	// Unwritten components are omitted; all-empty encodes to "[]".
	if got := EncodeFullInfo([]string{""}, []int{0}); got != "[]" {
		t.Fatalf("empty encode = %q", got)
	}
}

func TestRunKShotConfigErrors(t *testing.T) {
	if _, err := RunKShot(NewDirectMemory(1), RunConfig{N: 0, K: 1}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := RunKShot(NewDirectMemory(1), RunConfig{N: 2, K: 1, Inputs: []string{"one"}}); err == nil {
		t.Error("wrong input count should fail")
	}
	if err := NewDirectMemory(1).Write(0, 0, "x"); err == nil {
		t.Error("write seq 0 should fail")
	}
	e := NewEmulator(nil, 0)
	if err := e.Write(0, "x"); err == nil {
		t.Error("emulated write seq 0 should fail")
	}
}

func TestTraceValidateDetectsViolations(t *testing.T) {
	base := func() *Trace {
		return &Trace{N: 2, K: 1, Ops: []Op{
			{Proc: 0, Seq: 1, Kind: OpWrite, Start: 1, End: 2, Vals: []string{"a"}},
			{Proc: 1, Seq: 1, Kind: OpWrite, Start: 3, End: 4, Vals: []string{"b"}},
			{Proc: 0, Seq: 1, Kind: OpRead, Start: 5, End: 6, Vals: []string{"a", "b"}, Seqs: []int{1, 1}},
			{Proc: 1, Seq: 1, Kind: OpRead, Start: 7, End: 8, Vals: []string{"a", "b"}, Seqs: []int{1, 1}},
		}}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("legal trace rejected: %v", err)
	}

	// Stale read: P1's read starts after P0's write ended but misses it.
	tr := base()
	tr.Ops[3].Vals = []string{"", "b"}
	tr.Ops[3].Seqs = []int{0, 1}
	if err := tr.Validate(); err == nil {
		t.Error("stale read not detected")
	}

	// Missing own write.
	tr = base()
	tr.Ops[2].Seqs = []int{0, 1}
	tr.Ops[2].Vals = []string{"", "b"}
	if err := tr.Validate(); err == nil {
		t.Error("missing own write not detected")
	}

	// Wrong value for a written component.
	tr = base()
	tr.Ops[2].Vals = []string{"a", "WRONG"}
	if err := tr.Validate(); err == nil {
		t.Error("wrong value not detected")
	}

	// Incomparable views.
	tr = &Trace{N: 2, K: 2, Ops: []Op{
		{Proc: 0, Seq: 1, Kind: OpWrite, Start: 1, End: 2, Vals: []string{"a"}},
		{Proc: 1, Seq: 1, Kind: OpWrite, Start: 1, End: 2, Vals: []string{"b"}},
		{Proc: 0, Seq: 2, Kind: OpWrite, Start: 3, End: 9, Vals: []string{"a2"}},
		{Proc: 1, Seq: 2, Kind: OpWrite, Start: 3, End: 9, Vals: []string{"b2"}},
		{Proc: 0, Seq: 1, Kind: OpRead, Start: 4, End: 5, Vals: []string{"a2", "b"}, Seqs: []int{2, 1}},
		{Proc: 1, Seq: 1, Kind: OpRead, Start: 4, End: 5, Vals: []string{"a", "b2"}, Seqs: []int{1, 2}},
	}}
	if err := tr.Validate(); err == nil {
		t.Error("incomparable views not detected")
	}
}

func TestTraceValidateDetectsBackwardsPerProcessViews(t *testing.T) {
	tr := &Trace{N: 2, K: 2, Ops: []Op{
		{Proc: 0, Seq: 1, Kind: OpWrite, Start: 1, End: 2, Vals: []string{"a"}},
		{Proc: 1, Seq: 1, Kind: OpWrite, Start: 1, End: 2, Vals: []string{"b"}},
		{Proc: 0, Seq: 1, Kind: OpRead, Start: 3, End: 4, Vals: []string{"a", "b"}, Seqs: []int{1, 1}},
		{Proc: 0, Seq: 2, Kind: OpWrite, Start: 5, End: 6, Vals: []string{"a2"}},
		// Second read "forgets" P1's write: per-process monotonicity broken
		// (and freshness too).
		{Proc: 0, Seq: 2, Kind: OpRead, Start: 7, End: 8, Vals: []string{"a2", ""}, Seqs: []int{2, 0}},
	}}
	if err := tr.Validate(); err == nil {
		t.Error("backwards per-process view not detected")
	}
}

// Clone returns a copy.
func (s TupleSet) Clone() TupleSet {
	out := make(TupleSet, len(s))
	for t := range s {
		out[t] = struct{}{}
	}
	return out
}
