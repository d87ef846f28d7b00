package bg

import (
	"sync"
	"testing"
)

func TestSafeAgreementSolo(t *testing.T) {
	sa := NewSafeAgreement[string](3)
	sa.Propose(1, "x")
	v, ok := sa.TryResolve()
	if !ok || v != "x" {
		t.Fatalf("TryResolve = (%q, %v), want (x, true)", v, ok)
	}
}

func TestSafeAgreementUnresolvedBeforeProposal(t *testing.T) {
	sa := NewSafeAgreement[int](2)
	if _, ok := sa.TryResolve(); ok {
		t.Fatal("resolve must fail before any proposal")
	}
}

func TestSafeAgreementAgreementProperty(t *testing.T) {
	// Concurrent proposers; all resolvers must return the same value.
	const n = 4
	for trial := 0; trial < 100; trial++ {
		sa := NewSafeAgreement[int](n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sa.Propose(i, 100+i)
			}(i)
		}
		wg.Wait()
		var vals []int
		for r := 0; r < n; r++ {
			v, ok := sa.TryResolve()
			if !ok {
				t.Fatal("all proposers done; resolve must succeed")
			}
			vals = append(vals, v)
		}
		for _, v := range vals {
			if v != vals[0] {
				t.Fatalf("trial %d: resolvers disagree: %v", trial, vals)
			}
			if v < 100 || v >= 100+n {
				t.Fatalf("trial %d: decided non-proposed value %d", trial, v)
			}
		}
	}
}

func TestSafeAgreementValidity(t *testing.T) {
	sa := NewSafeAgreement[string](2)
	sa.Propose(0, "a")
	sa.Propose(1, "b")
	v, ok := sa.TryResolve()
	if !ok || (v != "a" && v != "b") {
		t.Fatalf("TryResolve = (%q, %v)", v, ok)
	}
}

// TestSafeAgreementBlocksDuringUnsafeWindow drives the two halves of
// Propose directly: between the announce and the settle (where a crash
// would strand the object) resolution must refuse, and after the window
// closes it must succeed.
func TestSafeAgreementBlocksDuringUnsafeWindow(t *testing.T) {
	sa := NewSafeAgreement[string](2)
	sa.announce(0, "x")
	if _, ok := sa.TryResolve(); ok {
		t.Fatal("resolution must block while a proposer is in its window")
	}
	// A second proposer completing fully does not unblock it either: the
	// first is still visible at level 1.
	sa.Propose(1, "y")
	if _, ok := sa.TryResolve(); ok {
		t.Fatal("resolution must still block: proposer 0 is stranded")
	}
	sa.settle(0, "x")
	v, ok := sa.TryResolve()
	if !ok || (v != "x" && v != "y") {
		t.Fatalf("TryResolve = (%q, %v) after window closed", v, ok)
	}
}

func TestResolveBlockingAndCancel(t *testing.T) {
	sa := NewSafeAgreement[int](2)
	sa.announce(0, 7)
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		_, ok := sa.Resolve(stop)
		done <- ok
	}()
	// Cancel: the resolver must give up.
	close(stop)
	if ok := <-done; ok {
		t.Fatal("cancelled Resolve reported success")
	}
	// Complete the window; a fresh Resolve succeeds immediately.
	sa.settle(0, 7)
	v, ok := sa.Resolve(make(chan struct{}))
	if !ok || v != 7 {
		t.Fatalf("Resolve = (%d, %v), want (7, true)", v, ok)
	}
}

func TestCellsEncodingRoundTrip(t *testing.T) {
	cells := []Cell{{Step: 0, Val: ""}, {Step: 3, Val: `tricky;:"value`}, {Step: 1, Val: "7"}}
	got := decodeCells(encodeCells(cells))
	if len(got) != len(cells) {
		t.Fatalf("round trip length %d, want %d", len(got), len(cells))
	}
	for i := range cells {
		if got[i] != cells[i] {
			t.Fatalf("cell %d = %+v, want %+v", i, got[i], cells[i])
		}
	}
}

// TestBGSimulationNoCrashes: all simulators adopt valid decisions with at
// most F+1 distinct values.
func TestBGSimulationNoCrashes(t *testing.T) {
	const (
		nSim, mProc, f = 3, 5, 2
	)
	inputs := []int{30, 10, 20}
	for trial := 0; trial < 10; trial++ {
		sim := NewSimulation(nSim, mProc, &SetConsensusCode{MProc: mProc, F: f, Inputs: inputs})
		res := sim.RunAll(nil)
		validateBG(t, inputs, res, f+1, nil)
		for i, d := range res.Adopted {
			if d < 0 {
				t.Fatalf("trial %d: simulator %d did not adopt", trial, i)
			}
		}
	}
}

// TestBGSimulationWithCrashes: up to F simulator crashes, survivors still
// adopt — each crash blocks at most one simulated process.
func TestBGSimulationWithCrashes(t *testing.T) {
	const (
		nSim, mProc, f = 3, 6, 2
	)
	inputs := []int{5, 9, 7}
	for trial := 0; trial < 10; trial++ {
		sim := NewSimulation(nSim, mProc, &SetConsensusCode{MProc: mProc, F: f, Inputs: inputs})
		// Simulators 0 and 1 crash early (≤ f = 2 crashes).
		res := sim.RunAll([]int{3, 7, -1})
		validateBG(t, inputs, res, f+1, map[int]bool{0: true, 1: true})
		if res.Adopted[2] < 0 {
			t.Fatalf("trial %d: surviving simulator did not adopt", trial)
		}
	}
}

// TestBGSimulatedDecisionsBound: simulated processes decide at most F+1
// distinct values even across many trials.
func TestBGSimulatedDecisionsBound(t *testing.T) {
	const (
		nSim, mProc, f = 4, 6, 1
	)
	inputs := []int{4, 3, 2, 1}
	for trial := 0; trial < 10; trial++ {
		sim := NewSimulation(nSim, mProc, &SetConsensusCode{MProc: mProc, F: f, Inputs: inputs})
		res := sim.RunAll([]int{5, -1, -1, -1}) // one crash ≤ f
		validateBG(t, inputs, res, f+1, map[int]bool{0: true})
	}
}

// TestBGSimulatedExecutionIsLegal audits the agreed snapshots: the simulated
// run must itself be a legal atomic snapshot execution (read-own-write,
// per-process monotonicity, global comparability).
func TestBGSimulatedExecutionIsLegal(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		inputs := []int{3, 1, 2}
		sim := NewSimulation(3, 5, &SetConsensusCode{MProc: 5, F: 2, Inputs: inputs})
		res := sim.RunAll(nil)
		validateBG(t, inputs, res, 3, nil)
		if err := sim.ValidateSimulatedExecution(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestBGSimulatedExecutionLegalUnderCrashes(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		inputs := []int{9, 4, 6}
		sim := NewSimulation(3, 5, &SetConsensusCode{MProc: 5, F: 2, Inputs: inputs})
		res := sim.RunAll([]int{4, -1, -1})
		validateBG(t, inputs, res, 3, map[int]bool{0: true})
		if err := sim.ValidateSimulatedExecution(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestBGFullInformationProtocol runs Figure 1 itself under the simulation:
// the simulated execution must be a legal atomic snapshot execution and
// every simulated process must decide.
func TestBGFullInformationProtocol(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		sim := NewSimulation(3, 4, &FullInfoCode{K: 2})
		res := sim.RunAll(nil)
		if err := sim.ValidateSimulatedExecution(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(res.Simulated) == 0 {
			t.Fatal("no simulated process decided")
		}
		for p, d := range res.Simulated {
			if d < 1 || d > 4 {
				t.Fatalf("simulated P%d decided breadth %d outside [1,4]", p, d)
			}
		}
		for i, a := range res.Adopted {
			if a < 0 {
				t.Fatalf("trial %d: simulator %d did not adopt", trial, i)
			}
		}
	}
}

func TestBGFullInformationWithSimulatorCrash(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		sim := NewSimulation(3, 4, &FullInfoCode{K: 2})
		res := sim.RunAll([]int{3, -1, -1})
		if err := sim.ValidateSimulatedExecution(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Adopted[1] < 0 || res.Adopted[2] < 0 {
			t.Fatal("survivors did not adopt")
		}
	}
}

func validateBG(t *testing.T, inputs []int, res *Result, k int, crashed map[int]bool) {
	t.Helper()
	valid := make(map[int]bool, len(inputs))
	for _, v := range inputs {
		valid[v] = true
	}
	distinct := make(map[int]bool)
	for i, d := range res.Adopted {
		if d < 0 {
			if crashed == nil || !crashed[i] {
				t.Fatalf("simulator %d failed to adopt without crashing", i)
			}
			continue
		}
		if !valid[d] {
			t.Fatalf("simulator %d adopted %d, not an input", i, d)
		}
		distinct[d] = true
	}
	simDistinct := make(map[int]bool)
	for p, d := range res.Simulated {
		if !valid[d] {
			t.Fatalf("simulated process %d decided %d, not an input", p, d)
		}
		simDistinct[d] = true
	}
	if len(simDistinct) > k {
		t.Fatalf("simulated processes decided %d distinct values, bound %d", len(simDistinct), k)
	}
	if len(distinct) > k {
		t.Fatalf("simulators adopted %d distinct values, bound %d", len(distinct), k)
	}
}

// TestSimulatorProposesOncePerAgreement replays the interleaving that let
// two simulators agree on different snapshots: simulator 0 commits a
// snapshot while simulator 1 sits in its unsafe window, the window closes
// and the agreement resolves, the board changes, and simulator 0 retries.
// The retry must only resolve; proposing its newer snapshot again would
// commit a second value after the first was already agreed.
func TestSimulatorProposesOncePerAgreement(t *testing.T) {
	s := NewSimulation(2, 2, &FullInfoCode{K: 2})
	a := s.newSimulator(0)
	if !a.tryAdvance(0) { // input agreement for process 0: a alone, resolves
		t.Fatal("a solo input agreement must resolve")
	}
	sa := s.sa(0, 1)
	sa.announce(1, "stalled")
	if a.tryAdvance(0) {
		t.Fatal("step 1 resolved while simulator 1 is inside its unsafe window")
	}
	sa.settle(1, "stalled") // sees a's commit and aborts
	agreed, ok := sa.TryResolve()
	if !ok {
		t.Fatal("step 1 must resolve once the window closes")
	}
	if !a.tryAdvance(1) { // changes the board a would scan next
		t.Fatal("a solo input agreement must resolve")
	}
	if !a.tryAdvance(0) {
		t.Fatal("a's retry must resolve the agreed step")
	}
	if got, _ := sa.TryResolve(); got != agreed {
		t.Fatalf("the agreement changed after it resolved:\n was %q\n now %q", agreed, got)
	}
	if got := s.audit[[2]int{0, 1}]; got != agreed {
		t.Fatalf("a replayed step 1 from %q, but the agreement resolved to %q", got, agreed)
	}
}
