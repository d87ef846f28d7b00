package bg

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"waitfree/internal/register"
	"waitfree/internal/sched"
)

// Cell is the latest visible state of one simulated process's register.
type Cell struct {
	Step int    // how many writes are visible (0 = none)
	Val  string // the step-th written value
}

// Code is the snapshot-based full-information protocol executed by the
// simulated processes. A simulated process p runs:
//
//	write input                         // step 1; the input is agreed from
//	                                    // the simulators' own proposals
//	loop: view := snapshot
//	      val, decide := Next(p, step, view)
//	      if decide != nil: decide and halt
//	      write val                     // step++
//
// Next must be deterministic — the simulation agrees on each snapshot's
// content and then every simulator replays Next identically.
//
// ProposeInput(i) is simulator i's input proposal for any simulated process:
// a simulator knows only its own input, so a simulated process's input
// becomes whichever simulator's proposal wins the step-0 safe agreement.
// This is what makes the simulated decisions valid with respect to the
// simulators' inputs.
type Code interface {
	ProposeInput(simulator int) string
	Next(p, step int, view []Cell) (write string, decide *int)
}

// row is one simulator's published knowledge: for every simulated process,
// the values written so far and its decision if the simulator knows one.
type row struct {
	steps []int      // per simulated process, highest step written
	vals  [][]string // per simulated process, values of steps 1..steps[p]
	decs  []int      // per simulated process, decision, or -1
}

// Simulation is the shared state of a BG simulation run: the board (a real
// atomic snapshot object with one component per simulator) and a safe
// agreement object per simulated snapshot.
type Simulation struct {
	nSim  int // simulators
	mProc int // simulated processes
	code  Code

	board *register.Snapshot[row]
	gate  sched.Gate // set before RunAllScheduled spawns; nil = live scheduler

	mu  sync.Mutex
	sas map[[2]int]*SafeAgreement[string] // (simulated proc, step) → agreement

	// audit records the agreed snapshot per (simulated proc, step) for
	// post-hoc validation of the simulated execution. It is test
	// instrumentation, not part of the protocol.
	auditMu sync.Mutex
	audit   map[[2]int]string
}

// NewSimulation prepares a BG simulation of mProc simulated processes
// running code, driven by nSim simulators.
func NewSimulation(nSim, mProc int, code Code) *Simulation {
	return &Simulation{
		nSim:  nSim,
		mProc: mProc,
		code:  code,
		board: register.NewSnapshot[row](nSim),
		sas:   make(map[[2]int]*SafeAgreement[string]),
		audit: make(map[[2]int]string),
	}
}

// SetGate routes every shared-memory operation of the simulation — the board
// and all safe agreement objects, including ones allocated later — through a
// scheduler step point. Call before spawning simulators.
func (s *Simulation) SetGate(g sched.Gate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = g
	s.board.SetGate(g)
	for _, sa := range s.sas {
		sa.SetGate(g)
	}
}

// sa returns the safe agreement object for (p, step), lazily allocated. The
// map mutex is a harness convenience, not part of the modeled computation: a
// real deployment would preallocate the (bounded, per Lemma 3.1) schedule of
// agreements.
func (s *Simulation) sa(p, step int) *SafeAgreement[string] {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]int{p, step}
	if s.sas[key] == nil {
		s.sas[key] = NewSafeAgreement[string](s.nSim)
		s.sas[key].SetGate(s.gate)
	}
	return s.sas[key]
}

// simulator is one wait-free BG simulator's local replica.
type simulator struct {
	id    int
	sim   *Simulation
	steps []int      // next step to execute per simulated process (-1 = decided)
	vals  [][]string // known written values per simulated process
	decs  []int      // known decisions per simulated process (-1 = none)
	// proposed marks the simulated processes whose current step's agreement
	// this simulator has proposed to but not yet resolved. Safe agreement is
	// single-shot per proposer: proposing again after a blocked resolution
	// would replace, or abort, a commit that another simulator may already
	// have resolved to.
	proposed []bool
}

func (s *Simulation) newSimulator(i int) *simulator {
	st := &simulator{
		id:       i,
		sim:      s,
		steps:    make([]int, s.mProc),
		vals:     make([][]string, s.mProc),
		decs:     make([]int, s.mProc),
		proposed: make([]bool, s.mProc),
	}
	for p := range st.steps {
		st.steps[p] = 0 // step 0: the input agreement
		st.decs[p] = -1
	}
	return st
}

// publish writes the simulator's current knowledge to its board row.
func (st *simulator) publish() {
	r := row{
		steps: make([]int, st.sim.mProc),
		vals:  make([][]string, st.sim.mProc),
		decs:  append([]int(nil), st.decs...),
	}
	for p := range r.steps {
		r.steps[p] = len(st.vals[p])
		r.vals[p] = append([]string(nil), st.vals[p]...)
	}
	st.sim.board.Update(st.id, r)
}

// scanBoard takes a real snapshot of the board and extracts the latest
// visible simulated memory plus any visible simulated decisions.
func (st *simulator) scanBoard() ([]Cell, []int) {
	view := st.sim.board.Scan()
	cells := make([]Cell, st.sim.mProc)
	decs := make([]int, st.sim.mProc)
	for p := range decs {
		decs[p] = -1
	}
	for _, e := range view {
		if !e.Present {
			continue
		}
		for p := 0; p < st.sim.mProc; p++ {
			if e.Val.steps[p] > cells[p].Step {
				cells[p].Step = e.Val.steps[p]
				cells[p].Val = e.Val.vals[p][e.Val.steps[p]-1]
			}
			if e.Val.decs[p] >= 0 {
				decs[p] = e.Val.decs[p]
			}
		}
	}
	return cells, decs
}

// tryAdvance attempts to execute one step of simulated process p: propose a
// snapshot for p's current step (once) and, if the agreement resolves, replay
// the code. It returns false when the agreement is blocked (p is abandoned
// until a later pass, which only retries the resolution).
func (st *simulator) tryAdvance(p int) bool {
	step := st.steps[p]

	if step == 0 {
		// Agree on p's input from the simulators' own proposals, then
		// perform p's first simulated write.
		sa := st.sim.sa(p, 0)
		if !st.proposed[p] {
			sa.Propose(st.id, st.sim.code.ProposeInput(st.id))
			st.proposed[p] = true
		}
		agreed, ok := sa.TryResolve()
		if !ok {
			return false
		}
		st.proposed[p] = false
		st.vals[p] = []string{agreed}
		st.steps[p] = 1
		st.publish()
		return true
	}

	st.publish()
	sa := st.sim.sa(p, step)
	if !st.proposed[p] {
		cells, _ := st.scanBoard()
		sa.Propose(st.id, encodeCells(cells))
		st.proposed[p] = true
	}
	agreed, ok := sa.TryResolve()
	if !ok {
		return false
	}
	st.proposed[p] = false
	st.sim.recordAgreed(p, step, agreed)
	view := decodeCells(agreed)

	val, decide := st.sim.code.Next(p, step, view)
	if decide != nil {
		st.decs[p] = *decide
		st.steps[p] = -1
		st.publish()
		return true
	}
	st.vals[p] = append(st.vals[p], val)
	st.steps[p] = step + 1
	return true
}

// Run drives simulator i until some simulated process's decision becomes
// visible on the board, and returns the adopted decision (that of the
// lowest-id decided simulated process visible, so adoption is deterministic
// in the visible set). crashAfter ≥ 0 fail-stops the simulator after that
// many advance attempts; it then returns -1.
func (s *Simulation) Run(i, crashAfter int) int {
	st := s.newSimulator(i)
	attempts := 0
	for {
		for p := 0; p < s.mProc; p++ {
			if crashAfter >= 0 && attempts >= crashAfter {
				return -1
			}
			attempts++
			_, decs := st.scanBoard()
			for q := 0; q < s.mProc; q++ {
				if decs[q] >= 0 {
					return decs[q]
				}
				if st.decs[q] >= 0 {
					return st.decs[q]
				}
			}
			if st.steps[p] < 0 {
				continue
			}
			st.tryAdvance(p)
		}
		sched.Yield(s.gate)
	}
}

// Result reports a BG simulation run.
type Result struct {
	Adopted   []int       // per simulator, adopted decision (-1 = crashed)
	Simulated map[int]int // simulated process → decision, as visible at the end
}

// RunAll runs all simulators concurrently and collects adoptions.
// crashAfter[i] ≥ 0 crashes simulator i after that many advance attempts;
// the number of crashed simulators must be within the simulated code's
// resilience or the run may block forever (as the theory says: each crashed
// simulator can block at most one simulated process inside a safe
// agreement).
func (s *Simulation) RunAll(crashAfter []int) *Result {
	res, _ := s.RunAllScheduled(crashAfter)
	return res
}

// RunAllScheduled is RunAll under a deterministic adversarial schedule when
// sched.Under(ctl) is given (all board and safe-agreement operations become
// step points). A controller-crashed simulator adopts -1, like crashAfter
// ones; if the controller crashes more simulators than the simulated code's
// resilience, survivors spin until the step budget fail-stops them and the
// returned error is a *sched.BudgetError.
func (s *Simulation) RunAllScheduled(crashAfter []int, opts ...sched.RunOption) (*Result, error) {
	ro := sched.BuildOpts(opts)
	if ro.Controller != nil {
		s.SetGate(ro.Controller)
	}
	adopted := make([]int, s.nSim)
	for i := range adopted {
		adopted[i] = -1 // overwritten by simulators that finish
	}
	grp := sched.NewGroup(ro.Controller)
	for i := 0; i < s.nSim; i++ {
		limit := -1
		if crashAfter != nil && i < len(crashAfter) {
			limit = crashAfter[i]
		}
		grp.Go(i, func() {
			adopted[i] = s.Run(i, limit)
		})
	}
	err := grp.Wait()

	res := &Result{Adopted: adopted, Simulated: make(map[int]int)}
	// Final pass over the board for reporting (the controller, if any, has
	// finished by now, so gated operations pass straight through).
	view := s.board.Scan()
	for _, e := range view {
		if !e.Present {
			continue
		}
		for p, d := range e.Val.decs {
			if d >= 0 {
				res.Simulated[p] = d
			}
		}
	}
	return res, err
}

// recordAgreed stores the agreed snapshot for (p, step), checking that all
// simulators resolve identically (the safe agreement property, audited).
func (s *Simulation) recordAgreed(p, step int, agreed string) {
	s.auditMu.Lock()
	defer s.auditMu.Unlock()
	key := [2]int{p, step}
	if prev, ok := s.audit[key]; ok && prev != agreed {
		panic(fmt.Sprintf("bg: simulators disagree on snapshot (%d,%d): %q vs %q", p, step, prev, agreed))
	}
	s.audit[key] = agreed
}

// encodeCells canonically encodes a simulated memory view for agreement.
// Values are strconv-quoted so any value string round-trips.
func encodeCells(cells []Cell) string {
	var b strings.Builder
	for p, c := range cells {
		if p > 0 {
			b.WriteByte(';')
		}
		b.WriteString(strconv.Itoa(c.Step))
		b.WriteByte(':')
		b.WriteString(strconv.Quote(c.Val))
	}
	return b.String()
}

// decodeCells reverses encodeCells. The input is produced by this package
// only; corruption indicates a bug, hence the panic.
func decodeCells(s string) []Cell {
	var cells []Cell
	for len(s) > 0 {
		colon := strings.IndexByte(s, ':')
		if colon < 0 {
			panic(fmt.Sprintf("bg: corrupt cell encoding %q", s))
		}
		step, err := strconv.Atoi(s[:colon])
		if err != nil {
			panic(fmt.Sprintf("bg: corrupt step in %q: %v", s, err))
		}
		s = s[colon+1:]
		quoted, err := strconv.QuotedPrefix(s)
		if err != nil {
			panic(fmt.Sprintf("bg: corrupt value in %q: %v", s, err))
		}
		val, err := strconv.Unquote(quoted)
		if err != nil {
			panic(fmt.Sprintf("bg: corrupt quoted value %q: %v", quoted, err))
		}
		cells = append(cells, Cell{Step: step, Val: val})
		s = s[len(quoted):]
		if len(s) > 0 {
			if s[0] != ';' {
				panic(fmt.Sprintf("bg: missing separator in %q", s))
			}
			s = s[1:]
		}
	}
	return cells
}
