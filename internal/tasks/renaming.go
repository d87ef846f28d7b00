package tasks

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"waitfree/internal/core"
	"waitfree/internal/sched"
)

// RenamingResult reports the outcome of a renaming run.
type RenamingResult struct {
	Names []int // decided name per process; 0 for processes that crashed
	Steps []int // snapshot iterations used per process
}

// RunRenaming executes the classic wait-free snapshot-based renaming
// algorithm (Attiya–Bar-Noy–Dolev–Peleg–Reischuk style, the task discussed
// in the paper's §1) on a ShotMemory: each process repeatedly publishes a
// name proposal and scans; if its proposal is not contested it decides,
// otherwise it proposes the r-th name not proposed by others, where r is the
// rank of its id among the participants it sees.
//
// Proposition 4.1 lets the one protocol run unchanged on either memory:
// core.NewDirectMemory is the atomic snapshot object itself, and
// core.NewEmulatedMemory runs it through the Figure 2 emulation on iterated
// immediate snapshots, with a shot count that depends on the run.
//
// With p participants all decided names are distinct and lie in
// {1, …, 2p−1}. participate[i] = false models a process that crashed before
// taking any step; crashAfter[i] ≥ 0 crashes process i after that many scan
// iterations.
//
// sched.Under(ctl) runs the processes under a deterministic adversarial
// schedule, gating the memory when it supports core.GatedMemory (both
// built-in memories do); controller-injected crashes leave Names[i] = 0,
// like the other crash knobs.
func RunRenaming(mem core.ShotMemory, procs int, participate []bool, crashAfter []int, opts ...sched.RunOption) (*RenamingResult, error) {
	ro := sched.BuildOpts(opts)
	if ro.Controller != nil {
		if gm, ok := mem.(core.GatedMemory); ok {
			gm.SetGate(ro.Controller)
		}
	}
	res := &RenamingResult{Names: make([]int, procs), Steps: make([]int, procs)}
	errs := make([]error, procs)

	grp := sched.NewGroup(ro.Controller)
	for i := 0; i < procs; i++ {
		if participate != nil && i < len(participate) && !participate[i] {
			continue
		}
		grp.Go(i, func() {
			limit := -1
			if crashAfter != nil && i < len(crashAfter) {
				limit = crashAfter[i]
			}
			proposal := 0
			for step := 1; ; step++ {
				if limit >= 0 && step > limit {
					return // fail-stop
				}
				res.Steps[i] = step
				if err := mem.Write(i, step, encodeRenameState(i, proposal)); err != nil {
					errs[i] = err
					return
				}
				vals, seqs, err := mem.SnapshotRead(i, step)
				if err != nil {
					errs[i] = err
					return
				}

				contested := false
				others := make(map[int]struct{})
				var ids []int
				for j := range vals {
					if seqs[j] == 0 {
						continue
					}
					id, prop, err := decodeRenameState(vals[j])
					if err != nil {
						errs[i] = err
						return
					}
					ids = append(ids, id)
					if j == i {
						continue
					}
					if prop != 0 {
						others[prop] = struct{}{}
						if prop == proposal {
							contested = true
						}
					}
				}
				if proposal != 0 && !contested {
					res.Names[i] = proposal
					return
				}
				sort.Ints(ids)
				rank := 1
				for _, id := range ids {
					if id < i {
						rank++
					}
				}
				name := 0
				for count := 0; count < rank; {
					name++
					if _, taken := others[name]; !taken {
						count++
					}
				}
				proposal = name
			}
		})
	}
	if err := grp.Wait(); err != nil {
		return res, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ValidateRenaming checks distinctness and the (2p−1) name-space bound for
// the processes that decided, where p is the number of participants
// (deciders and crashed participants alike).
func ValidateRenaming(res *RenamingResult, participants int) error {
	seen := make(map[int]int)
	for i, name := range res.Names {
		if name == 0 {
			continue
		}
		if prev, dup := seen[name]; dup {
			return fmt.Errorf("tasks: processes %d and %d both named %d", prev, i, name)
		}
		seen[name] = i
		if bound := 2*participants - 1; name < 1 || name > bound {
			return fmt.Errorf("tasks: process %d got name %d outside [1,%d]", i, name, bound)
		}
	}
	return nil
}

func encodeRenameState(id, proposal int) string {
	return strconv.Itoa(id) + ":" + strconv.Itoa(proposal)
}

func decodeRenameState(s string) (id, proposal int, err error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, 0, fmt.Errorf("tasks: bad rename state %q", s)
	}
	id, err = strconv.Atoi(s[:colon])
	if err != nil {
		return 0, 0, fmt.Errorf("tasks: bad rename id in %q: %w", s, err)
	}
	proposal, err = strconv.Atoi(s[colon+1:])
	if err != nil {
		return 0, 0, fmt.Errorf("tasks: bad rename proposal in %q: %w", s, err)
	}
	return id, proposal, nil
}
