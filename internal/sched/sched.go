// Package sched provides the OS scheduler substrate: every simulation tick it
// decides which logical CPU each runnable process executes on. The paper's
// motivation section argues that power estimations should feed scheduling
// decisions ("identify the largest power consumers and make informed
// decisions during the scheduling"); the package therefore ships both
// conventional load-balancing policies and an energy-aware consolidating
// policy used by the scheduler example.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"powerapi/internal/cpu"
)

// Candidate is one runnable process from the scheduler's point of view.
type Candidate struct {
	// PID identifies the process; the candidates of one Assign call carry
	// distinct PIDs.
	PID int
	// Utilization is the fraction of one logical CPU the process wants this
	// tick, in [0, 1].
	Utilization float64
	// Affinity restricts the logical CPUs the process may run on (nil = any).
	Affinity []int
}

// Assignment places one process on one logical CPU for the tick.
type Assignment struct {
	// PID identifies the process.
	PID int
	// LogicalCPU is the hardware thread the process runs on.
	LogicalCPU int
	// Share is the fraction of the logical CPU granted, in [0, 1]. It may be
	// lower than the candidate's demand when the CPU is oversubscribed.
	Share float64
}

// Scheduler assigns runnable processes to logical CPUs.
type Scheduler interface {
	// Name identifies the policy.
	Name() string
	// Assign maps every candidate to at most one logical CPU for this tick.
	Assign(candidates []Candidate, topo *cpu.Topology) ([]Assignment, error)
}

// validateCandidates rejects malformed demands early.
func validateCandidates(candidates []Candidate, topo *cpu.Topology) error {
	if topo == nil {
		return errors.New("sched: nil topology")
	}
	for _, c := range candidates {
		if math.IsNaN(c.Utilization) || c.Utilization < 0 || c.Utilization > 1 {
			return fmt.Errorf("sched: candidate %d utilization %v out of [0,1]", c.PID, c.Utilization)
		}
		for _, id := range c.Affinity {
			if id < 0 || id >= topo.NumLogical() {
				return fmt.Errorf("sched: candidate %d affinity references unknown cpu %d", c.PID, id)
			}
		}
	}
	return nil
}

// byUtilizationThenPID orders candidates by falling utilization, then by PID.
func byUtilizationThenPID(a, b Candidate) int {
	if c := cmp.Compare(b.Utilization, a.Utilization); c != 0 {
		return c
	}
	return cmp.Compare(a.PID, b.PID)
}

// byPID orders candidates by PID.
func byPID(a, b Candidate) int { return cmp.Compare(a.PID, b.PID) }

// allowedCPUs resolves the affinity of a candidate to a usable CPU list.
func allowedCPUs(c Candidate, topo *cpu.Topology) []int {
	if len(c.Affinity) == 0 {
		all := make([]int, topo.NumLogical())
		for i := range all {
			all[i] = i
		}
		return all
	}
	return c.Affinity
}

// rebalanceShares scales the shares on oversubscribed CPUs so that the total
// share per logical CPU never exceeds 1. totals is a caller-provided scratch
// slice of at least NumLogical entries; it is zeroed and refilled here.
func rebalanceShares(assignments []Assignment, totals []float64) {
	for i := range totals {
		totals[i] = 0
	}
	for _, a := range assignments {
		totals[a.LogicalCPU] += a.Share
	}
	for i, a := range assignments {
		if total := totals[a.LogicalCPU]; total > 1 {
			assignments[i].Share = a.Share / total
		}
	}
}

// LoadBalancer is a CFS-like policy: it places each process on the least
// loaded permissible logical CPU, preferring to keep physical cores' second
// hyperthreads free until every core has work (the way the Linux scheduler's
// SMT-aware load balancing behaves).
//
// A LoadBalancer keeps per-instance scratch buffers so that steady-state
// Assign calls allocate nothing: it is NOT safe for concurrent use, and the
// returned slice is only valid until the next Assign call — exactly the
// contract the machine simulator's single-threaded tick loop needs.
type LoadBalancer struct {
	ordered  []Candidate
	out      []Assignment
	load     []float64 // per logical cpu
	coreLoad []float64 // per physical core
	totals   []float64 // rebalance scratch, per logical cpu
}

var _ Scheduler = (*LoadBalancer)(nil)

// NewLoadBalancer creates the default scheduling policy.
func NewLoadBalancer() *LoadBalancer { return &LoadBalancer{} }

// Name implements Scheduler.
func (l *LoadBalancer) Name() string { return "load-balance" }

// Assign implements Scheduler.
func (l *LoadBalancer) Assign(candidates []Candidate, topo *cpu.Topology) ([]Assignment, error) {
	if err := validateCandidates(candidates, topo); err != nil {
		return nil, err
	}
	numLogical := topo.NumLogical()
	coreOf := topo.CoreMap()
	if len(l.load) < numLogical {
		l.load = make([]float64, numLogical)
		l.totals = make([]float64, numLogical)
		l.coreLoad = make([]float64, topo.NumCores())
	}
	load := l.load[:numLogical]
	coreLoad := l.coreLoad[:topo.NumCores()]
	for i := range load {
		load[i] = 0
	}
	for i := range coreLoad {
		coreLoad[i] = 0
	}
	ordered := append(l.ordered[:0], candidates...)
	l.ordered = ordered
	// Heaviest demands first so they land on empty CPUs; PID breaks ties for
	// determinism. With distinct PIDs the order is total, so an unstable
	// sort gives the one possible result.
	slices.SortFunc(ordered, byUtilizationThenPID)
	out := l.out[:0]
	for _, c := range ordered {
		if c.Utilization <= 0 {
			continue
		}
		best := -1
		bestKey := [2]float64{0, 0}
		pick := func(id int) {
			// Primary key: load of the whole physical core (prefer an idle
			// core over the sibling of a busy one); secondary: load of the
			// logical CPU itself. The incremental coreLoad slice replaces the
			// per-candidate sibling walk (and its per-call slice copy) the
			// previous implementation paid for.
			key := [2]float64{coreLoad[coreOf[id]], load[id]}
			if best == -1 || key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]) {
				best = id
				bestKey = key
			}
		}
		if len(c.Affinity) == 0 {
			for id := 0; id < numLogical; id++ {
				pick(id)
			}
		} else {
			for _, id := range c.Affinity {
				pick(id)
			}
		}
		out = append(out, Assignment{PID: c.PID, LogicalCPU: best, Share: c.Utilization})
		load[best] += c.Utilization
		coreLoad[coreOf[best]] += c.Utilization
	}
	l.out = out
	rebalanceShares(out, l.totals[:numLogical])
	return out, nil
}

// Packing is an energy-aware consolidating policy: it fills logical CPUs in
// index order so that unused cores can drop into deep C-states or lower
// frequencies. This is the kind of "informed decision" the paper motivates.
type Packing struct{}

var _ Scheduler = (*Packing)(nil)

// NewPacking creates the consolidating policy.
func NewPacking() *Packing { return &Packing{} }

// Name implements Scheduler.
func (p *Packing) Name() string { return "packing" }

// Assign implements Scheduler.
func (p *Packing) Assign(candidates []Candidate, topo *cpu.Topology) ([]Assignment, error) {
	if err := validateCandidates(candidates, topo); err != nil {
		return nil, err
	}
	ordered := append([]Candidate(nil), candidates...)
	slices.SortFunc(ordered, byPID)
	capacity := make([]float64, topo.NumLogical())
	for i := range capacity {
		capacity[i] = 1
	}
	var out []Assignment
	for _, c := range ordered {
		if c.Utilization <= 0 {
			continue
		}
		allowed := allowedCPUs(c, topo)
		target := -1
		// First CPU (in id order) that still has room for the whole demand;
		// otherwise the first allowed CPU with any room; otherwise CPU 0 of
		// the allowed set (it will be rebalanced).
		for _, id := range allowed {
			if capacity[id] >= c.Utilization {
				target = id
				break
			}
		}
		if target == -1 {
			for _, id := range allowed {
				if capacity[id] > 0 {
					target = id
					break
				}
			}
		}
		if target == -1 {
			target = allowed[0]
		}
		out = append(out, Assignment{PID: c.PID, LogicalCPU: target, Share: c.Utilization})
		capacity[target] -= c.Utilization
		if capacity[target] < 0 {
			capacity[target] = 0
		}
	}
	rebalanceShares(out, make([]float64, topo.NumLogical()))
	return out, nil
}

// RoundRobin spreads processes across logical CPUs by PID order regardless of
// load. It is deliberately naive and serves as a baseline in tests.
type RoundRobin struct{}

var _ Scheduler = (*RoundRobin)(nil)

// NewRoundRobin creates the round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Assign implements Scheduler.
func (r *RoundRobin) Assign(candidates []Candidate, topo *cpu.Topology) ([]Assignment, error) {
	if err := validateCandidates(candidates, topo); err != nil {
		return nil, err
	}
	ordered := append([]Candidate(nil), candidates...)
	slices.SortFunc(ordered, byPID)
	var out []Assignment
	slot := 0
	for _, c := range ordered {
		if c.Utilization <= 0 {
			continue
		}
		allowed := allowedCPUs(c, topo)
		target := allowed[slot%len(allowed)]
		out = append(out, Assignment{PID: c.PID, LogicalCPU: target, Share: c.Utilization})
		slot++
	}
	rebalanceShares(out, make([]float64, topo.NumLogical()))
	return out, nil
}
