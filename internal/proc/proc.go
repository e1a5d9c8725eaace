// Package proc models the operating-system process abstraction the paper's
// toolkit monitors: every workload runs as a process with a PID, and the
// PowerAPI Sensor attributes hardware-counter activity (and therefore power)
// to PIDs.
package proc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"powerapi/internal/workload"
)

// State is the lifecycle state of a process.
type State int

// Process states.
const (
	// StateRunnable means the process is alive and may be scheduled.
	StateRunnable State = iota + 1
	// StateExited means the process has finished (workload done or killed).
	StateExited
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Process is one simulated OS process.
type Process struct {
	mu        sync.RWMutex
	pid       int
	name      string
	generator workload.Generator
	state     State
	affinity  []int
	startedAt time.Duration
	cpuTime   time.Duration
	exitedAt  time.Duration
}

// PID returns the process identifier.
func (p *Process) PID() int { return p.pid }

// Name returns the process name (derived from its workload by default).
func (p *Process) Name() string { return p.name }

// State returns the current lifecycle state.
func (p *Process) State() State {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.state
}

// Affinity returns the logical CPUs the process may run on (nil = any).
func (p *Process) Affinity() []int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.affinity == nil {
		return nil
	}
	return append([]int(nil), p.affinity...)
}

// StartedAt returns the simulated instant the process was spawned.
func (p *Process) StartedAt() time.Duration { return p.startedAt }

// CPUTime returns the accumulated CPU time consumed by the process.
func (p *Process) CPUTime() time.Duration {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.cpuTime
}

// AddCPUTime accrues CPU time (called by the machine engine).
func (p *Process) AddCPUTime(d time.Duration) {
	if d <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cpuTime += d
}

// Demand returns the workload demand of the process at the given simulated
// instant relative to the machine epoch (the process translates it to its own
// lifetime).
func (p *Process) Demand(at time.Duration) workload.Demand {
	// Snapshot under the lock, call the generator after releasing it: the
	// generator is caller-provided code and must not run under p.mu.
	// generator and startedAt are immutable after Spawn, so the unlocked call
	// observes a consistent pair.
	p.mu.RLock()
	state := p.state
	gen, startedAt := p.generator, p.startedAt
	p.mu.RUnlock()
	if state != StateRunnable {
		return workload.Demand{}
	}
	return gen.Demand(at - startedAt)
}

// WorkloadDone reports whether the underlying workload has completed at the
// given machine instant.
func (p *Process) WorkloadDone(at time.Duration) bool {
	p.mu.RLock()
	gen, startedAt := p.generator, p.startedAt
	p.mu.RUnlock()
	return gen.Done(at - startedAt)
}

// exit marks the process as exited at the given instant and reports whether
// this call made the transition.
func (p *Process) exit(at time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == StateExited {
		return false
	}
	p.state = StateExited
	p.exitedAt = at
	return true
}

// ExitedAt returns when the process exited (zero if still runnable).
func (p *Process) ExitedAt() time.Duration {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.exitedAt
}

// SpawnOption customises a spawned process.
type SpawnOption func(*Process)

// WithAffinity pins the process to a set of logical CPUs.
func WithAffinity(cpus ...int) SpawnOption {
	return func(p *Process) {
		p.affinity = append([]int(nil), cpus...)
	}
}

// WithName overrides the process name.
func WithName(name string) SpawnOption {
	return func(p *Process) {
		if name != "" {
			p.name = name
		}
	}
}

// Table is the process table of the simulated machine.
type Table struct {
	mu      sync.RWMutex
	nextPID int
	procs   map[int]*Process
	// sorted caches every process in PID order. PIDs are handed out
	// monotonically, so Spawn appends in order; the cache never needs a
	// re-sort, which keeps the per-tick Runnable scan O(n) instead of
	// O(n log n) at 100k processes.
	sorted []*Process
	// journalMu guards journal. Reap appends while holding mu for reading,
	// so the order is mu → journalMu.
	journalMu sync.Mutex
	// journal lists the PIDs in the order they left StateRunnable. A PID is
	// appended only after its state change is visible, and a process exits
	// at most once, so the journal never outgrows the table.
	journal []int
}

// NewTable creates an empty process table. PIDs start at 1000 to look like a
// user session rather than kernel threads.
func NewTable() *Table {
	return &Table{nextPID: 1000, procs: make(map[int]*Process)}
}

// Spawn creates a runnable process driving the given workload generator.
func (t *Table) Spawn(gen workload.Generator, at time.Duration, opts ...SpawnOption) (*Process, error) {
	if gen == nil {
		return nil, errors.New("proc: nil workload generator")
	}
	name := gen.Name() // caller-provided code; call it before taking t.mu
	t.mu.Lock()
	defer t.mu.Unlock()
	pid := t.nextPID
	t.nextPID++
	p := &Process{
		pid:       pid,
		name:      name,
		generator: gen,
		state:     StateRunnable,
		startedAt: at,
	}
	for _, opt := range opts {
		opt(p)
	}
	t.procs[pid] = p
	t.sorted = append(t.sorted, p)
	return p, nil
}

// Get returns the process with the given PID.
func (t *Table) Get(pid int) (*Process, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, ok := t.procs[pid]
	if !ok {
		return nil, fmt.Errorf("proc: no such process %d", pid)
	}
	return p, nil
}

// Kill marks a process as exited.
func (t *Table) Kill(pid int, at time.Duration) error {
	p, err := t.Get(pid)
	if err != nil {
		return err
	}
	if p.exit(at) {
		t.journalExit(pid)
	}
	return nil
}

func (t *Table) journalExit(pid int) {
	t.journalMu.Lock()
	defer t.journalMu.Unlock()
	t.journal = append(t.journal, pid)
}

// Exits returns how many processes have left StateRunnable so far. A process
// only leaves it by exiting, so an unchanged count means no process that was
// runnable at the previous load has exited since.
func (t *Table) Exits() uint64 {
	t.journalMu.Lock()
	defer t.journalMu.Unlock()
	return uint64(len(t.journal))
}

// ExitedSince appends to dst the PIDs that left StateRunnable after the first
// n exits, in exit order, and returns the extended slice and the new exit
// count; passing that count back next time reads only the exits in between.
// A cursor past the end reads nothing.
func (t *Table) ExitedSince(n uint64, dst []int) ([]int, uint64) {
	t.journalMu.Lock()
	defer t.journalMu.Unlock()
	end := uint64(len(t.journal))
	if n < end {
		dst = append(dst, t.journal[n:]...)
	}
	return dst, end
}

// Spawned returns how many processes were spawned so far, exited ones
// included.
func (t *Table) Spawned() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return uint64(len(t.sorted))
}

// List returns every process (any state) ordered by PID.
func (t *Table) List() []*Process {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Process(nil), t.sorted...)
}

// Runnable returns the runnable processes ordered by PID.
func (t *Table) Runnable() []*Process {
	return t.RunnableAppend(nil)
}

// RunnableAppend appends the runnable processes in PID order to dst and
// returns the extended slice. Passing a slice retained across ticks makes the
// scan allocation-free, which is what the machine simulator's tick loop does.
func (t *Table) RunnableAppend(dst []*Process) []*Process {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, p := range t.sorted {
		if p.State() == StateRunnable {
			dst = append(dst, p)
		}
	}
	return dst
}

// PIDs returns the PIDs of runnable processes.
func (t *Table) PIDs() []int {
	runnable := t.Runnable()
	out := make([]int, 0, len(runnable))
	for _, p := range runnable {
		out = append(out, p.PID())
	}
	return out
}

// Reap transitions processes whose workload has completed to the exited
// state and returns the PIDs reaped.
func (t *Table) Reap(at time.Duration) []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var reaped []int
	for _, p := range t.sorted {
		if p.State() == StateRunnable && p.WorkloadDone(at) {
			if p.exit(at) {
				t.journalExit(p.pid)
			}
			reaped = append(reaped, p.pid)
		}
	}
	return reaped
}
