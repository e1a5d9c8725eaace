package source

import (
	"context"
	"errors"
	"fmt"

	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/target"
)

// hpcEntry pairs an attached target with its counter baseline: the registry
// counts at the previous read. Entries live in a dense slice so the per-round
// sample loop walks contiguous memory instead of iterating a map.
type hpcEntry struct {
	target target.Target
	base   hpc.CountsVec
}

// HPC is the hardware-performance-counter backend, the paper's original
// Sensor path: every attached process target is sampled each round as the
// counter deltas since the previous round. One source reads all of its
// processes under a single registry lock (Registry.ReadVecs), so shards
// sampling in parallel do not contend per process and event.
type HPC struct {
	machine  *machine.Machine
	registry *hpc.Registry
	events   []hpc.Event
	entries  []hpcEntry
	index    map[int]int // PID -> entries position
	// pids mirrors entries (pids[i] is entries[i].target.PID) and cur is the
	// ReadVecs scratch of the same length; both are kept in step by Add and
	// Remove so Sample never resizes them.
	pids   []int
	cur    []hpc.CountsVec
	closed bool
}

// NewHPC creates a counter-backed source monitoring the given events.
func NewHPC(m *machine.Machine, events []hpc.Event) (*HPC, error) {
	if m == nil {
		return nil, errors.New("source: nil machine")
	}
	if len(events) == 0 {
		return nil, errors.New("source: hpc source needs at least one event")
	}
	var seen [hpc.MaxEvent + 1]bool
	for _, e := range events {
		if !e.Valid() {
			return nil, fmt.Errorf("source: hpc source cannot count invalid event %v", e)
		}
		if seen[e] {
			return nil, fmt.Errorf("source: duplicate event %v", e)
		}
		seen[e] = true
	}
	return &HPC{
		machine:  m,
		registry: m.Registry(),
		events:   append([]hpc.Event(nil), events...),
		index:    make(map[int]int),
	}, nil
}

// Name implements Source.
func (s *HPC) Name() string { return "hpc" }

// Scope implements Source.
func (s *HPC) Scope() Scope { return ScopeProcess }

// Open implements Source.
func (s *HPC) Open(targets []target.Target) error {
	for _, t := range targets {
		if err := s.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// Add implements Dynamic: it validates the process and takes its counter
// baseline, so its first sample counts from the attach. Only process targets
// can be sampled — a cgroup has no counters of its own; the pipeline monitors
// its member processes and rolls them up instead.
func (s *HPC) Add(t target.Target) error {
	if s.closed {
		return errors.New("source: hpc source is closed")
	}
	if t.Kind != target.KindProcess {
		return fmt.Errorf("source: hpc source cannot sample %v targets", t.Kind)
	}
	if _, exists := s.index[t.PID]; exists {
		return nil
	}
	if _, err := s.machine.Processes().Get(t.PID); err != nil {
		return fmt.Errorf("source: attach: %w", err)
	}
	var base [1]hpc.CountsVec
	s.registry.ReadVecs([]int{t.PID}, hpc.AllCPUs, base[:])
	s.index[t.PID] = len(s.entries)
	s.entries = append(s.entries, hpcEntry{target: t, base: base[0]})
	s.pids = append(s.pids, t.PID)
	s.cur = append(s.cur, hpc.CountsVec{})
	return nil
}

// Remove implements Dynamic. The vacated entry is filled by swapping the last
// one in, keeping the slice dense.
func (s *HPC) Remove(t target.Target) error {
	if s.closed {
		return errors.New("source: hpc source is closed")
	}
	pos, exists := s.index[t.PID]
	if !exists || t.Kind != target.KindProcess {
		return fmt.Errorf("source: detach: %v is not monitored", t)
	}
	last := len(s.entries) - 1
	if pos != last {
		s.entries[pos] = s.entries[last]
		s.pids[pos] = s.pids[last]
		s.index[s.pids[pos]] = pos
	}
	s.entries[last] = hpcEntry{}
	s.entries = s.entries[:last]
	s.pids = s.pids[:last]
	s.cur = s.cur[:last]
	delete(s.index, t.PID)
	return nil
}

// Sample implements Source: it reads the counter deltas of every attached
// target into a pooled batch.
func (s *HPC) Sample(_ context.Context) (Sample, error) {
	if s.closed {
		return Sample{}, errors.New("source: hpc source is closed")
	}
	out := Sample{FrequencyMHz: s.machine.DominantFrequencyMHz()}
	if len(s.entries) == 0 {
		return out, nil
	}
	out.Targets = s.appendDeltas(GetTargetSlice(len(s.entries)))
	return out, nil
}

// appendDeltas reads every attached process in one registry batch and appends
// one sample per entry, in entry order, holding each configured event's delta
// since the previous read. A count below its baseline (the registry forgot
// the process) clamps to zero, as Counter.TakeDelta does, and the baseline
// moves to the current count either way.
//
//powerapi:hotpath
func (s *HPC) appendDeltas(dst []TargetSample) []TargetSample {
	s.registry.ReadVecs(s.pids, hpc.AllCPUs, s.cur)
	for i := range s.entries {
		e, cur := &s.entries[i], &s.cur[i]
		dst = append(dst, TargetSample{Target: e.target})
		deltas := &dst[len(dst)-1].Deltas
		for _, ev := range s.events {
			if cur[ev] > e.base[ev] {
				deltas[ev] = cur[ev] - e.base[ev]
			}
		}
		e.base = *cur
	}
	return dst
}

// Close implements Source.
func (s *HPC) Close() error {
	s.closed = true
	s.entries, s.pids, s.cur, s.index = nil, nil, nil, nil
	return nil
}
