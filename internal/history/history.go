// Package history retains recent power monitoring rounds in fixed-capacity
// per-target ring buffers and answers windowed aggregate queries over them
// (average / maximum / 95th-percentile watts per target). The monitoring
// pipeline feeds a Store through a dedicated subscriber; the query API is
// what the HTTP serving layer and Monitor.Query expose, so a middleware
// deployment can answer "what did cgroup web draw over the last minute?"
// without replaying raw report streams.
package history

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"sort"
	"sync"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/target"
)

// DefaultCapacity is the per-target ring capacity used when a Store is
// created with a non-positive capacity.
const DefaultCapacity = 1024

// Sample is one retained observation of one target.
type Sample struct {
	// Timestamp is the simulated instant of the round.
	Timestamp time.Duration `json:"timestamp"`
	// Watts is the power attributed to the target for the round.
	Watts float64 `json:"watts"`
}

// ring is a capacity-bounded circular buffer of samples, oldest overwritten
// first. Timestamps are appended in increasing order. The backing slice
// grows lazily (amortised by append) up to the capacity, so a short-lived
// target costs only the samples it actually produced, not a full ring.
type ring struct {
	capacity int
	samples  []Sample
	head     int // index of the oldest sample once the ring is full
}

//powerapi:hotpath
func (r *ring) push(s Sample) {
	if len(r.samples) < r.capacity {
		r.samples = append(r.samples, s)
		return
	}
	r.samples[r.head] = s
	if r.head++; r.head == r.capacity {
		r.head = 0
	}
}

// snapshot appends the retained samples, oldest first, to dst.
func (r *ring) snapshot(dst []Sample) []Sample {
	for i := 0; i < len(r.samples); i++ {
		dst = append(dst, r.samples[(r.head+i)%len(r.samples)])
	}
	return dst
}

// TargetSample is one target's entry of a round handed to RecordBatch.
type TargetSample struct {
	Target target.Target
	Watts  float64
}

// numShards is the width of the store's lock sharding. Targets are spread
// across shards by RouteKey, so concurrent writers (and a writer against
// concurrent readers) mostly touch disjoint locks; 16 is comfortably wider
// than the pipelines a process realistically runs.
const numShards = 16

// storeShard is one lock-domain of the store: a private mutex over a slice of
// the target space. Process targets, nearly all of a round's samples, are
// keyed by PID; every other kind by its target.
type storeShard struct {
	mu    sync.RWMutex
	procs map[int]*ring
	rings map[target.Target]*ring
	// procTombs and tombstones record, per removed target, the last round it
	// could have legitimately appeared in. The pipeline's history writer runs
	// behind an asynchronous subscription, so a Remove can race a
	// still-queued older round; the cutoff lets ringLocked drop such late
	// samples instead of resurrecting the ring. A tombstone is cleared the
	// moment the target produces a sample from a newer round (a genuine
	// re-attach).
	procTombs  map[int]time.Duration
	tombstones map[target.Target]time.Duration
}

// Store retains the most recent samples of every observed target. Its state
// is lock-sharded by target: every operation on a single target takes exactly
// one shard lock, and RecordBatch takes each involved shard's lock once per
// round.
//
// Atomicity is per shard, not per round: a concurrent Query can observe a
// round's samples for the targets of one shard before those of another. Within
// a shard a round is still all-or-nothing, and per-target sample order is
// always timestamp order — only the cross-target cut of an in-flight round is
// relaxed. That trade buys the write path a ~numShards reduction in lock
// contention against concurrent queries at 100k-target scale.
type Store struct {
	capacity int
	shards   [numShards]storeShard

	// batchMu serialises RecordBatch so the per-shard grouping scratch below
	// can be reused round over round without allocation. Rounds arrive from a
	// single FIFO subscription, so this lock is uncontended in practice.
	batchMu sync.Mutex
	grouped [numShards][]int32 // indices into the round's samples
	found   []*ring            // one shard's rings for its grouped samples
}

// NewStore creates a store retaining up to capacity samples per target
// (DefaultCapacity when capacity is not positive).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	s := &Store{capacity: capacity}
	for i := range s.shards {
		s.shards[i].procs = make(map[int]*ring)
		s.shards[i].rings = make(map[target.Target]*ring)
		s.shards[i].procTombs = make(map[int]time.Duration)
		s.shards[i].tombstones = make(map[target.Target]time.Duration)
	}
	return s
}

// shardFor maps a target to its lock-domain.
//
//powerapi:hotpath
func (s *Store) shardFor(t target.Target) *storeShard {
	return &s.shards[t.RouteKey()%numShards]
}

// Capacity returns the per-target ring capacity.
func (s *Store) Capacity() int { return s.capacity }

// Record retains one observation of one target. Older samples beyond the
// capacity are evicted, oldest first.
//
//powerapi:hotpath
func (s *Store) Record(t target.Target, ts time.Duration, watts float64) {
	sh := s.shardFor(t)
	sh.mu.Lock()
	if r := sh.ringLocked(t, ts, s.capacity); r != nil {
		r.push(Sample{Timestamp: ts, Watts: watts})
	}
	sh.mu.Unlock()
}

// RecordBatch retains one round's samples for many targets, taking each
// involved shard's lock exactly once: the round becomes visible to queries
// atomically per shard (see the Store contract for the cross-shard cut), and
// the hot path pays at most numShards lock acquisitions per round instead of
// one per target. Rounds reach the store in timestamp order (the pipeline's
// history writer is a FIFO subscription), so tombstones older than this round
// can no longer match any future sample and are pruned — the tombstone maps
// stay bounded by the targets removed since the previous round, not by every
// target that ever existed.
//
// Each shard's rings are all looked up before any sample is written: the
// lookups are independent, so the CPU overlaps their cache misses, where one
// loop interleaving lookups and writes would mostly wait on one at a time.
//
//powerapi:hotpath
func (s *Store) RecordBatch(ts time.Duration, samples []TargetSample) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	for i := range s.grouped {
		s.grouped[i] = s.grouped[i][:0]
	}
	for j := range samples {
		i := samples[j].Target.RouteKey() % numShards
		s.grouped[i] = append(s.grouped[i], int32(j))
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		s.found = s.found[:0]
		for _, j := range s.grouped[i] {
			s.found = append(s.found, sh.ringLocked(samples[j].Target, ts, s.capacity))
		}
		for k, j := range s.grouped[i] {
			if r := s.found[k]; r != nil {
				r.push(Sample{Timestamp: ts, Watts: samples[j].Watts})
			}
		}
		pruneTombstones(sh.procTombs, ts)
		pruneTombstones(sh.tombstones, ts)
		sh.mu.Unlock()
	}
}

// ringLocked returns the ring a sample of t stamped ts goes to, creating it
// on the target's first sample, or nil when the sample is a late one of a
// removed target. Callers hold sh.mu for writing.
//
//powerapi:hotpath
func (sh *storeShard) ringLocked(t target.Target, ts time.Duration, capacity int) *ring {
	if t.Kind == target.KindProcess {
		return ringIn(sh.procs, sh.procTombs, t.PID, ts, capacity)
	}
	return ringIn(sh.rings, sh.tombstones, t, ts, capacity)
}

// ringIn is ringLocked over one pair of ring and tombstone maps.
//
//powerapi:hotpath
func ringIn[K comparable](rings map[K]*ring, tombstones map[K]time.Duration, key K, ts time.Duration, capacity int) *ring {
	if cutoff, ok := tombstones[key]; ok {
		if ts <= cutoff {
			return nil // late sample of a removed target
		}
		delete(tombstones, key) // the target is genuinely back
	}
	r, ok := rings[key]
	if !ok {
		//powerapi:allow hotpath one ring per target lifetime, not per round
		r = &ring{capacity: capacity}
		rings[key] = r
	}
	return r
}

// pruneTombstones drops the tombstones older than a round stamped ts: no
// later sample can match them.
//
//powerapi:hotpath
func pruneTombstones[K comparable](tombstones map[K]time.Duration, ts time.Duration) {
	for key, cutoff := range tombstones {
		if cutoff < ts {
			delete(tombstones, key)
		}
	}
}

// Remove drops every retained sample of one target and ignores any late
// in-flight sample stamped at or before cutoff (the last round the target
// could have appeared in). The monitoring pipeline calls it when a target is
// detached (or a process leaves its monitored cgroup), so a long-lived
// daemon's store stays bounded by the live target set instead of
// accumulating rings for every PID that ever existed.
func (s *Store) Remove(t target.Target, cutoff time.Duration) {
	sh := s.shardFor(t)
	sh.mu.Lock()
	sh.removeLocked(t, cutoff)
	sh.mu.Unlock()
}

// RemoveSubtree removes every cgroup target inside the subtree rooted at
// root (the root itself and its descendants): detaching a cgroup target must
// forget the nested groups the hierarchical rollup recorded alongside it.
// Subtree groups that are still monitored in their own right repopulate from
// the next round.
func (s *Store) RemoveSubtree(root string, cutoff time.Duration) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for t := range sh.all() {
			if t.Kind == target.KindCgroup && cgroup.InSubtree(t.Path, root) {
				sh.removeLocked(t, cutoff)
			}
		}
		sh.mu.Unlock()
	}
}

func (sh *storeShard) removeLocked(t target.Target, cutoff time.Duration) {
	if t.Kind == target.KindProcess {
		removeIn(sh.procs, sh.procTombs, t.PID, cutoff)
		return
	}
	removeIn(sh.rings, sh.tombstones, t, cutoff)
}

// removeIn is removeLocked over one pair of ring and tombstone maps.
func removeIn[K comparable](rings map[K]*ring, tombstones map[K]time.Duration, key K, cutoff time.Duration) {
	delete(rings, key)
	if cutoff >= tombstones[key] {
		tombstones[key] = cutoff
	}
}

// ring returns a target's ring, nil when it has none. Callers hold sh.mu.
func (sh *storeShard) ring(t target.Target) *ring {
	if t.Kind == target.KindProcess {
		return sh.procs[t.PID]
	}
	return sh.rings[t]
}

// all iterates every ring of the shard with its target, processes first.
// Callers hold sh.mu; the body may remove the target it is handed.
func (sh *storeShard) all() iter.Seq2[target.Target, *ring] {
	return func(yield func(target.Target, *ring) bool) {
		for pid, r := range sh.procs {
			if !yield(target.Process(pid), r) {
				return
			}
		}
		for t, r := range sh.rings {
			if !yield(t, r) {
				return
			}
		}
	}
}

// tombstoneCount returns how many removed targets still carry a tombstone
// across all shards (tests and diagnostics).
func (s *Store) tombstoneCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.procTombs) + len(sh.tombstones)
		sh.mu.RUnlock()
	}
	return n
}

// Occupancy reports how full the store is: the number of targets with
// retained samples and the total samples across their rings. The serving
// layer exposes both as gauges, so an operator can watch the ring memory a
// long-lived daemon actually holds against targets × Capacity.
func (s *Store) Occupancy() (targets, samples int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, r := range sh.all() {
			targets++
			samples += len(r.samples)
		}
		sh.mu.RUnlock()
	}
	return targets, samples
}

// Targets returns every target the store has retained samples for, sorted by
// their string form.
func (s *Store) Targets() []target.Target {
	// Each target's string form is built once, not in every comparison.
	type keyed struct {
		key string
		t   target.Target
	}
	var all []keyed
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for t := range sh.all() {
			all = append(all, keyed{key: t.String(), t: t})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	out := make([]target.Target, len(all))
	for i, k := range all {
		out[i] = k.t
	}
	return out
}

// Samples returns a copy of the retained samples of one target, oldest first.
func (s *Store) Samples(t target.Target) []Sample {
	sh := s.shardFor(t)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.ring(t)
	if r == nil {
		return nil
	}
	return r.snapshot(make([]Sample, 0, len(r.samples)))
}

// Query selects and aggregates retained samples. The zero value aggregates
// everything the store retains.
type Query struct {
	// From/To bound the time range (inclusive). A zero To means "no upper
	// bound"; a zero From means "from the oldest retained sample".
	From time.Duration `json:"from,omitempty"`
	To   time.Duration `json:"to,omitempty"`
	// Targets restricts the result to an explicit target set (empty: all).
	Targets []target.Target `json:"targets,omitempty"`
	// Kinds restricts the result to the given target kinds (empty: all).
	Kinds []target.Kind `json:"kinds,omitempty"`
	// CgroupSubtree keeps only cgroup targets inside the given subtree (the
	// path itself and its descendants). Process and machine targets are
	// excluded when it is set.
	CgroupSubtree string `json:"cgroupSubtree,omitempty"`
	// MinWatts excludes targets whose average watts over the selected window
	// fall below this threshold.
	MinWatts float64 `json:"minWatts,omitempty"`
}

// Stats is the windowed aggregate of one target's retained samples.
type Stats struct {
	// Target is the subject of the row.
	Target target.Target `json:"target"`
	// Samples is how many retained samples fell inside the window.
	Samples int `json:"samples"`
	// First/Last are the window's observed bounds.
	First time.Duration `json:"first"`
	Last  time.Duration `json:"last"`
	// AvgWatts / MaxWatts / P95Watts aggregate the window; LastWatts is the
	// most recent sample inside it.
	AvgWatts  float64 `json:"avgWatts"`
	MaxWatts  float64 `json:"maxWatts"`
	P95Watts  float64 `json:"p95Watts"`
	LastWatts float64 `json:"lastWatts"`
}

// Query aggregates the retained samples matching q, one Stats row per target,
// sorted by target. Targets with no sample in the window are omitted.
func (s *Store) Query(q Query) ([]Stats, error) {
	if q.To != 0 && q.To < q.From {
		return nil, fmt.Errorf("history: query range inverted (from %v, to %v)", q.From, q.To)
	}
	if q.MinWatts < 0 {
		return nil, fmt.Errorf("history: min-watts must not be negative, got %g", q.MinWatts)
	}
	if q.CgroupSubtree != "" {
		if err := cgroup.ValidatePath(q.CgroupSubtree); err != nil {
			return nil, fmt.Errorf("history: query cgroup subtree: %w", err)
		}
	}
	var targetSet map[target.Target]bool
	if len(q.Targets) > 0 {
		targetSet = make(map[target.Target]bool, len(q.Targets))
		for _, t := range q.Targets {
			if !t.Valid() {
				return nil, fmt.Errorf("history: invalid query target %v", t)
			}
			targetSet[t] = true
		}
	}
	var kindSet map[target.Kind]bool
	if len(q.Kinds) > 0 {
		kindSet = make(map[target.Kind]bool, len(q.Kinds))
		for _, k := range q.Kinds {
			kindSet[k] = true
		}
	}

	// The snapshot is taken shard by shard: a round being recorded concurrently
	// may be cut between shards, but each target's series is consistent.
	type entry struct {
		key     string // t.String(), built once for the sort
		t       target.Target
		samples []Sample
	}
	var entries []entry
	scratch := make([]Sample, 0, s.capacity)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for t, r := range sh.all() {
			if targetSet != nil && !targetSet[t] {
				continue
			}
			if kindSet != nil && !kindSet[t.Kind] {
				continue
			}
			if q.CgroupSubtree != "" {
				if t.Kind != target.KindCgroup || !cgroup.InSubtree(t.Path, q.CgroupSubtree) {
					continue
				}
			}
			scratch = r.snapshot(scratch[:0])
			selected := make([]Sample, 0, len(scratch))
			for _, sm := range scratch {
				if sm.Timestamp < q.From {
					continue
				}
				if q.To != 0 && sm.Timestamp > q.To {
					continue
				}
				selected = append(selected, sm)
			}
			if len(selected) > 0 {
				entries = append(entries, entry{key: t.String(), t: t, samples: selected})
			}
		}
		sh.mu.RUnlock()
	}

	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	out := make([]Stats, 0, len(entries))
	for _, e := range entries {
		st := aggregate(e.t, e.samples)
		if st.AvgWatts < q.MinWatts {
			continue
		}
		out = append(out, st)
	}
	return out, nil
}

// aggregate computes the Stats row of one target's in-window samples (which
// must be non-empty and sorted by timestamp, as rings retain them).
func aggregate(t target.Target, samples []Sample) Stats {
	st := Stats{
		Target:  t,
		Samples: len(samples),
		First:   samples[0].Timestamp,
		Last:    samples[len(samples)-1].Timestamp,
		MaxWatts: func() float64 {
			max := math.Inf(-1)
			for _, s := range samples {
				if s.Watts > max {
					max = s.Watts
				}
			}
			return max
		}(),
		LastWatts: samples[len(samples)-1].Watts,
	}
	sum := 0.0
	watts := make([]float64, len(samples))
	for i, s := range samples {
		sum += s.Watts
		watts[i] = s.Watts
	}
	st.AvgWatts = sum / float64(len(samples))
	sort.Float64s(watts)
	st.P95Watts = percentile(watts, 0.95)
	return st
}

// percentile returns the p-quantile of sorted values using the
// nearest-rank method (p in (0,1]).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// ErrDisabled is returned by consumers that query a monitor without a
// configured history store.
var ErrDisabled = errors.New("history: retention disabled (enable it with WithHistory)")
