package history

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/target"
)

// refStore is the reference model of a Store: one unsharded map keyed by
// target, whatever its kind, with the Store's capacity, tombstone and
// pruning rules written out directly.
type refStore struct {
	capacity   int
	rings      map[target.Target][]Sample
	tombstones map[target.Target]time.Duration
}

func newRefStore(capacity int) *refStore {
	return &refStore{
		capacity:   capacity,
		rings:      make(map[target.Target][]Sample),
		tombstones: make(map[target.Target]time.Duration),
	}
}

func (r *refStore) record(t target.Target, ts time.Duration, watts float64) {
	if cutoff, ok := r.tombstones[t]; ok {
		if ts <= cutoff {
			return
		}
		delete(r.tombstones, t)
	}
	samples := append(r.rings[t], Sample{Timestamp: ts, Watts: watts})
	if len(samples) > r.capacity {
		samples = samples[len(samples)-r.capacity:]
	}
	r.rings[t] = samples
}

func (r *refStore) recordBatch(ts time.Duration, batch []TargetSample) {
	for _, sm := range batch {
		r.record(sm.Target, ts, sm.Watts)
	}
	for t, cutoff := range r.tombstones {
		if cutoff < ts {
			delete(r.tombstones, t)
		}
	}
}

func (r *refStore) remove(t target.Target, cutoff time.Duration) {
	delete(r.rings, t)
	if cutoff >= r.tombstones[t] {
		r.tombstones[t] = cutoff
	}
}

func (r *refStore) removeSubtree(root string, cutoff time.Duration) {
	for t := range r.rings {
		if t.Kind == target.KindCgroup && cgroup.InSubtree(t.Path, root) {
			r.remove(t, cutoff)
		}
	}
}

// targets lists the model's targets in string order.
func (r *refStore) targets() []target.Target {
	out := make([]target.Target, 0, len(r.rings))
	for t := range r.rings {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// query applies q's filters target by target, in string order.
func (r *refStore) query(q Query) []Stats {
	out := []Stats{}
	for _, t := range r.targets() {
		if len(q.Targets) > 0 && !containsTarget(q.Targets, t) {
			continue
		}
		if len(q.Kinds) > 0 && !containsKind(q.Kinds, t.Kind) {
			continue
		}
		if q.CgroupSubtree != "" && (t.Kind != target.KindCgroup || !cgroup.InSubtree(t.Path, q.CgroupSubtree)) {
			continue
		}
		var in []Sample
		for _, sm := range r.rings[t] {
			if sm.Timestamp >= q.From && (q.To == 0 || sm.Timestamp <= q.To) {
				in = append(in, sm)
			}
		}
		if len(in) == 0 {
			continue
		}
		if st := aggregate(t, in); st.AvgWatts >= q.MinWatts {
			out = append(out, st)
		}
	}
	return out
}

func containsTarget(ts []target.Target, t target.Target) bool {
	for _, c := range ts {
		if c == t {
			return true
		}
	}
	return false
}

func containsKind(ks []target.Kind, k target.Kind) bool {
	for _, c := range ks {
		if c == k {
			return true
		}
	}
	return false
}

// TestStoreMatchesReferenceModel drives a Store and the reference model
// through one seeded operation sequence over process, cgroup, VM and machine
// targets — Record, RecordBatch, Remove (with late samples that must be
// dropped, and re-attaches), RemoveSubtree — and compares Targets, Samples,
// Occupancy and a set of filtered Queries after every operation.
func TestStoreMatchesReferenceModel(t *testing.T) {
	const capacity = 5
	rng := rand.New(rand.NewSource(11))
	var pool []target.Target
	for pid := 1; pid <= 40; pid++ {
		pool = append(pool, target.Process(pid))
	}
	for _, path := range []string{"web", "web/api", "web/api/v2", "webapp", "db", "db/replica"} {
		pool = append(pool, target.Cgroup(path))
	}
	pool = append(pool, target.VM("vm-a"), target.VM("vm-b"), target.Machine())

	s := NewStore(capacity)
	ref := newRefStore(capacity)
	now := 0 // the last round recorded, in seconds
	var batch []TargetSample
	for step := 0; step < 800; step++ {
		switch op := rng.Intn(20); {
		case op < 10: // one round for a random subset
			now++
			batch = batch[:0]
			for _, tg := range pool {
				if rng.Intn(3) > 0 {
					batch = append(batch, TargetSample{Target: tg, Watts: float64(rng.Intn(1000)) / 10})
				}
			}
			s.RecordBatch(seconds(now), batch)
			ref.recordBatch(seconds(now), batch)
		case op < 13: // a single sample, sometimes late (at or before now)
			tg := pool[rng.Intn(len(pool))]
			ts := now - rng.Intn(3) + 1
			w := float64(rng.Intn(1000)) / 10
			s.Record(tg, seconds(ts), w)
			ref.record(tg, seconds(ts), w)
		case op < 17: // detach with the last collected round as cutoff
			tg := pool[rng.Intn(len(pool))]
			s.Remove(tg, seconds(now))
			ref.remove(tg, seconds(now))
		default:
			root := []string{"web", "web/api", "db", "nope"}[rng.Intn(4)]
			s.RemoveSubtree(root, seconds(now))
			ref.removeSubtree(root, seconds(now))
		}
		compareWithReference(t, step, s, ref, now)
	}
}

func compareWithReference(t *testing.T, step int, s *Store, ref *refStore, now int) {
	t.Helper()
	want := ref.targets()
	if got := s.Targets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: Targets() = %v, want %v", step, got, want)
	}
	wantSamples := 0
	for _, tg := range want {
		wantSamples += len(ref.rings[tg])
		if got := s.Samples(tg); !reflect.DeepEqual(got, ref.rings[tg]) {
			t.Fatalf("step %d: Samples(%v) = %v, want %v", step, tg, got, ref.rings[tg])
		}
	}
	if targets, samples := s.Occupancy(); targets != len(want) || samples != wantSamples {
		t.Fatalf("step %d: Occupancy() = (%d, %d), want (%d, %d)", step, targets, samples, len(want), wantSamples)
	}
	queries := []Query{
		{},
		{Kinds: []target.Kind{target.KindProcess}},
		{Kinds: []target.Kind{target.KindCgroup, target.KindVM}},
		{Targets: []target.Target{target.Process(3), target.Process(30), target.Cgroup("web"), target.Machine()}},
		{Targets: []target.Target{target.Process(7)}, Kinds: []target.Kind{target.KindProcess}},
		{CgroupSubtree: "web"},
		{From: seconds(now - 2), To: seconds(now - 1)},
		{MinWatts: 50},
	}
	for _, q := range queries {
		got, err := s.Query(q)
		if err != nil {
			t.Fatalf("step %d: Query(%+v): %v", step, q, err)
		}
		if wantStats := ref.query(q); !reflect.DeepEqual(got, wantStats) {
			t.Fatalf("step %d: Query(%+v) = %v, want %v", step, q, got, wantStats)
		}
	}
}

// TestTargetAndQueryOrder pins the result order of Targets and Query: the
// targets' string forms in byte order, so "pid:10" sorts before "pid:9".
func TestTargetAndQueryOrder(t *testing.T) {
	s := NewStore(4)
	s.RecordBatch(seconds(1), []TargetSample{
		{Target: target.Process(9), Watts: 1},
		{Target: target.VM("vm-a"), Watts: 1},
		{Target: target.Process(10), Watts: 1},
		{Target: target.Machine(), Watts: 1},
		{Target: target.Cgroup("web"), Watts: 1},
		{Target: target.Process(100), Watts: 1},
		{Target: target.Cgroup("db"), Watts: 1},
	})
	want := []target.Target{
		target.Cgroup("db"), target.Cgroup("web"), target.Machine(),
		target.Process(10), target.Process(100), target.Process(9), target.VM("vm-a"),
	}
	if got := s.Targets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Targets() = %v, want %v", got, want)
	}
	stats, err := s.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]target.Target, len(stats))
	for i, st := range stats {
		got[i] = st.Target
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Query order = %v, want %v", got, want)
	}
}

// TestRemoveSubtreeKeepsProcessRings checks that a subtree removal touches
// only cgroup rings: process rings keep every sample and take no tombstone.
func TestRemoveSubtreeKeepsProcessRings(t *testing.T) {
	s := NewStore(4)
	s.RecordBatch(seconds(1), []TargetSample{
		{Target: target.Process(1), Watts: 1},
		{Target: target.Process(2), Watts: 2},
		{Target: target.Cgroup("web"), Watts: 3},
	})
	s.RemoveSubtree("web", seconds(1))
	if got := s.tombstoneCount(); got != 1 {
		t.Fatalf("tombstoneCount = %d, want only the cgroup's", got)
	}
	for _, pid := range []int{1, 2} {
		if got := s.Samples(target.Process(pid)); len(got) != 1 || got[0].Watts != float64(pid) {
			t.Fatalf("process %d ring after RemoveSubtree = %v", pid, got)
		}
	}
}

// hostRound builds one round of the benchmark host's shape: the machine
// total, processes PIDs 1..procs and cgroups groups.
func hostRound(procs, groups int) []TargetSample {
	batch := make([]TargetSample, 0, 1+procs+groups)
	batch = append(batch, TargetSample{Target: target.Machine(), Watts: 100})
	for pid := 1; pid <= procs; pid++ {
		batch = append(batch, TargetSample{Target: target.Process(pid), Watts: float64(pid%97) / 10})
	}
	for g := 0; g < groups; g++ {
		batch = append(batch, TargetSample{Target: target.Cgroup(fmt.Sprintf("cg-%02d", g)), Watts: float64(g)})
	}
	return batch
}

// TestRecordBatchSteadyStateAllocFree checks that once every ring is full, a
// round written through RecordBatch makes no allocation.
func TestRecordBatchSteadyStateAllocFree(t *testing.T) {
	const capacity = 4
	s := NewStore(capacity)
	batch := hostRound(1000, 20)
	round := 0
	for ; round <= capacity; round++ {
		s.RecordBatch(seconds(round), batch)
	}
	allocs := testing.AllocsPerRun(50, func() {
		round++
		s.RecordBatch(seconds(round), batch)
	})
	if allocs != 0 {
		t.Fatalf("steady-state RecordBatch allocated %.1f times per round, want 0", allocs)
	}
}

// BenchmarkRecordBatch times one round of 10k processes and 100 cgroups into
// a store of capacity 16, every ring already full.
func BenchmarkRecordBatch(b *testing.B) {
	const capacity = 16
	s := NewStore(capacity)
	batch := hostRound(10_000, 100)
	round := 0
	for ; round <= capacity; round++ {
		s.RecordBatch(seconds(round), batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round++
		s.RecordBatch(seconds(round), batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(batch)), "ns/sample")
}
