package core

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"powerapi/internal/source"
	"powerapi/internal/target"
)

// TestAttachDetachConcurrentWithCollect runs membership changes on four
// goroutines, each toggling its own seeded PIDs, while the main goroutine
// advances the machine and collects rounds on a 4-shard pipeline. Attach and
// Detach are direct calls on the shards, serialised with their ticks only by
// the shard lock: every round must still conserve its attribution, and once
// the churn stops the slot index holds exactly the attached PIDs.
func TestAttachDetachConcurrentWithCollect(t *testing.T) {
	const (
		workers    = 4
		perWorker  = 16
		opsPerPass = 40
	)
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	rng := rand.New(rand.NewSource(17))
	owned := make([][]int, workers)
	for w := range owned {
		for i := 0; i < perWorker; i++ {
			owned[w] = append(owned[w], spawnLevels(t, m, 0.1+0.8*rng.Float64())[0])
		}
	}

	var wg sync.WaitGroup
	attached := make([]map[int]bool, workers)
	errs := make(chan error, workers)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		attached[w] = make(map[int]bool)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < opsPerPass; i++ {
					pid := owned[w][r.Intn(perWorker)]
					var err error
					if attached[w][pid] {
						err = api.Detach(pid)
						delete(attached[w], pid)
					} else {
						err = api.Attach(pid)
						attached[w][pid] = true
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}

	for round := 0; round < 30; round++ {
		if _, err := m.Run(m.Tick()); err != nil {
			t.Fatal(err)
		}
		r, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		checkConserved(t, round, r)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	want := 0
	for _, set := range attached {
		want += len(set)
	}
	if live := api.Stats().SlotsLive; live != want {
		t.Fatalf("slots_live = %d after the churn, want %d attached PIDs", live, want)
	}
	if got := len(api.Monitored()); got != want {
		t.Fatalf("Monitored() holds %d PIDs, want %d", got, want)
	}
	if _, err := m.Run(m.Tick()); err != nil {
		t.Fatal(err)
	}
	r, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, -1, r)
	if len(r.PerPID) != want {
		t.Fatalf("final round attributes %d PIDs, want %d", len(r.PerPID), want)
	}
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline errors: %d, last %v", api.ErrorCount(), api.LastError())
	}
}

// checkConserved fails unless the round's per-PID watts re-add to its active
// power and its total is idle plus active, both to 1e-6.
func checkConserved(t *testing.T, round int, r AggregatedReport) {
	t.Helper()
	sum := 0.0
	for _, watts := range r.PerPID {
		sum += watts
	}
	tol := 1e-6 * math.Max(1, r.ActiveWatts)
	if math.Abs(sum-r.ActiveWatts) > tol {
		t.Fatalf("round %d: sum(PerPID) = %v, ActiveWatts = %v", round, sum, r.ActiveWatts)
	}
	if math.Abs(r.TotalWatts-(r.IdleWatts+r.ActiveWatts)) > tol {
		t.Fatalf("round %d: TotalWatts %v != IdleWatts %v + ActiveWatts %v", round, r.TotalWatts, r.IdleWatts, r.ActiveWatts)
	}
}

// panickyAddSource is a counter source whose Add panics for one PID.
type panickyAddSource struct {
	*source.HPC
	poison int
}

func (s panickyAddSource) Add(t target.Target) error {
	if t.PID == s.poison {
		panic("poisoned pid")
	}
	return s.HPC.Add(t)
}

// TestAttachSourcePanicFailsTheCall pins what a panicking custom source does
// to the caller: the attach runs on the caller's goroutine, so the panic must
// come back promptly as the call's error — not hang until a timeout — count
// as one pipeline error, leak no slot and leave the pipeline collecting.
func TestAttachSourcePanicFailsTheCall(t *testing.T) {
	m := newTestMachine(t)
	pids := spawnLevels(t, m, 0.6, 0.4)
	good, poison := pids[0], pids[1]
	api, err := New(m, testModel(), WithShards(2), WithSourceFactories(SourceFactories{
		Attribution: func(int) (source.Source, error) {
			events, err := testModel().Events()
			if err != nil {
				return nil, err
			}
			hpcSrc, err := source.NewHPC(m, events)
			if err != nil {
				return nil, err
			}
			return panickyAddSource{HPC: hpcSrc, poison: poison}, nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := api.Attach(good); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = api.Attach(poison)
	if elapsed := time.Since(start); elapsed > api.CollectTimeout()/10 {
		t.Fatalf("attach with a panicking source took %v", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "poisoned pid") {
		t.Fatalf("attach with a panicking source = %v, want the panic as an error", err)
	}
	if n := api.ErrorCount(); n != 1 {
		t.Fatalf("ErrorCount = %d after one source panic, want 1", n)
	}
	if live := api.Stats().SlotsLive; live != 1 {
		t.Fatalf("slots_live = %d, want 1 (the poisoned attach must give its slot back)", live)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.PerPID[poison]; ok || r.PerPID[good] <= 0 || len(r.PerPID) != 1 {
		t.Fatalf("round after the panic attributes %v, want only pid %d", r.PerPID, good)
	}
}

// TestAttachDetachAllocationFree pins the single-PID membership path: once
// a PID's map entries exist, attaching and detaching it again allocates
// nothing — no reply channel, timer or argument slice.
func TestAttachDetachAllocationFree(t *testing.T) {
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pid := spawnLevels(t, m, 0.5)[0]
	cycle := func() {
		if err := api.Attach(pid); err != nil {
			t.Fatal(err)
		}
		if err := api.Detach(pid); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("Attach+Detach of a known PID allocates %v times, want 0", allocs)
	}
}
