package proc

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestExitJournalRecordsKillAndReap checks that the journal lists every exit
// once, in order, whether a Kill or a Reap made it, and that a cursor reads
// only the exits after it.
func TestExitJournalRecordsKillAndReap(t *testing.T) {
	table := NewTable()
	short, _ := table.Spawn(mustCPUStress(t, 0.5, 2*time.Second), 0)
	a, _ := table.Spawn(mustCPUStress(t, 0.5, 0), 0)
	b, _ := table.Spawn(mustCPUStress(t, 0.5, 0), 0)

	if got, n := table.ExitedSince(0, nil); len(got) != 0 || n != 0 {
		t.Fatalf("ExitedSince(0) on a fresh table = %v, %d", got, n)
	}
	if err := table.Kill(b.PID(), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := table.Kill(b.PID(), 2*time.Second); err != nil { // no second entry
		t.Fatal(err)
	}
	got, cursor := table.ExitedSince(0, nil)
	if !reflect.DeepEqual(got, []int{b.PID()}) || cursor != 1 {
		t.Fatalf("after one kill (twice): ExitedSince(0) = %v, %d", got, cursor)
	}

	table.Reap(3 * time.Second)
	if err := table.Kill(a.PID(), 4*time.Second); err != nil {
		t.Fatal(err)
	}
	table.Reap(5 * time.Second) // nothing left to reap: no duplicate of short
	got, next := table.ExitedSince(cursor, nil)
	if want := []int{short.PID(), a.PID()}; !reflect.DeepEqual(got, want) || next != 3 {
		t.Fatalf("ExitedSince(%d) = %v, %d; want %v, 3", cursor, got, next, want)
	}
	if table.Exits() != next {
		t.Fatalf("Exits() = %d, journal length %d", table.Exits(), next)
	}
	all, _ := table.ExitedSince(0, []int{-1})
	if want := []int{-1, b.PID(), short.PID(), a.PID()}; !reflect.DeepEqual(all, want) {
		t.Fatalf("ExitedSince(0, dst) = %v, want %v (appended to dst)", all, want)
	}
	if got, n := table.ExitedSince(next, nil); len(got) != 0 || n != next {
		t.Fatalf("ExitedSince at the end = %v, %d", got, n)
	}
	if got, n := table.ExitedSince(next+10, nil); len(got) != 0 || n != next {
		t.Fatalf("ExitedSince past the end = %v, %d; want nothing and %d", got, n, next)
	}
	if table.Spawned() != 3 {
		t.Fatalf("Spawned() = %d, want 3", table.Spawned())
	}
}

// TestExitJournalConcurrentReaders kills and reaps processes from several
// goroutines while readers follow the journal with cursors; run it with
// -race. Every reader must see each exit exactly once, and only after the
// process's state says it exited.
func TestExitJournalConcurrentReaders(t *testing.T) {
	const procs, killers, readers = 400, 3, 3
	table := NewTable()
	pids := make([]int, procs)
	for i := range pids {
		life := time.Duration(0)
		if i%4 == 0 {
			life = time.Second // reaped instead of killed
		}
		p, err := table.Spawn(mustCPUStress(t, 0.5, life), 0)
		if err != nil {
			t.Fatal(err)
		}
		pids[i] = p.PID()
	}
	var wg sync.WaitGroup
	for k := 0; k < killers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, pid := range pids {
				if i%4 != 0 && i%killers == k {
					_ = table.Kill(pid, time.Second)
				}
				if i%50 == 0 {
					table.Reap(2 * time.Second)
				}
			}
		}()
	}
	done := make(chan struct{})
	seen := make([]map[int]int, readers)
	var rwg sync.WaitGroup
	for r := range seen {
		seen[r] = make(map[int]int)
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var cursor uint64
			var buf []int
			read := func() {
				buf, cursor = table.ExitedSince(cursor, buf[:0])
				for _, pid := range buf {
					seen[r][pid]++
					if p, err := table.Get(pid); err != nil || p.State() != StateExited {
						t.Errorf("journal lists pid %d before it exited", pid)
					}
				}
			}
			for {
				select {
				case <-done:
					read()
					return
				default:
					read()
				}
			}
		}()
	}
	wg.Wait()
	table.Reap(2 * time.Second)
	close(done)
	rwg.Wait()
	for r, got := range seen {
		if len(got) != procs {
			t.Fatalf("reader %d saw %d distinct exits, want %d", r, len(got), procs)
		}
		for pid, n := range got {
			if n != 1 {
				t.Fatalf("reader %d saw pid %d %d times", r, pid, n)
			}
		}
	}
	if table.Exits() != procs {
		t.Fatalf("Exits() = %d, want %d", table.Exits(), procs)
	}
}
