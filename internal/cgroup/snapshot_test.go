package cgroup

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestGenerationMovesOnEveryChange checks that every mutator that changes
// membership or shape moves the generation, and that reads, an Add to the
// PID's current leaf and a Create of an existing group do not.
func TestGenerationMovesOnEveryChange(t *testing.T) {
	h := NewHierarchy()
	step := func(name string, wantMove bool, op func() error) {
		t.Helper()
		before := h.Generation()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := h.Generation()
		if moved := after != before; moved != wantMove {
			t.Fatalf("%s: generation %d → %d, want moved=%v", name, before, after, wantMove)
		}
	}
	read := func(name string, op func()) {
		t.Helper()
		step(name, false, func() error { op(); return nil })
	}
	step("create new group", true, func() error { return h.Create("web/api") })
	step("create existing group", false, func() error { return h.Create("web/api") })
	step("create existing ancestor", false, func() error { return h.Create("web") })
	step("add places pid", true, func() error { return h.Add("web", 1) })
	step("add to current leaf", false, func() error { return h.Add("web", 1) })
	step("add moves pid", true, func() error { return h.Add("web/api", 1) })
	step("add into a new group", true, func() error { return h.Add("db", 2) })
	step("leave", true, func() error { return h.Leave(2) })
	step("prune removing nothing", false, func() error {
		if got := h.Prune(func(int) bool { return true }, nil); len(got) != 0 {
			return fmt.Errorf("pruned %v", got)
		}
		return nil
	})
	step("prune removing a pid", true, func() error {
		if got := h.Prune(func(pid int) bool { return pid != 1 }, []int{1}); !reflect.DeepEqual(got, []int{1}) {
			return fmt.Errorf("pruned %v, want [1]", got)
		}
		return nil
	})
	step("delete", true, func() error { return h.Delete("db") })
	step("failed delete", false, func() error {
		if err := h.Delete("web"); err == nil {
			return fmt.Errorf("deleting a group with children succeeded")
		}
		return nil
	})
	read("reads", func() {
		h.Exists("web")
		h.LeafOf(1)
		h.Members("web")
		h.MembersRecursive("web")
		h.Paths()
		h.Targets()
		h.Len()
		h.Snapshot()
	})
}

// TestSnapshotMatchesWalk drives a seeded sequence of mutations and checks,
// after every one, that the snapshot holds exactly the sorted paths and, for
// every path, the sorted recursive members a direct tree walk finds — and that
// an unchanged hierarchy hands out the same view.
func TestSnapshotMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	paths := []string{"web", "web/api", "web/api/v2", "web-x", "web-x/a", "db", "db/replica", "cache"}
	h := NewHierarchy()
	dead := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		pid := 1 + rng.Intn(60)
		path := paths[rng.Intn(len(paths))]
		switch op := rng.Intn(10); {
		case op < 5:
			_ = h.Add(path, pid)
		case op < 7:
			_ = h.Leave(pid)
		case op < 8:
			dead[pid] = true
			_ = h.Prune(func(p int) bool { return !dead[p] }, []int{pid})
		case op < 9:
			_ = h.Delete(path) // fails unless the group is empty and childless
		default:
			_ = h.Create(path)
		}
		snap := h.Snapshot()
		if snap.gen != h.Generation() {
			t.Fatalf("step %d: snapshot generation %d, hierarchy %d", i, snap.gen, h.Generation())
		}
		if again := h.Snapshot(); again != snap {
			t.Fatalf("step %d: an unchanged hierarchy rebuilt its snapshot", i)
		}
		want := walkPaths(h)
		if got := snap.Paths(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: snapshot paths %v, want %v", i, got, want)
		}
		for _, path := range snap.Paths() {
			want := walkRecursive(h, path)
			if got := snap.Recursive(path); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Recursive(%q) = %v, want %v", i, path, got, want)
			}
			if got := h.MembersRecursive(path); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: MembersRecursive(%q) = %v, want %v", i, path, got, want)
			}
		}
		if got := snap.Recursive("absent"); got != nil {
			t.Fatalf("step %d: Recursive(absent) = %v", i, got)
		}
	}
}

// TestMembersRecursiveIsACopy checks that a caller writing into the slice
// MembersRecursive returned cannot corrupt the shared snapshot.
func TestMembersRecursiveIsACopy(t *testing.T) {
	h := NewHierarchy()
	for _, pid := range []int{3, 1, 2} {
		if err := h.Add("web", pid); err != nil {
			t.Fatal(err)
		}
	}
	got := h.MembersRecursive("web")
	got[0] = 99
	if again := h.MembersRecursive("web"); !reflect.DeepEqual(again, []int{1, 2, 3}) {
		t.Fatalf("MembersRecursive after a caller write = %v", again)
	}
}

// TestSnapshotConcurrentReads runs snapshot readers against a mutating
// writer; run it with -race. Every view a reader gets must be internally
// consistent: sorted paths and, per path, sorted members without duplicates.
func TestSnapshotConcurrentReads(t *testing.T) {
	h := NewHierarchy()
	paths := []string{"web", "web/api", "db", "db/replica"}
	const readers, steps = 4, 2000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := h.Snapshot()
				ps := snap.Paths()
				for i := range ps {
					if i > 0 && ps[i-1] >= ps[i] {
						t.Errorf("snapshot paths out of order: %v", ps)
						return
					}
					members := snap.Recursive(ps[i])
					for k := 1; k < len(members); k++ {
						if members[k-1] >= members[k] {
							t.Errorf("members of %q not strictly sorted: %v", ps[i], members)
							return
						}
					}
				}
				h.MembersRecursive("web")
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < steps; i++ {
		pid := 1 + rng.Intn(40)
		if rng.Intn(3) == 0 {
			_ = h.Leave(pid)
		} else {
			_ = h.Add(paths[rng.Intn(len(paths))], pid)
		}
	}
	close(done)
	wg.Wait()
}

// walkPaths and walkRecursive read the hierarchy's tree directly, the
// reference the snapshot is checked against.
func walkPaths(h *Hierarchy) []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.groups))
	for path := range h.groups {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

func walkRecursive(h *Hierarchy, path string) []int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []int
	var walk func(*group)
	walk = func(g *group) {
		for pid := range g.members {
			out = append(out, pid)
		}
		for _, child := range g.children {
			walk(child)
		}
	}
	walk(h.groups[path])
	sort.Ints(out)
	return out
}
