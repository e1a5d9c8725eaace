package cgroup

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// pruneModel drives a hierarchy and a reference side by side through a
// sequence of operations over a small PID space. Each PID is never spawned,
// alive or dead; a kill appends it to an exit journal, and every prune hands
// the hierarchy the journal entries since the previous prune. The reference
// is a plain pid → path map pruned by a full walk, the behaviour Prune must
// reproduce while checking only the PIDs placed since the last prune and the
// exited ones.
type pruneModel struct {
	t       *testing.T
	h       *Hierarchy
	ref     map[int]string
	state   []byte // per PID: 0 never spawned, 1 alive, 2 dead
	journal []int
	cursor  int
}

var pruneModelPaths = []string{"web", "web/api", "web/api/v2", "db", "db/replica", "cache"}

const pruneModelPIDs = 24

func newPruneModel(t *testing.T) *pruneModel {
	return &pruneModel{
		t:     t,
		h:     NewHierarchy(),
		ref:   make(map[int]string),
		state: make([]byte, pruneModelPIDs+1),
	}
}

// step applies one operation decoded from two bytes: the low bits of op pick
// the operation, arg picks its PID and path.
func (m *pruneModel) step(op, arg byte) {
	t := m.t
	t.Helper()
	pid := 1 + int(arg)%pruneModelPIDs
	path := pruneModelPaths[int(arg>>5)%len(pruneModelPaths)]
	switch op % 8 {
	case 0, 1: // place or move, whatever the PID's state
		if err := m.h.Add(path, pid); err != nil {
			t.Fatalf("Add(%q, %d): %v", path, pid, err)
		}
		m.ref[pid] = path
	case 2:
		_, member := m.ref[pid]
		if err := m.h.Leave(pid); (err == nil) != member {
			t.Fatalf("Leave(%d) = %v with member=%v", pid, err, member)
		}
		delete(m.ref, pid)
	case 3:
		if m.state[pid] == 0 {
			m.state[pid] = 1
		}
	case 4:
		if m.state[pid] == 1 {
			m.state[pid] = 2
			m.journal = append(m.journal, pid)
		}
	case 5:
		_ = m.h.Delete(path) // fails unless empty and childless; membership is unchanged either way
	case 6:
		if err := m.h.Create(path); err != nil {
			t.Fatalf("Create(%q): %v", path, err)
		}
	default:
		m.prune()
	}
	m.checkPending()
}

// prune runs Prune against a full-walk prune of the reference and checks
// the removed PIDs, the resulting membership and the number of alive calls.
func (m *pruneModel) prune() {
	t := m.t
	t.Helper()
	exited := m.journal[m.cursor:]
	m.cursor = len(m.journal)
	budget := len(m.h.pending) + len(exited)
	calls := 0
	removed := m.h.Prune(func(pid int) bool {
		calls++
		return pid >= 1 && pid <= pruneModelPIDs && m.state[pid] == 1
	}, exited)
	if calls > budget {
		t.Fatalf("Prune made %d alive calls, more than %d pending + exited", calls, budget)
	}
	var want []int
	for pid := range m.ref {
		if m.state[pid] != 1 {
			want = append(want, pid)
			delete(m.ref, pid)
		}
	}
	sort.Ints(want)
	if !reflect.DeepEqual(removed, want) {
		t.Fatalf("Prune removed %v, full walk removes %v", removed, want)
	}
	if len(m.h.pending) != 0 {
		t.Fatalf("pending after Prune = %v", m.h.pending)
	}
	got := make(map[int]string, len(m.h.leaf))
	for pid, pl := range m.h.leaf {
		got[pid] = pl.path
	}
	if !reflect.DeepEqual(got, m.ref) {
		t.Fatalf("members after Prune = %v, reference %v", got, m.ref)
	}
}

// checkPending checks the pending set's bookkeeping: no larger than the
// membership, every entry a member whose placement points back at it, and
// every member marked pending listed.
func (m *pruneModel) checkPending() {
	t := m.t
	t.Helper()
	h := m.h
	if len(h.pending) > len(h.leaf) {
		t.Fatalf("%d pending PIDs for %d members", len(h.pending), len(h.leaf))
	}
	for i, pid := range h.pending {
		if pl, ok := h.leaf[pid]; !ok || pl.pending != i+1 {
			t.Fatalf("pending[%d] = %d, its placement %+v (member=%v)", i, pid, pl, ok)
		}
	}
	for pid, pl := range h.leaf {
		if pl.pending != 0 && (pl.pending > len(h.pending) || h.pending[pl.pending-1] != pid) {
			t.Fatalf("pid %d marked pending at %d, pending = %v", pid, pl.pending, h.pending)
		}
	}
}

func (m *pruneModel) run(ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		m.step(ops[i], ops[i+1])
	}
	m.prune()
}

// TestPruneMatchesFullWalk runs seeded operation sequences (places, moves,
// leaves, deletes, spawns, kills and prunes, including PIDs placed while dead
// and PIDs never spawned) and checks every prune against a full walk.
func TestPruneMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*600)
		rng.Read(ops)
		newPruneModel(t).run(ops)
	}
}

// TestPruneChecksOnlyChanges places many PIDs once, then runs rounds that
// each place a few and kill a few: after the first prune, every prune's
// alive calls are bounded by that round's changes, not the member count.
func TestPruneChecksOnlyChanges(t *testing.T) {
	h := NewHierarchy()
	alive := make(map[int]bool)
	for pid := 1; pid <= 5000; pid++ {
		alive[pid] = true
		if err := h.Add(pruneModelPaths[pid%len(pruneModelPaths)], pid); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	check := func(pid int) bool { calls++; return alive[pid] }
	h.Prune(check, nil)
	if calls != 5000 {
		t.Fatalf("first Prune made %d alive calls, want one per placed PID", calls)
	}
	next := 5001
	for round := 0; round < 20; round++ {
		var exited []int
		for i := 0; i < 5; i++ {
			victim := 1 + round*5 + i
			alive[victim] = false
			exited = append(exited, victim)
			alive[next] = true
			if err := h.Add("web", next); err != nil {
				t.Fatal(err)
			}
			next++
		}
		calls = 0
		removed := h.Prune(check, exited)
		if calls != 10 {
			t.Fatalf("round %d: Prune made %d alive calls, want 5 placed + 5 exited", round, calls)
		}
		if !reflect.DeepEqual(removed, exited) {
			t.Fatalf("round %d: Prune removed %v, want %v", round, removed, exited)
		}
	}
}

// FuzzHierarchyPrune is the stateful form of TestPruneMatchesFullWalk: the
// input is the operation sequence, two bytes an operation.
func FuzzHierarchyPrune(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 7, 0, 3, 1, 0, 1, 4, 1, 7, 0})              // placed before spawn, spawned, killed
	f.Add([]byte{3, 2, 0, 2, 7, 0, 4, 2, 0, 66, 2, 2, 0, 2, 7, 0}) // checked alive, killed, moved, left, re-placed
	f.Add([]byte{3, 5, 4, 5, 0, 5, 0, 37, 2, 5, 0, 5, 7, 0, 5, 37})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		newPruneModel(t).run(ops)
	})
}
