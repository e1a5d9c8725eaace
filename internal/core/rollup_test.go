package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/target"
	"powerapi/internal/workload"
)

// TestCgroupRollupMatchesRecursiveMembers drives a seeded nested hierarchy
// through adds, moves, leaves, kills (pruned by the next Collect) and the
// creation and deletion of a nested group between rounds. Every round each
// group's PerCgroup figure and the cgroup-backed VM's PerVM figure must equal,
// bit for bit, the sum recomputed from MembersRecursive in sorted-PID order,
// and the top-level groups must conserve ActiveWatts.
func TestCgroupRollupMatchesRecursiveMembers(t *testing.T) {
	const rounds = 21
	rng := rand.New(rand.NewSource(5))
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	leaves := []string{"web", "web/api", "web/api/v2", "web-x", "db", "db/replica", "batch"}
	tops := []string{"web", "web-x", "db", "batch"}
	for _, path := range leaves {
		if err := h.Create(path); err != nil {
			t.Fatal(err)
		}
	}
	api, err := New(m, testModel(), WithShards(2), WithCgroups(h),
		WithVMs(VMDef{Name: "vm-web", CgroupPath: "web"}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)

	var members []int // PIDs placed in the hierarchy and still running
	spawn := func() {
		t.Helper()
		pid := spawnLevels(t, m, 0.1+0.8*rng.Float64())[0]
		if err := h.Add(leaves[rng.Intn(len(leaves))], pid); err != nil {
			t.Fatal(err)
		}
		members = append(members, pid)
	}
	pick := func() (int, int) {
		i := rng.Intn(len(members))
		return i, members[i]
	}
	drop := func(i int) { members = append(members[:i], members[i+1:]...) }
	for i := 0; i < 30; i++ {
		spawn()
	}
	targets := []target.Target{target.VM("vm-web")}
	for _, top := range tops {
		targets = append(targets, target.Cgroup(top))
	}
	if err := api.AttachTargets(targets...); err != nil {
		t.Fatal(err)
	}

	// One kind of change per round, so a mutator that left the hierarchy's
	// snapshot stale would show in that round's rollup.
	for round := 0; round < rounds; round++ {
		switch round % 5 {
		case 1: // add
			spawn()
		case 2: // move
			_, pid := pick()
			if err := h.Add(leaves[rng.Intn(len(leaves))], pid); err != nil {
				t.Fatal(err)
			}
		case 3: // leave
			i, pid := pick()
			if err := h.Leave(pid); err != nil {
				t.Fatal(err)
			}
			drop(i)
		case 4: // kill, pruned by the next Collect
			i, pid := pick()
			if err := m.Kill(pid); err != nil {
				t.Fatal(err)
			}
			drop(i)
		case 0: // create a nested group holding one member, or delete it
			const nested = "batch/tmp"
			if round == 0 {
				break
			}
			if h.Exists(nested) {
				for _, pid := range h.Members(nested) {
					if err := h.Add("batch", pid); err != nil {
						t.Fatal(err)
					}
				}
				if err := h.Delete(nested); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := h.Create(nested); err != nil {
					t.Fatal(err)
				}
				_, pid := pick()
				if err := h.Add(nested, pid); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		r, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.PerPID) != len(members) {
			t.Fatalf("round %d: %d PIDs attributed, want the %d running members", round, len(r.PerPID), len(members))
		}
		sumOf := func(path string) (float64, bool) {
			sum, counted := 0.0, false
			for _, pid := range h.MembersRecursive(path) {
				if watts, ok := r.PerPID[pid]; ok {
					sum += watts
					counted = true
				}
			}
			return sum, counted
		}
		paths := h.Paths()
		groups := 0
		for _, path := range paths {
			want, counted := sumOf(path)
			got, ok := r.PerCgroup[path]
			if ok != counted || got != want {
				t.Fatalf("round %d: PerCgroup[%q] = %v (present %v), want %v (present %v)", round, path, got, ok, want, counted)
			}
			if ok {
				groups++
			}
		}
		if len(r.PerCgroup) != groups {
			t.Fatalf("round %d: PerCgroup has %d rows, hierarchy yields %d: %v", round, len(r.PerCgroup), groups, r.PerCgroup)
		}
		if want, _ := sumOf("web"); r.PerVM["vm-web"] != want {
			t.Fatalf("round %d: PerVM[vm-web] = %v, want %v", round, r.PerVM["vm-web"], want)
		}
		top := 0.0
		for _, path := range tops {
			top += r.PerCgroup[path]
		}
		if math.Abs(top-r.ActiveWatts) > 1e-6 {
			t.Fatalf("round %d: top-level groups sum to %.9f, ActiveWatts %.9f", round, top, r.ActiveWatts)
		}
	}
}

// TestHostRoundAllocationBudget runs the configuration of the repository
// benchmark's host workloads — 10k processes spread over 100 cgroups,
// retained history of capacity 16, 2 shards — and caps its steady-state
// allocations per round. The rollup reads the hierarchy's cached snapshot and
// the history writer records into full PID-keyed rings, so neither allocates
// per round; walking the hierarchy every round cost ~950 allocations.
func TestHostRoundAllocationBudget(t *testing.T) {
	const (
		processes   = 10_000
		groups      = 100
		capacity    = 16
		warmup      = capacity + 4 // every history ring full
		measured    = 10
		allocBudget = 150.0
	)
	rng := rand.New(rand.NewSource(1))
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	api, err := New(m, testModel(), WithShards(2), WithHistory(capacity), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := make([]int, 0, processes)
	for i := 0; i < processes; i++ {
		gen, err := workload.CPUStress(0.1+0.8*rng.Float64(), 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Spawn(gen)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Add(fmt.Sprintf("cg-%02d", rng.Intn(groups)), p.PID()); err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.PID())
	}
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	tick := func() {
		t.Helper()
		if _, err := m.Run(m.Tick()); err != nil {
			t.Fatal(err)
		}
		r, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.PerCgroup) != groups {
			t.Fatalf("round reported %d cgroups, want %d", len(r.PerCgroup), groups)
		}
	}
	for i := 0; i < warmup; i++ {
		tick()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		tick()
	}
	runtime.ReadMemStats(&after)
	if perRound := float64(after.Mallocs-before.Mallocs) / measured; perRound > allocBudget {
		t.Fatalf("host round allocates %.1f/round, budget %.1f", perRound, allocBudget)
	} else {
		t.Logf("host round allocates %.1f/round (budget %.1f)", perRound, allocBudget)
	}
}
