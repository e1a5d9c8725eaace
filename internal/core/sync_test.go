package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/target"
	"powerapi/internal/workload"
)

// TestCollectSyncUnderChurn replaces 5% of a host's processes before every
// round, the way a busy host does: some victims leave their cgroup before
// they are killed, the others are only killed and left for Collect to prune,
// and every replacement is placed in a seeded group. Every round the
// hierarchy's members and the monitor's attached PIDs must equal the live
// placed PIDs, and the cgroup rollup must conserve the attributed power.
func TestCollectSyncUnderChurn(t *testing.T) {
	const procs, churn, rounds = 80, 4, 12
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	paths := []string{"web", "db", "cache"}
	rng := rand.New(rand.NewSource(11))
	live := make(map[int]bool)
	spawn := func() {
		t.Helper()
		gen, err := workload.CPUStress(0.1+0.8*rng.Float64(), 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Spawn(gen)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Add(paths[rng.Intn(len(paths))], p.PID()); err != nil {
			t.Fatal(err)
		}
		live[p.PID()] = true
	}
	for len(live) < procs {
		spawn()
	}
	api, err := New(m, testModel(), WithShards(2), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	for _, path := range paths {
		if err := api.AttachTargets(target.Cgroup(path)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < rounds; round++ {
		victims := sortedKeys(live)
		rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
		for i, pid := range victims[:churn] {
			if i%2 == 0 {
				if err := h.Leave(pid); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Kill(pid); err != nil {
				t.Fatal(err)
			}
			delete(live, pid)
		}
		for i := 0; i < churn; i++ {
			spawn()
		}
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		r := collectCgroupRound(t, api)
		want := sortedKeys(live)
		var members []int
		for _, path := range paths {
			members = append(members, h.MembersRecursive(path)...)
		}
		sort.Ints(members)
		if !reflect.DeepEqual(members, want) {
			t.Fatalf("round %d: hierarchy members %v, live placed PIDs %v", round, members, want)
		}
		if got := api.Monitored(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: monitored %v, live placed PIDs %v", round, got, want)
		}
		for pid := range r.PerPID {
			if !live[pid] {
				t.Fatalf("round %d: exited pid %d attributed", round, pid)
			}
		}
	}
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline errors: %v", api.LastError())
	}
}

// TestPIDSetVMAttachesLaterSpawn monitors a pid-set VM naming a PID that is
// spawned only after the VM is attached. The spawn moves neither the exit
// count nor any hierarchy, and the next Collect must still attach it.
func TestPIDSetVMAttachesLaterSpawn(t *testing.T) {
	m := newTestMachine(t)
	first := spawnLevels(t, m, 0.5)[0]
	later := first + 1 // PIDs are handed out in order
	api, err := New(m, testModel(), WithVMs(VMDef{Name: "vm-a", PIDs: []int{first, later}}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := api.AttachTargets(target.VM("vm-a")); err != nil {
		t.Fatal(err)
	}
	round := func() AggregatedReport {
		t.Helper()
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		r, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	round()
	if got := api.Monitored(); !reflect.DeepEqual(got, []int{first}) {
		t.Fatalf("Monitored() before the spawn = %v, want [%d]", got, first)
	}
	if pid := spawnLevels(t, m, 0.7)[0]; pid != later {
		t.Fatalf("spawned pid %d, want %d", pid, later)
	}
	round()
	if got := api.Monitored(); !reflect.DeepEqual(got, []int{first, later}) {
		t.Fatalf("Monitored() after the spawn = %v, want [%d %d]", got, first, later)
	}
	if r := round(); r.PerPID[later] <= 0 || r.PerVM["vm-a"] != r.PerPID[first]+r.PerPID[later] {
		t.Fatalf("later spawn not attributed to its VM: PerPID %v, PerVM %v", r.PerPID, r.PerVM)
	}
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline errors: %v", api.LastError())
	}
}

// TestMonitoredTargetsOrder pins MonitoredTargets to the order of the
// targets' string forms, not their PIDs: "pid:10000" sorts before
// "pid:9999", as "pid:10" before "pid:9".
func TestMonitoredTargetsOrder(t *testing.T) {
	m := newTestMachine(t)
	gen, err := workload.CPUStress(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 10000; { // PIDs start at 1000
		p, err := m.Spawn(gen)
		if err != nil {
			t.Fatal(err)
		}
		pid = p.PID()
	}
	h := cgroup.NewHierarchy()
	if err := h.Create("web"); err != nil {
		t.Fatal(err)
	}
	api, err := New(m, testModel(), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := api.AttachTargets(target.Process(9999), target.Cgroup("web"), target.Process(10000), target.Process(1000)); err != nil {
		t.Fatal(err)
	}
	want := []target.Target{target.Cgroup("web"), target.Process(1000), target.Process(10000), target.Process(9999)}
	if got := api.MonitoredTargets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MonitoredTargets() = %v, want %v", got, want)
	}
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
