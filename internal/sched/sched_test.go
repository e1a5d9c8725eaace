package sched

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"powerapi/internal/cpu"
)

func i3Topology(t *testing.T) *cpu.Topology {
	t.Helper()
	topo, err := cpu.NewTopology(cpu.IntelCorei3_2120())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func sharesByPID(assignments []Assignment) map[int]Assignment {
	out := make(map[int]Assignment, len(assignments))
	for _, a := range assignments {
		out[a.PID] = a
	}
	return out
}

func TestValidation(t *testing.T) {
	topo := i3Topology(t)
	schedulers := []Scheduler{NewLoadBalancer(), NewPacking(), NewRoundRobin()}
	for _, s := range schedulers {
		t.Run(s.Name(), func(t *testing.T) {
			if _, err := s.Assign([]Candidate{{PID: 1, Utilization: 2}}, topo); err == nil {
				t.Fatal("utilization above 1 should fail")
			}
			if _, err := s.Assign([]Candidate{{PID: 1, Utilization: 0.5, Affinity: []int{9}}}, topo); err == nil {
				t.Fatal("affinity to unknown cpu should fail")
			}
			if _, err := s.Assign([]Candidate{{PID: 1, Utilization: 0.5}}, nil); err == nil {
				t.Fatal("nil topology should fail")
			}
		})
	}
}

func TestLoadBalancerSpreadsAcrossCores(t *testing.T) {
	topo := i3Topology(t)
	lb := NewLoadBalancer()
	// Two heavy processes on a 2-core/4-thread part must land on different
	// physical cores, not on two hyperthreads of the same core.
	assignments, err := lb.Assign([]Candidate{
		{PID: 1, Utilization: 0.9},
		{PID: 2, Utilization: 0.9},
	}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(assignments) != 2 {
		t.Fatalf("got %d assignments, want 2", len(assignments))
	}
	c1, err := topo.CoreOf(assignments[0].LogicalCPU)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := topo.CoreOf(assignments[1].LogicalCPU)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatalf("both heavy processes on core %d", c1)
	}
}

func TestLoadBalancerHonoursAffinity(t *testing.T) {
	topo := i3Topology(t)
	lb := NewLoadBalancer()
	assignments, err := lb.Assign([]Candidate{
		{PID: 1, Utilization: 0.9, Affinity: []int{3}},
	}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if assignments[0].LogicalCPU != 3 {
		t.Fatalf("assignment ignored affinity: cpu %d", assignments[0].LogicalCPU)
	}
}

func TestLoadBalancerSkipsIdleCandidates(t *testing.T) {
	topo := i3Topology(t)
	lb := NewLoadBalancer()
	assignments, err := lb.Assign([]Candidate{
		{PID: 1, Utilization: 0},
		{PID: 2, Utilization: 0.4},
	}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(assignments) != 1 || assignments[0].PID != 2 {
		t.Fatalf("assignments = %v, want only pid 2", assignments)
	}
}

func TestLoadBalancerOversubscription(t *testing.T) {
	topo := i3Topology(t)
	lb := NewLoadBalancer()
	// Five full-load processes on four logical CPUs: at least one CPU hosts
	// two processes and their shares must be scaled so the sum stays <= 1.
	var candidates []Candidate
	for pid := 1; pid <= 5; pid++ {
		candidates = append(candidates, Candidate{PID: pid, Utilization: 1})
	}
	assignments, err := lb.Assign(candidates, topo)
	if err != nil {
		t.Fatal(err)
	}
	perCPU := make(map[int]float64)
	for _, a := range assignments {
		perCPU[a.LogicalCPU] += a.Share
	}
	for cpuID, total := range perCPU {
		if total > 1+1e-9 {
			t.Fatalf("cpu %d oversubscribed: %v", cpuID, total)
		}
	}
	if len(assignments) != 5 {
		t.Fatalf("every process must be assigned, got %d", len(assignments))
	}
}

func TestPackingConsolidates(t *testing.T) {
	topo := i3Topology(t)
	p := NewPacking()
	assignments, err := p.Assign([]Candidate{
		{PID: 1, Utilization: 0.3},
		{PID: 2, Utilization: 0.3},
		{PID: 3, Utilization: 0.3},
	}, topo)
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[int]bool)
	for _, a := range assignments {
		used[a.LogicalCPU] = true
	}
	if len(used) != 1 {
		t.Fatalf("packing used %d cpus, want 1", len(used))
	}
}

func TestPackingOverflowsToNextCPU(t *testing.T) {
	topo := i3Topology(t)
	p := NewPacking()
	assignments, err := p.Assign([]Candidate{
		{PID: 1, Utilization: 0.8},
		{PID: 2, Utilization: 0.8},
	}, topo)
	if err != nil {
		t.Fatal(err)
	}
	byPID := sharesByPID(assignments)
	if byPID[1].LogicalCPU == byPID[2].LogicalCPU {
		t.Fatal("packing should overflow to another cpu when full")
	}
}

func TestPackingHonoursAffinity(t *testing.T) {
	topo := i3Topology(t)
	p := NewPacking()
	assignments, err := p.Assign([]Candidate{
		{PID: 7, Utilization: 0.5, Affinity: []int{2, 3}},
	}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := assignments[0].LogicalCPU; got != 2 && got != 3 {
		t.Fatalf("packing ignored affinity: cpu %d", got)
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	topo := i3Topology(t)
	rr := NewRoundRobin()
	var candidates []Candidate
	for pid := 1; pid <= 4; pid++ {
		candidates = append(candidates, Candidate{PID: pid, Utilization: 0.5})
	}
	assignments, err := rr.Assign(candidates, topo)
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[int]bool)
	for _, a := range assignments {
		used[a.LogicalCPU] = true
	}
	if len(used) != 4 {
		t.Fatalf("round robin used %d cpus, want 4", len(used))
	}
}

func TestRoundRobinDeterministic(t *testing.T) {
	topo := i3Topology(t)
	rr := NewRoundRobin()
	candidates := []Candidate{
		{PID: 3, Utilization: 0.2},
		{PID: 1, Utilization: 0.4},
		{PID: 2, Utilization: 0.6},
	}
	a1, err := rr.Assign(candidates, topo)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := rr.Assign(candidates, topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatal("non-deterministic assignment count")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("non-deterministic assignment at %d: %v vs %v", i, a1[i], a2[i])
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewLoadBalancer().Name() != "load-balance" {
		t.Fatal("unexpected load balancer name")
	}
	if NewPacking().Name() != "packing" {
		t.Fatal("unexpected packing name")
	}
	if NewRoundRobin().Name() != "round-robin" {
		t.Fatal("unexpected round robin name")
	}
}

func TestEmptyCandidateLists(t *testing.T) {
	topo := i3Topology(t)
	for _, s := range []Scheduler{NewLoadBalancer(), NewPacking(), NewRoundRobin()} {
		assignments, err := s.Assign(nil, topo)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(assignments) != 0 {
			t.Fatalf("%s: assignments for no candidates: %v", s.Name(), assignments)
		}
	}
}

// TestValidationRejectsNonFinite checks that NaN and infinite utilizations
// are rejected: NaN compares false both ways, so a plain range check lets it
// through into the sort and the shares.
func TestValidationRejectsNonFinite(t *testing.T) {
	topo := i3Topology(t)
	for _, s := range []Scheduler{NewLoadBalancer(), NewPacking(), NewRoundRobin()} {
		for _, u := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			candidates := []Candidate{{PID: 1, Utilization: 0.5}, {PID: 2, Utilization: u}}
			if _, err := s.Assign(candidates, topo); err == nil {
				t.Fatalf("%s: utilization %v accepted", s.Name(), u)
			}
		}
	}
}

// TestAssignOrderMatchesStableSort draws seeded candidates with many tied
// utilizations in shuffled order and checks that each policy places them in
// the order a stable sort with the same comparator gives.
func TestAssignOrderMatchesStableSort(t *testing.T) {
	topo := i3Topology(t)
	levels := []float64{0, 0.1, 0.25, 0.5, 0.5, 0.75, 1}
	byLoad := func(c []Candidate) func(i, j int) bool {
		return func(i, j int) bool {
			if c[i].Utilization != c[j].Utilization {
				return c[i].Utilization > c[j].Utilization
			}
			return c[i].PID < c[j].PID
		}
	}
	byPIDOnly := func(c []Candidate) func(i, j int) bool {
		return func(i, j int) bool { return c[i].PID < c[j].PID }
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		candidates := make([]Candidate, 50+rng.Intn(200))
		for i := range candidates {
			candidates[i] = Candidate{PID: 1000 + i, Utilization: levels[rng.Intn(len(levels))]}
		}
		rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		for _, tc := range []struct {
			s    Scheduler
			less func([]Candidate) func(i, j int) bool
		}{
			{NewLoadBalancer(), byLoad},
			{NewPacking(), byPIDOnly},
			{NewRoundRobin(), byPIDOnly},
		} {
			want := append([]Candidate(nil), candidates...)
			sort.SliceStable(want, tc.less(want))
			var wantPIDs []int
			for _, c := range want {
				if c.Utilization > 0 {
					wantPIDs = append(wantPIDs, c.PID)
				}
			}
			out, err := tc.s.Assign(candidates, topo)
			if err != nil {
				t.Fatal(err)
			}
			gotPIDs := make([]int, len(out))
			for i, a := range out {
				gotPIDs[i] = a.PID
			}
			if !slices.Equal(gotPIDs, wantPIDs) {
				t.Fatalf("seed %d, %s: placement order %v, stable sort gives %v", seed, tc.s.Name(), gotPIDs, wantPIDs)
			}
		}
	}
}
