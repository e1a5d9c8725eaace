package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"powerapi/internal/collector"
	"powerapi/internal/core"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9, 100},
		{[]float64{1, 2}, 0.25, 1.25},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "round", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 40},  // overlaps a: 10..40 covered once
		{name: "c", parent: 0, start: 90, end: 120}, // clipped to the parent's end
		{name: "grandchild", parent: 1, start: 12, end: 18},
		{name: "other", parent: -1, start: 200, end: 250},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 6, 20, 30, 6, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	var none *tracer
	if id := none.open("round", -1); id != -1 {
		t.Fatalf("nil tracer opened span %d", id)
	}
	none.add("x", -1, time.Now(), time.Now()) // must not panic
	if none.durations("x", time.Millisecond) != nil {
		t.Fatal("nil tracer reported durations")
	}

	tr := newTracer()
	t0 := tr.origin
	root := tr.open("round", -1)
	tr.add("core.collect", root, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	tr.close(root, t0, t0.Add(5*time.Millisecond))
	if got := tr.durations("core.collect", time.Millisecond); len(got) != 1 || got[0] != 2 {
		t.Fatalf("collect durations = %v, want [2]", got)
	}
	if got := tr.selfDurations("round", time.Millisecond); len(got) != 1 || got[0] != 3 {
		t.Fatalf("round self time = %v, want [3]", got)
	}
}

// hostReport builds a conserved monitor round: three processes in two
// top-level cgroups and one nested one.
func hostReport() core.AggregatedReport {
	return core.AggregatedReport{
		IdleWatts:   30,
		ActiveWatts: 6,
		TotalWatts:  36,
		PerPID:      map[int]float64{1: 1, 2: 2, 3: 3},
		PerCgroup:   map[string]float64{"web": 3, "web/api": 2, "db": 3},
	}
}

func TestCheckHostReport(t *testing.T) {
	if err := checkHostReport(hostReport(), 3); err != nil {
		t.Fatalf("conserved round rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		mutate    func(r *core.AggregatedReport)
		monitored int
	}{
		"per-PID watts leak":      {func(r *core.AggregatedReport) { r.PerPID[2] += 1e-3 }, 3},
		"cgroup counted twice":    {func(r *core.AggregatedReport) { r.PerCgroup["db"] += 2 }, 3},
		"missing process":         {func(r *core.AggregatedReport) { delete(r.PerPID, 3) }, 3},
		"target not attributed":   {func(r *core.AggregatedReport) {}, 4},
		"active watts overstated": {func(r *core.AggregatedReport) { r.ActiveWatts = 7 }, 3},
	} {
		rep := hostReport()
		tc.mutate(&rep)
		if err := checkHostReport(rep, tc.monitored); err == nil {
			t.Errorf("%s: broken round passed the check", name)
		}
	}
}

func fleetReport() (*collector.FleetReport, fleetWant) {
	rep := &collector.FleetReport{
		Seq:        7,
		TotalWatts: 30,
		Nodes:      2,
		PerNode:    map[string]float64{"n1": 10, "n2": 20},
		PerTarget:  map[string]float64{"cgroup:a": 12, "cgroup:b": 18},
	}
	want := fleetWant{
		nodes:   map[string]float64{"n1": 10, "n2": 20},
		targets: map[string]float64{"cgroup:a": 12, "cgroup:b": 18},
	}
	return rep, want
}

func TestCheckFleetReport(t *testing.T) {
	rep, want := fleetReport()
	if err := checkFleetReport(rep, want); err != nil {
		t.Fatalf("conserved fleet round rejected: %v", err)
	}
	for name, mutate := range map[string]func(r *collector.FleetReport){
		"total drifts from node sum": func(r *collector.FleetReport) { r.TotalWatts += 1e-3 },
		"node total wrong":           func(r *collector.FleetReport) { r.PerNode["n1"], r.PerNode["n2"] = 11, 19 },
		"key figure wrong":           func(r *collector.FleetReport) { r.PerTarget["cgroup:a"] = 13 },
		"stale node":                 func(r *collector.FleetReport) { r.StaleNodes = 1 },
		"node missing":               func(r *collector.FleetReport) { r.Nodes = 1; delete(r.PerNode, "n2"); r.TotalWatts = 10 },
		"extra key":                  func(r *collector.FleetReport) { r.PerTarget["cgroup:c"] = 0 },
	} {
		rep, want := fleetReport()
		mutate(rep)
		if err := checkFleetReport(rep, want); err == nil {
			t.Errorf("%s: broken fleet round passed the check", name)
		}
	}
}

func TestCheckLinks(t *testing.T) {
	clean := collector.Stats{Nodes: []collector.NodeStats{{Name: "n1"}}}
	if err := checkLinks(clean, 0, 0); err != nil {
		t.Fatalf("clean links rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		node           collector.NodeStats
		dropped, sendE uint64
	}{
		"decode error":    {node: collector.NodeStats{DecodeErrors: 1}},
		"dropped payload": {node: collector.NodeStats{DroppedPayloads: 1}},
		"sequence gap":    {node: collector.NodeStats{SeqGaps: 2}},
		"dropped batch":   {dropped: 1},
		"send error":      {sendE: 1},
	} {
		st := collector.Stats{Nodes: []collector.NodeStats{tc.node}}
		if err := checkLinks(st, tc.dropped, tc.sendE); err == nil {
			t.Errorf("%s passed the link check", name)
		}
	}
}

func TestCountingSink(t *testing.T) {
	s := &countingSink{}
	docs := [][]byte{
		[]byte(`{"kind":"fleet_round","seq":1,"wall":"x"}`),
		[]byte(`{"kind":"event","event":{}}`),
		[]byte(`{"kind":"fleet_round","seq":3,"wall":"x"}`),
	}
	if n, err := s.WriteBatch(docs); n != len(docs) || err != nil {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	if got := s.missing(3); got != 1 {
		t.Fatalf("missing(3) = %d, want 1 (round 2)", got)
	}
	if got := s.missing(4); got != 2 {
		t.Fatalf("missing(4) = %d, want 2", got)
	}
}

// TestBenchmarkFile checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(workloads))
	}
	for _, w := range file.Workloads {
		def, ok := workloads[w.Name]
		if !ok || def.why != w.Why {
			t.Errorf("workload %s: file says %q, program says %q", w.Name, w.Why, def.why)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range file.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: file %+v, program %+v", i, m, d)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(file.PerLayer), len(perLayer))
	}
	for i, m := range file.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: file %+v, program %+v", i, m, d)
		}
	}
}

func TestResultJSONLeavesExtrasOut(t *testing.T) {
	res := newResult(&phase{attempted: 3}, nil)
	res.set("fleet_p50_ms", 1.5, "ms", 3)
	res.extra("collect_p50_ms", 1.2, "ms", 3)
	var b strings.Builder
	if err := res.writeJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 4 || out.Failed != 0 {
		t.Errorf("got correct=%v attempted=%d failed=%d, want true 4 0", out.Correct, out.Attempted, out.Failed)
	}
	if len(out.Metrics) != 1 || out.Metrics["fleet_p50_ms"].Value != 1.5 {
		t.Errorf("metrics = %+v, want only fleet_p50_ms", out.Metrics)
	}
}
