package main

import (
	"fmt"
	"runtime"
	"time"

	"powerapi/internal/collector"
	"powerapi/internal/core"
	"powerapi/internal/obs"
)

// metricDef is one metric as BENCHMARK.json declares it. bound is zero for
// per-layer metrics, which have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run on every workload.
//
// The time bounds are wide because the 2-CPU virtual machine the benchmark
// was defined on drifts in speed: a fixed single-threaded loop varies by
// about 8% between 5-second windows, and the medians of 20-second runs
// spread by up to a tenth across runs.
var endToEnd = []metricDef{
	{"fleet_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_round", "ms", "lower", 0.25},
	{"wire_bytes_per_node_round", "B", "lower", 0.05},
	{"max_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, grouped by the module they time. A
// layer that does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{name: "machine.step_p50_ms", unit: "ms", better: "lower"},
	{name: "machine.step_p90_ms", unit: "ms", better: "lower"},
	{name: "machine.step_cpu_ms", unit: "ms", better: "lower"},

	{name: "core.collect_p50_ms", unit: "ms", better: "lower"},
	{name: "core.collect_p90_ms", unit: "ms", better: "lower"},
	{name: "core.sensor_p50_ms", unit: "ms", better: "lower"},
	{name: "core.sensor_p90_ms", unit: "ms", better: "lower"},
	{name: "core.sensor_share", unit: "ratio", better: "lower"},
	{name: "core.formula_p50_ms", unit: "ms", better: "lower"},
	{name: "core.formula_p90_ms", unit: "ms", better: "lower"},
	{name: "core.formula_share", unit: "ratio", better: "lower"},
	{name: "core.aggregate_p50_ms", unit: "ms", better: "lower"},
	{name: "core.aggregate_p90_ms", unit: "ms", better: "lower"},
	{name: "core.aggregate_share", unit: "ratio", better: "lower"},
	{name: "core.fanout_p50_ms", unit: "ms", better: "lower"},
	{name: "core.fanout_p90_ms", unit: "ms", better: "lower"},
	{name: "core.fanout_share", unit: "ratio", better: "lower"},
	{name: "core.errors", unit: "count", better: "lower"},
	{name: "core.slots_live", unit: "count", better: "lower"},
	{name: "core.report_pool_outstanding", unit: "count", better: "lower"},
	{name: "core.subscription_drops", unit: "count", better: "lower"},
	{name: "core.attach_p50_us", unit: "us", better: "lower"},
	{name: "core.detach_p50_us", unit: "us", better: "lower"},
	{name: "core.shard_speedup", unit: "ratio", better: "higher"},

	{name: "history.write_p50_ms", unit: "ms", better: "lower"},
	{name: "history.write_share", unit: "ratio", better: "lower"},
	{name: "history.samples", unit: "count", better: "lower"},

	{name: "vmbridge.publish_p50_ms", unit: "ms", better: "lower"},
	{name: "vmbridge.encode_p50_us", unit: "us", better: "lower"},
	{name: "vmbridge.frames_sent", unit: "count", better: "higher"},
	{name: "vmbridge.dropped_batches", unit: "count", better: "lower"},
	{name: "vmbridge.send_errors", unit: "count", better: "lower"},
	{name: "vmbridge.bytes_per_row", unit: "B", better: "lower"},

	{name: "collector.feed_p50_us", unit: "us", better: "lower"},
	{name: "collector.commit_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "collector.commit_wait_p90_ms", unit: "ms", better: "lower"},
	{name: "collector.rollup_p50_ms", unit: "ms", better: "lower"},
	{name: "collector.rollup_p90_ms", unit: "ms", better: "lower"},
	{name: "collector.ingest_p50_ms", unit: "ms", better: "lower"},
	{name: "collector.rollup_stage_p50_ms", unit: "ms", better: "lower"},
	{name: "collector.fanout_p50_ms", unit: "ms", better: "lower"},
	{name: "collector.e2e_p50_ms", unit: "ms", better: "lower"},
	{name: "collector.subscriber_lag_p50_ms", unit: "ms", better: "lower"},
	{name: "collector.decode_errors", unit: "count", better: "lower"},
	{name: "collector.dropped_payloads", unit: "count", better: "lower"},
	{name: "collector.seq_gaps", unit: "count", better: "lower"},
	{name: "collector.violations", unit: "count", better: "lower"},
	{name: "collector.journal_events", unit: "count", better: "lower"},
	{name: "collector.output_docs", unit: "count", better: "higher"},
	{name: "collector.output_shed", unit: "count", better: "lower"},
	{name: "collector.output_retries", unit: "count", better: "lower"},

	{name: "go.allocs_per_round", unit: "count", better: "lower"},
	{name: "go.bytes_per_round", unit: "B", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "bench.glue_p50_ms", unit: "ms", better: "lower"},
}

// snapshot is the program's own counters at one instant, read only through
// the accessors the program already exports.
type snapshot struct {
	cpu       time.Duration
	mem       runtime.MemStats
	col       collector.Stats
	colStages map[string]obs.StageStats
	e2e       obs.StageStats
	mon       core.MonitorStats // zero on fleet-256
	monStages map[string]obs.StageStats
}

func takeSnapshot(r rig) snapshot {
	var s snapshot
	s.cpu = processCPU()
	runtime.ReadMemStats(&s.mem)
	side := r.collector()
	s.col = side.col.Stats()
	s.colStages = byStage(side.col.Tracer().StageStats())
	s.e2e = side.col.E2EStats()
	if h, ok := r.(*hostRig); ok {
		s.mon = h.mon.Stats()
		s.monStages = byStage(s.mon.Stages)
	}
	return s
}

func byStage(stages []obs.StageStats) map[string]obs.StageStats {
	out := make(map[string]obs.StageStats, len(stages))
	for _, st := range stages {
		out[st.Stage] = st
	}
	return out
}

// wire returns the bytes the collector read and the frames it committed
// between two snapshots, over every node.
func wire(before, after snapshot) (bytes, frames uint64) {
	for i, n := range after.col.Nodes {
		bytes += n.Bytes
		frames += n.Frames
		if i < len(before.col.Nodes) {
			bytes -= before.col.Nodes[i].Bytes
			frames -= before.col.Nodes[i].Frames
		}
	}
	return bytes, frames
}

// addEndToEnd sets every end-to-end metric from an untraced phase.
func (r *result) addEndToEnd(p *phase, before, after snapshot, setups []float64, rssMB float64) {
	r.set("fleet_p50_ms", quantile(p.fleetMs, 0.5), "ms", len(p.fleetMs))
	middleware := after.cpu - before.cpu - p.genCPU
	r.set("cpu_ms_per_round", ms(middleware)/float64(p.rounds), "ms", p.rounds)
	bytes, frames := wire(before, after)
	r.set("wire_bytes_per_node_round", float64(bytes)/float64(max(frames, 1)), "B", int(frames))
	r.set("max_rss_mb", rssMB, "MB", 1)
	r.set("setup_s", quantile(setups, 0.5), "s", len(setups))
}

// addExtras adds the figures that are printed with the others but are not
// part of the JSON line: those defined on some workloads only, and
// fleet_p90_ms, whose spread across runs (garbage collections and
// scheduling on two CPUs set the tail) is too wide to gate on. estimate_mape
// is also a correctness gate.
func (r *result) addExtras(p *phase) {
	r.extra("fleet_p90_ms", quantile(p.fleetMs, 0.9), "ms", len(p.fleetMs))
	if len(p.collectMs) > 0 {
		r.extra("collect_p50_ms", quantile(p.collectMs, 0.5), "ms", len(p.collectMs))
		r.extra("collect_p90_ms", quantile(p.collectMs, 0.9), "ms", len(p.collectMs))
		r.extra("sim_step_p50_ms", quantile(p.stepMs, 0.5), "ms", len(p.stepMs))
	}
	if ops := append(append([]float64(nil), p.attachUs...), p.detachUs...); len(ops) > 0 {
		r.extra("attach_detach_p50_us", quantile(ops, 0.5), "us", len(ops))
	}
	if len(p.apes) > 0 {
		apes := p.apes[:min(mapeRounds, len(p.apes))]
		mape := roundSig(quantile(apes, 0.5), 10)
		r.extra("estimate_mape", mape, "ratio", len(apes))
		if mape > mapeGate {
			r.correct = false
			r.errs = append(r.errs, fmt.Errorf("estimate_mape %.4f exceeds the accuracy gate %.2f", mape, mapeGate))
		}
	}
	r.extra("fail_ratio", float64(r.failed)/float64(r.attempted), "ratio", r.attempted)
}

// addLayers sets every per-layer metric from a traced phase.
func (r *result) addLayers(rg rig, p *phase, before, after snapshot) {
	tr := p.tr
	vals := map[string]float64{}
	samples := map[string]int{}
	dist := func(name string, q float64, xs []float64) {
		vals[name] = quantile(xs, q)
		samples[name] = len(xs)
	}
	count := func(name string, v float64) {
		vals[name] = v
		samples[name] = 1
	}

	collectMs := tr.durations("core.collect", time.Millisecond)
	rollupMs := tr.durations("collector.rollup", time.Millisecond)

	if h, ok := rg.(*hostRig); ok {
		stepMs := tr.durations("machine.step", time.Millisecond)
		dist("machine.step_p50_ms", 0.5, stepMs)
		dist("machine.step_p90_ms", 0.9, stepMs)
		dist("machine.step_cpu_ms", 0.5, p.stepCPUMs)

		dist("core.collect_p50_ms", 0.5, collectMs)
		dist("core.collect_p90_ms", 0.9, collectMs)
		collectSec := sum(collectMs) / 1e3
		for _, stage := range []string{"sensor", "formula", "aggregate", "fanout"} {
			st := after.monStages[stage]
			vals["core."+stage+"_p50_ms"] = st.P50Seconds * 1e3
			vals["core."+stage+"_p90_ms"] = st.P90Seconds * 1e3
			vals["core."+stage+"_share"] = (st.SumSeconds - before.monStages[stage].SumSeconds) / collectSec
			for _, suffix := range []string{"_p50_ms", "_p90_ms", "_share"} {
				samples["core."+stage+suffix] = int(st.Count - before.monStages[stage].Count)
			}
		}
		count("core.errors", float64(after.mon.Errors))
		count("core.slots_live", float64(after.mon.SlotsLive))
		count("core.report_pool_outstanding", float64(after.mon.ReportPool.Outstanding))
		drops := uint64(0)
		for _, s := range after.mon.Subscriptions {
			drops += s.Dropped
		}
		count("core.subscription_drops", float64(drops))
		dist("core.attach_p50_us", 0.5, tr.durations("core.attach", time.Microsecond))
		dist("core.detach_p50_us", 0.5, tr.durations("core.detach", time.Microsecond))

		hist := after.monStages["history"]
		vals["history.write_p50_ms"] = hist.P50Seconds * 1e3
		vals["history.write_share"] = (hist.SumSeconds - before.monStages["history"].SumSeconds) / collectSec
		samples["history.write_p50_ms"] = int(hist.Count - before.monStages["history"].Count)
		samples["history.write_share"] = samples["history.write_p50_ms"]
		count("history.samples", float64(after.mon.History.Samples))

		pub := after.monStages["publish"]
		vals["vmbridge.publish_p50_ms"] = pub.P50Seconds * 1e3
		samples["vmbridge.publish_p50_ms"] = int(pub.Count)
		count("vmbridge.frames_sent", float64(h.pub.Published()))
		count("vmbridge.dropped_batches", float64(h.droppedBatches()))
		count("vmbridge.send_errors", float64(h.pub.SendErrors()))
	}
	if f, ok := rg.(*fleetRig); ok {
		count("vmbridge.frames_sent", float64(f.seq)*fleetNodes)
	}
	dist("vmbridge.encode_p50_us", 0.5, tr.durations("vmbridge.encode", time.Microsecond))
	bytes, frames := wire(before, after)
	if keys := after.col.Keys; frames > 0 && keys > 0 {
		count("vmbridge.bytes_per_row", float64(bytes)/float64(frames)/float64(keys))
	}

	dist("collector.feed_p50_us", 0.5, tr.durations("collector.feed", time.Microsecond))
	waitMs := tr.durations("collector.commit_wait", time.Millisecond)
	dist("collector.commit_wait_p50_ms", 0.5, waitMs)
	dist("collector.commit_wait_p90_ms", 0.9, waitMs)
	dist("collector.rollup_p50_ms", 0.5, rollupMs)
	dist("collector.rollup_p90_ms", 0.9, rollupMs)
	for name, stage := range map[string]string{"ingest": "ingest", "rollup_stage": "rollup", "fanout": "fanout"} {
		st := after.colStages[stage]
		vals["collector."+name+"_p50_ms"] = st.P50Seconds * 1e3
		samples["collector."+name+"_p50_ms"] = int(st.Count)
	}
	vals["collector.e2e_p50_ms"] = after.e2e.P50Seconds * 1e3
	samples["collector.e2e_p50_ms"] = int(after.e2e.Count)
	dist("collector.subscriber_lag_p50_ms", 0.5, rg.collector().lags())
	var decode, dropped, gaps, violations, events uint64
	for _, n := range after.col.Nodes {
		decode += n.DecodeErrors
		dropped += n.DroppedPayloads
		gaps += n.SeqGaps
		violations += n.Violations
	}
	for _, c := range after.col.Events {
		events += c
	}
	count("collector.decode_errors", float64(decode))
	count("collector.dropped_payloads", float64(dropped))
	count("collector.seq_gaps", float64(gaps))
	count("collector.violations", float64(violations))
	count("collector.journal_events", float64(events))
	if len(after.col.Outputs) > 0 {
		out := after.col.Outputs[0]
		count("collector.output_docs", float64(out.Docs))
		count("collector.output_shed", float64(out.ShedDocs))
		count("collector.output_retries", float64(out.Retries))
	}

	rounds := float64(p.rounds)
	count("go.allocs_per_round", float64(after.mem.Mallocs-before.mem.Mallocs)/rounds)
	count("go.bytes_per_round", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/rounds)
	count("go.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	dist("bench.glue_p50_ms", 0.5, tr.selfDurations("round", time.Millisecond))

	for _, def := range perLayer {
		if def.name == "trace.overhead_ratio" || def.name == "core.shard_speedup" {
			continue // set by the caller, which ran the phases they compare
		}
		r.set(def.name, vals[def.name], def.unit, samples[def.name])
	}
}
