// Command perfbench is the repository's benchmark: it runs one named
// workload against the middleware for a fixed time and prints its end-to-end
// metrics (or, with --trace 1, its per-layer metrics) as one JSON line.
//
//	go run . --workload host-10k --seed 1 --seconds 10 --trace 0
//
// Every workload is a closed loop driven by one goroutine in one process,
// and every input is generated from --seed. The benchmark times each layer
// from outside, around the calls into its public functions; the only numbers
// it reads from inside the program come from Monitor.Stats, the tracers'
// StageStats, Collector.Stats and Collector.E2EStats. It checks the outputs
// of every round and exits non-zero when any is wrong. See README.md for the
// workloads, the metrics and which layer moves which metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"
)

// rig is one workload's system under test together with its generator.
type rig interface {
	// round runs one closed-loop round and records it into p.
	round(p *phase)
	// finish runs the checks only the end of a run can make.
	finish() error
	// collector returns the collector end the rounds reach.
	collector() *fleetSide
	close()
}

type workloadDef struct {
	why   string
	build func(seed int64) (rig, error)
}

var workloads = map[string]workloadDef{
	"host-10k": {
		why:   "10k seeded processes on one host: machine and core do almost all the work; the wire and collector carry only 100 rows a round",
		build: func(seed int64) (rig, error) { return newHost(seed, hostShards, false) },
	},
	"host-churn": {
		why:   "the same host replacing 5% of its processes before each round: attach/detach, slot and cgroup writes beside the read path",
		build: func(seed int64) (rig, error) { return newHost(seed, hostShards, true) },
	},
	"fleet-256": {
		why:   "256 nodes x 1,000 shared cgroup keys into one passive collector: ingest, rollup, fanout, push outputs and codec; no machine or core",
		build: func(seed int64) (rig, error) { return newFleet(seed) },
	},
}

const (
	// hostShards is the monitor's shard count, one per CPU of the 2-CPU
	// machine the benchmark was defined on. It is fixed, not read from the
	// machine, so figures from different machines compare the same program.
	hostShards = 2
	// warmupRounds run inside set-up, before anything is measured: they
	// fill the history rings and the pools.
	warmupRounds = 20
	// setupRepeats is how many times an untraced run sets its workload up;
	// setup_s is the median.
	setupRepeats = 3
	// mapeRounds is how many measured rounds estimate_mape covers. Fixing
	// the count makes it depend on the seed alone, not on the run's speed.
	mapeRounds = 50
	// mapeGate is the repo's accuracy gate on the median estimation error.
	mapeGate = 0.35
	// spanDir receives the traced run's spans.
	spanDir = ".bench_build"
)

// waiter paces every wait for the program's asynchronous work. Only the
// benchmark's one driving goroutine waits.
var waiter *pause

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "host-10k", "workload to run: host-10k, host-churn or fleet-256")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %v, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	var (
		res result
		err error
	)
	if waiter, err = newPause(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer waiter.close()
	if *trace == 1 {
		res, err = runTraced(*name, def, *seed, window)
	} else {
		res, err = runUntraced(def, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.print(stderr, *name, *seed)
	if err := res.writeJSON(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// phase is one measured stretch of rounds.
type phase struct {
	tr        *tracer // nil when untraced
	rounds    int
	attempted int // rounds plus Attach/Detach calls
	failed    int
	errs      []error // the first few failures, for the report

	genCPU    time.Duration // generator CPU: simulator steps, host churn, frame encoding, output checks
	stepMs    []float64
	stepCPUMs []float64
	collectMs []float64
	fleetMs   []float64
	attachUs  []float64
	detachUs  []float64
	apes      []float64
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// setup builds the workload and runs its warm-up rounds, which must pass.
func setup(def workloadDef, seed int64) (rig, error) {
	r, err := def.build(seed)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	warm := &phase{}
	for i := 0; i < warmupRounds; i++ {
		r.round(warm)
	}
	if warm.failed > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", errors.Join(warm.errs...))
	}
	return r, nil
}

// measure runs rounds for d, and for at least minRounds unless a round has
// failed, between two snapshots.
func measure(r rig, d time.Duration, minRounds int, tr *tracer) (p *phase, before, after snapshot) {
	p = &phase{tr: tr}
	runtime.GC()
	before = takeSnapshot(r)
	// Re-read the process counters so the snapshot's own work stays outside
	// the window.
	before.cpu = processCPU()
	runtime.ReadMemStats(&before.mem)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) || (p.rounds < minRounds && p.failed == 0) {
		if tr != nil {
			tr.round = int32(p.rounds)
		}
		r.round(p)
		p.rounds++
	}
	after = takeSnapshot(r)
	return p, before, after
}

func runUntraced(def workloadDef, seed int64, window time.Duration) (result, error) {
	var (
		r      rig
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if r, err = setup(def, seed); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()
	// Peak memory is read before the measured rounds: the simulated host
	// keeps every killed process in its table, so on host-churn a figure
	// taken after them would grow with the number of rounds a run reaches.
	rss := maxRSSMB()
	p, before, after := measure(r, window, mapeRounds, nil)
	res := newResult(p, r.finish())
	res.addEndToEnd(p, before, after, setups, rss)
	res.addExtras(p)
	return res, nil
}

func runTraced(name string, def workloadDef, seed int64, window time.Duration) (result, error) {
	r, err := setup(def, seed)
	if err != nil {
		return result{}, err
	}
	half := window / 2
	untraced, _, _ := measure(r, half, warmupRounds, nil)
	tr := newTracer()
	r.collector().recordLag.Store(true)
	p, before, after := measure(r, half, warmupRounds, tr)
	endErr := r.finish()
	res := newResult(p, endErr)
	res.merge(untraced)
	res.addLayers(r, p, before, after)
	res.set("trace.overhead_ratio", quantile(p.fleetMs, 0.5)/quantile(untraced.fleetMs, 0.5), "ratio", len(p.fleetMs))
	r.close()

	speedup := 0.0
	if name == "host-10k" {
		// The single-threaded baseline: the same host on one shard.
		base, err := setup(workloadDef{build: func(seed int64) (rig, error) { return newHost(seed, 1, false) }}, seed)
		if err != nil {
			return result{}, fmt.Errorf("1-shard baseline: %w", err)
		}
		single, _, _ := measure(base, half, warmupRounds, nil)
		res.merge(single)
		if err := base.finish(); err != nil {
			res.failEnd(fmt.Errorf("1-shard baseline: %w", err))
		}
		base.close()
		speedup = quantile(single.collectMs, 0.5) / quantile(untraced.collectMs, 0.5)
	}
	res.set("core.shard_speedup", speedup, "ratio", 1)
	if err := tr.write(fmt.Sprintf("%s/spans-%s.csv", spanDir, name)); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// result is what one run prints.
type result struct {
	correct           bool
	attempted, failed int
	errs              []error
	metrics           map[string]figure
	order             []string
	extras            []string // printed on stderr only; see addExtras
}

type figure struct {
	value   float64
	unit    string
	samples int
}

func newResult(p *phase, endErr error) result {
	res := result{
		correct:   p.failed == 0,
		attempted: p.attempted,
		failed:    p.failed,
		errs:      p.errs,
		metrics:   map[string]figure{},
	}
	res.failEnd(endErr)
	return res
}

// failEnd counts the end-of-run check as one more operation, failed when
// err is not nil.
func (r *result) failEnd(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.correct = false
		r.errs = append(r.errs, err)
	}
}

// merge counts another phase's operations and failures into the result.
func (r *result) merge(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.errs = append(r.errs, p.errs...)
	if p.failed > 0 {
		r.correct = false
	}
}

func (r *result) set(name string, value float64, unit string, samples int) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = figure{value: value, unit: unit, samples: samples}
}

func (r *result) extra(name string, value float64, unit string, samples int) {
	r.extras = append(r.extras, name)
	r.set(name, value, unit, samples)
}

// print writes the human-readable report: every figure with its unit and
// sample count, then any failures.
func (r *result) print(w io.Writer, name string, seed int64) {
	fmt.Fprintf(w, "perfbench %s seed %d: correct=%v attempted=%d failed=%d\n", name, seed, r.correct, r.attempted, r.failed)
	for _, m := range r.order {
		f := r.metrics[m]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%d\n", m, f.value, f.unit, f.samples)
	}
	for _, err := range r.errs {
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	}
}

// writeJSON prints the result line: every reported metric except the
// stderr-only extras.
func (r *result) writeJSON(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	skip := map[string]bool{}
	for _, e := range r.extras {
		skip[e] = true
	}
	for name, f := range r.metrics {
		if skip[name] {
			continue
		}
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Errorf("metric %s is %v", name, f.value)
		}
		out.Metrics[name] = value{Value: f.value, Unit: f.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// roundSig rounds x to n significant digits.
func roundSig(x float64, n int) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', n, 64), 64)
	return v
}
