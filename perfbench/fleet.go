package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"powerapi/internal/vmbridge"
)

const (
	fleetNodes = 256
	fleetRows  = 1000
)

// fleetRig is a passive collector fed by 256 generated nodes that all report
// the same 1,000 cgroup keys. The generator encodes each round's version-2
// frames into reused buffers before the timed window; the window is
// FeedPayload for every node, the wait for every commit, and Rollup.
type fleetRig struct {
	side   *fleetSide
	mix    *rand.Rand
	origin time.Time // the generator's provenance clock epoch
	names  []string
	keys   []string
	base   [][]float64 // per node, per row: the row's watts before the round's factor
	rows   []vmbridge.TargetRow
	frame  []vmbridge.VMPowerFrame
	bufs   [][]byte
	want   fleetWant
	seq    uint64
}

func newFleet(seed int64) (*fleetRig, error) {
	f := &fleetRig{
		mix:    rand.New(rand.NewSource(seed)),
		origin: time.Now(),
		names:  make([]string, fleetNodes),
		keys:   make([]string, fleetRows),
		base:   make([][]float64, fleetNodes),
		rows:   make([]vmbridge.TargetRow, fleetRows),
		frame:  make([]vmbridge.VMPowerFrame, 1),
		bufs:   make([][]byte, fleetNodes),
		want: fleetWant{
			nodes:   make(map[string]float64, fleetNodes),
			targets: make(map[string]float64, fleetRows),
		},
	}
	for j := range f.keys {
		f.keys[j] = fmt.Sprintf("cgroup:svc-%04d", j)
		f.rows[j].Key = f.keys[j]
	}
	addrs := make([]string, fleetNodes)
	for i := range f.names {
		f.names[i] = fmt.Sprintf("node-%03d", i)
		addrs[i] = "perfbench://" + f.names[i]
		f.base[i] = make([]float64, fleetRows)
		for j := range f.base[i] {
			// 5 to 45 mW per row: about 25 W per node.
			f.base[i][j] = 0.005 + 0.04*f.mix.Float64()
		}
	}
	side, err := newFleetSide(addrs, true)
	if err != nil {
		return nil, err
	}
	f.side = side
	return f, nil
}

// encode generates the round's frames: every node scales its rows by a
// seeded factor, and its total is the sum of its rows. It also records what
// the fleet round must then hold.
func (f *fleetRig) encode(tr *tracer) {
	clear(f.want.targets)
	emit := time.Since(f.origin)
	for i, name := range f.names {
		factor := 0.9 + 0.2*f.mix.Float64()
		total := 0.0
		for j, w := range f.base[i] {
			w *= factor
			f.rows[j].Watts = w
			total += w
			f.want.targets[f.keys[j]] += w
		}
		f.want.nodes[name] = total
		f.frame[0] = vmbridge.VMPowerFrame{
			VM: name, Seq: f.seq, Timestamp: time.Duration(f.seq) * time.Second,
			Watts: total, HostTotalWatts: total, SourceMode: "hpc", Rows: f.rows,
			EmitMono: emit, Round: f.seq, TraceID: vmbridge.FrameTraceID(name, f.seq),
		}
		t0 := time.Now()
		f.bufs[i] = vmbridge.AppendBinaryBatchVersion(f.bufs[i][:0], f.frame, vmbridge.BinaryVersionProvenance)
		tr.add("vmbridge.encode", -1, t0, time.Now())
	}
}

func (f *fleetRig) round(p *phase) {
	tr := p.tr
	f.seq++
	p.attempted++
	runtime.LockOSThread()
	c0 := threadCPU()
	f.encode(tr)
	p.genCPU += threadCPU() - c0
	runtime.UnlockOSThread()

	root := tr.open("round", -1)
	start := time.Now()
	for i, buf := range f.bufs {
		t0 := time.Now()
		err := f.side.col.FeedPayload(i, buf)
		tr.add("collector.feed", root, t0, time.Now())
		if err != nil {
			tr.close(root, start, time.Now())
			p.fail(err)
			return
		}
	}
	t1 := time.Now()
	for i := range f.bufs {
		if err := f.side.waitCommitted(i, f.seq); err != nil {
			tr.close(root, start, time.Now())
			p.fail(err)
			return
		}
	}
	t2 := time.Now()
	tr.add("collector.commit_wait", root, t1, t2)
	rep := f.side.col.Rollup()
	t3 := time.Now()
	tr.add("collector.rollup", root, t2, t3)
	tr.close(root, start, t3)
	p.fleetMs = append(p.fleetMs, ms(t3.Sub(start)))

	runtime.LockOSThread()
	c1 := threadCPU()
	err := checkFleetReport(rep, f.want)
	p.genCPU += threadCPU() - c1
	runtime.UnlockOSThread()
	rep.Release()
	if err != nil {
		p.fail(err)
	}
}

// finish runs the end-of-run checks: every fleet round reached the sink and
// no payload was lost. There is no publisher side.
func (f *fleetRig) finish() error { return f.side.finish(0, 0) }

func (f *fleetRig) collector() *fleetSide { return f.side }

func (f *fleetRig) close() { f.side.close() }
