package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/collector"
	"powerapi/internal/core"
	"powerapi/internal/machine"
	"powerapi/internal/model"
	"powerapi/internal/source"
	"powerapi/internal/vmbridge"
	"powerapi/internal/workload"
)

const (
	hostProcesses = 10000
	hostCgroups   = 100
	// churnPercent of the live processes are replaced before every
	// host-churn round.
	churnPercent = 5
	nodeName     = "node-0"
)

// hostRig is one simulated host monitored by a daemon pipeline (hpc
// sources, retained history, a cgroup hierarchy) whose NodePublisher sends
// every round over one loopback TCP link to an in-process collector.
type hostRig struct {
	churn bool
	m     *machine.Machine
	cg    *cgroup.Hierarchy
	mon   *core.PowerAPI
	link  *vmbridge.TCPPublisher
	pub   *vmbridge.NodePublisher
	fleet *fleetSide

	mix    *rand.Rand // process kinds, demand levels and cgroup placement
	picks  *rand.Rand // churn victims
	live   []int
	paths  []string          // the cgroups processes are placed in
	cgKey  map[string]string // cgroup path → fleet route key
	want   fleetWant
	rounds uint64 // Collects completed, which is the last frame sequence published

	encodeBuf []byte // traced runs encode each round's frame once more to time the codec
	rows      []vmbridge.TargetRow
}

func newHost(seed int64, shards int, churn bool) (*hostRig, error) {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	h := &hostRig{
		churn: churn,
		m:     m,
		cg:    cgroup.NewHierarchy(),
		mix:   rand.New(rand.NewSource(seed)),
		picks: rand.New(rand.NewSource(seed ^ 0x5eed)),
		cgKey: make(map[string]string, hostCgroups),
		want:  fleetWant{nodes: map[string]float64{nodeName: 0}, targets: make(map[string]float64, hostCgroups)},
	}
	for i := 0; i < hostCgroups; i++ {
		path := fmt.Sprintf("cg-%02d", i)
		h.paths = append(h.paths, path)
		h.cgKey[path] = "cgroup:" + path
	}
	for len(h.live) < hostProcesses {
		pid, err := h.spawn()
		if err != nil {
			return nil, err
		}
		h.live = append(h.live, pid)
	}
	h.mon, err = core.New(m, model.PaperReferenceModel(),
		core.WithShards(shards),
		core.WithSources(source.ModeHPC),
		core.WithHistory(historyCapacity),
		core.WithCgroups(h.cg),
	)
	if err != nil {
		return nil, err
	}
	if err := h.mon.Attach(h.live...); err != nil {
		h.mon.Shutdown()
		return nil, err
	}
	if err := h.connect(); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// connect starts the node's fleet link and the collector gathering it, and
// waits until the collector has negotiated the binary codec with provenance,
// so no round is published before the link can carry it.
func (h *hostRig) connect() error {
	var err error
	if h.link, err = vmbridge.ListenTCP("127.0.0.1:0"); err != nil {
		return err
	}
	if h.pub, err = vmbridge.NewNodePublisher(h.mon, h.link, nodeName); err != nil {
		h.link.Close()
		h.link = nil
		return err
	}
	if h.fleet, err = newFleetSide([]string{h.link.Addr().String()}, false); err != nil {
		return err
	}
	negotiated := func() bool {
		st := h.link.ConnStats()
		return len(st) == 1 && st[0].WireVersion == vmbridge.BinaryVersionProvenance
	}
	if !waitFor(negotiated, commitTimeout) {
		return errors.New("collector did not connect to the node's fleet link")
	}
	return nil
}

// spawn starts one seeded process: a CPU, memory or mixed stress at a seeded
// demand level, placed in a seeded cgroup. It runs on the generator side.
func (h *hostRig) spawn() (int, error) {
	level := 0.1 + 0.9*h.mix.Float64()
	var gen workload.Generator
	var err error
	switch h.mix.Intn(3) {
	case 0:
		gen, err = workload.CPUStress(level, 0)
	case 1:
		gen, err = workload.MemoryStress(level, 0)
	default:
		gen, err = workload.MixedStress(h.mix.Float64(), level, 0)
	}
	if err != nil {
		return 0, err
	}
	p, err := h.m.Spawn(gen)
	if err != nil {
		return 0, err
	}
	if err := h.cg.Add(h.paths[h.mix.Intn(len(h.paths))], p.PID()); err != nil {
		return 0, err
	}
	return p.PID(), nil
}

// round runs one closed-loop round: [churn,] simulator step, Collect, wait
// for the node's frame to commit at the collector, Rollup. The fleet latency
// runs from the Collect call to the Rollup return; output checks run after
// it on the generator thread.
func (h *hostRig) round(p *phase) {
	tr := p.tr
	root := tr.open("round", -1)
	start := time.Now()
	p.attempted++
	if h.churn {
		h.churnStep(p, root)
	}

	runtime.LockOSThread()
	c0, t0 := threadCPU(), time.Now()
	_, err := h.m.Run(h.m.Tick())
	t1, c1 := time.Now(), threadCPU()
	runtime.UnlockOSThread()
	p.genCPU += c1 - c0
	p.stepMs = append(p.stepMs, ms(t1.Sub(t0)))
	p.stepCPUMs = append(p.stepCPUMs, ms(c1-c0))
	tr.add("machine.step", root, t0, t1)
	if err != nil {
		tr.close(root, start, t1)
		p.fail(fmt.Errorf("simulator step: %w", err))
		return
	}

	rep, err := h.mon.Collect()
	t2 := time.Now()
	tr.add("core.collect", root, t1, t2)
	if err != nil {
		tr.close(root, start, t2)
		p.fail(fmt.Errorf("collect: %w", err))
		return
	}
	h.rounds++
	err = h.fleet.waitCommitted(0, h.rounds)
	t3 := time.Now()
	tr.add("collector.commit_wait", root, t2, t3)
	if err != nil {
		tr.close(root, start, t3)
		p.fail(err)
		return
	}
	frep := h.fleet.col.Rollup()
	t4 := time.Now()
	tr.add("collector.rollup", root, t3, t4)
	tr.close(root, start, t4)
	p.collectMs = append(p.collectMs, ms(t2.Sub(t1)))
	p.fleetMs = append(p.fleetMs, ms(t4.Sub(t1)))

	runtime.LockOSThread()
	c2 := threadCPU()
	err = h.check(rep, frep)
	truth := h.m.TruePowerWatts()
	p.apes = append(p.apes, math.Abs(rep.TotalWatts-truth)/truth)
	if tr != nil {
		h.encode(tr, rep)
	}
	p.genCPU += threadCPU() - c2
	runtime.UnlockOSThread()
	frep.Release()
	if err != nil {
		p.fail(err)
	}
}

// check verifies the monitor round and the fleet round built from it: the
// node total and every cgroup row crossed the wire unchanged.
func (h *hostRig) check(rep core.AggregatedReport, frep *collector.FleetReport) error {
	if err := checkHostReport(rep, len(h.live)); err != nil {
		return err
	}
	h.want.nodes[nodeName] = rep.TotalWatts
	clear(h.want.targets)
	for path, w := range rep.PerCgroup {
		key, ok := h.cgKey[path]
		if !ok {
			return fmt.Errorf("round reported unknown cgroup %q", path)
		}
		h.want.targets[key] = w
	}
	return checkFleetReport(frep, h.want)
}

// encode times the codec on the round's node frame: the same rows the
// NodePublisher's link encodes inside the transport, where no public call
// can be timed.
func (h *hostRig) encode(tr *tracer, rep core.AggregatedReport) {
	h.rows = h.rows[:0]
	for path, w := range rep.PerCgroup {
		h.rows = append(h.rows, vmbridge.TargetRow{Key: h.cgKey[path], Watts: w})
	}
	frame := []vmbridge.VMPowerFrame{{
		VM: nodeName, Seq: h.rounds, Timestamp: rep.Timestamp, Watts: rep.TotalWatts, HostTotalWatts: rep.TotalWatts,
		SourceMode: rep.SourceMode, Rows: h.rows, EmitMono: time.Duration(h.rounds), Round: h.rounds,
		TraceID: vmbridge.FrameTraceID(nodeName, h.rounds),
	}}
	t0 := time.Now()
	h.encodeBuf = vmbridge.AppendBinaryBatchVersion(h.encodeBuf[:0], frame, vmbridge.BinaryVersionProvenance)
	tr.add("vmbridge.encode", -1, t0, time.Now())
}

// churnStep replaces churnPercent of the live processes: seeded victims are
// detached, leave their cgroup and are killed; as many seeded processes are
// spawned, placed in cgroups and attached. Every Attach and Detach is one
// timed operation; the host-side changes run on the generator thread.
func (h *hostRig) churnStep(p *phase, root int32) {
	tr := p.tr
	span := tr.open("host.churn", root)
	start := time.Now()
	n := len(h.live) * churnPercent / 100
	for i := 0; i < n; i++ {
		j := i + h.picks.Intn(len(h.live)-i)
		h.live[i], h.live[j] = h.live[j], h.live[i]
	}
	victims := append([]int(nil), h.live[:n]...)
	h.live = append(h.live[:0], h.live[n:]...)

	for _, pid := range victims {
		t0 := time.Now()
		err := h.mon.Detach(pid)
		t1 := time.Now()
		tr.add("core.detach", span, t0, t1)
		p.detachUs = append(p.detachUs, us(t1.Sub(t0)))
		p.attempted++
		if err != nil {
			p.fail(fmt.Errorf("detach %d: %w", pid, err))
		}
	}
	runtime.LockOSThread()
	c0 := threadCPU()
	var hostErr error
	spawned := make([]int, 0, n)
	for _, pid := range victims {
		hostErr = errors.Join(hostErr, h.cg.Leave(pid), h.m.Kill(pid))
	}
	for i := 0; i < n; i++ {
		pid, err := h.spawn()
		if err != nil {
			hostErr = errors.Join(hostErr, err)
			continue
		}
		spawned = append(spawned, pid)
	}
	p.genCPU += threadCPU() - c0
	runtime.UnlockOSThread()
	if hostErr != nil {
		p.fail(fmt.Errorf("churn the simulated host: %w", hostErr))
	}

	for _, pid := range spawned {
		t0 := time.Now()
		err := h.mon.Attach(pid)
		t1 := time.Now()
		tr.add("core.attach", span, t0, t1)
		p.attachUs = append(p.attachUs, us(t1.Sub(t0)))
		p.attempted++
		if err != nil {
			p.fail(fmt.Errorf("attach %d: %w", pid, err))
			continue
		}
		h.live = append(h.live, pid)
	}
	tr.close(span, start, time.Now())
}

// finish runs the end-of-run checks: no pipeline errors, every fleet round
// reached the sink, and no link lost a frame.
func (h *hostRig) finish() error {
	if n := h.mon.ErrorCount(); n != 0 {
		return fmt.Errorf("pipeline reported %d errors, last: %v", n, h.mon.LastError())
	}
	return h.fleet.finish(h.droppedBatches(), h.pub.SendErrors())
}

func (h *hostRig) collector() *fleetSide { return h.fleet }

func (h *hostRig) droppedBatches() uint64 {
	var n uint64
	for _, c := range h.link.ConnStats() {
		n += c.DroppedBatches
	}
	return n
}

func (h *hostRig) close() {
	if h.fleet != nil {
		h.fleet.close()
	}
	if h.pub != nil {
		h.pub.Close() // closes the link too
	} else if h.link != nil {
		h.link.Close()
	}
	h.mon.Shutdown()
}
