package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/collector"
	"powerapi/internal/core"
	"powerapi/internal/vmbridge"
)

// fleetSide is the collector end every workload shares: a collector on the
// binary codec whose rounds the benchmark drives (Interval 0), one conflating
// subscriber and one push output into a counting in-process sink.
type fleetSide struct {
	col   *collector.Collector
	sub   *collector.Subscription
	sink  *countingSink
	subWG sync.WaitGroup

	// recordLag turns on the subscriber's lag samples (traced phase only).
	recordLag atomic.Bool
	lagMu     sync.Mutex
	lagMs     []float64
}

func newFleetSide(nodes []string, passive bool) (*fleetSide, error) {
	col, err := collector.New(collector.Config{
		Nodes:           nodes,
		Passive:         passive,
		Codec:           vmbridge.CodecBinary,
		StaleAfter:      time.Hour,
		HistoryCapacity: historyCapacity,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, fmt.Errorf("start collector: %w", err)
	}
	f := &fleetSide{col: col, sink: &countingSink{}}
	f.sub, err = col.Subscribe(collector.SubscribeOptions{Name: "perfbench", Policy: core.Conflate})
	if err != nil {
		col.Close()
		return nil, fmt.Errorf("subscribe to collector: %w", err)
	}
	f.subWG.Add(1)
	go func() {
		defer f.subWG.Done()
		for rep := range f.sub.C() {
			if f.recordLag.Load() {
				lag := float64(time.Since(rep.Wall)) / float64(time.Millisecond)
				f.lagMu.Lock()
				f.lagMs = append(f.lagMs, lag)
				f.lagMu.Unlock()
			}
			rep.Release()
		}
	}()
	if _, err = col.AddOutput(f.sink, collector.OutputConfig{Rounds: true, Events: true}); err != nil {
		f.close()
		return nil, fmt.Errorf("add collector output: %w", err)
	}
	return f, nil
}

// waitCommitted waits until node i has committed frame seq.
func (f *fleetSide) waitCommitted(node int, seq uint64) error {
	if !waitFor(func() bool { return f.col.NodeLastSeq(node) >= seq }, commitTimeout) {
		return fmt.Errorf("node %d did not commit frame %d within %v", node, seq, commitTimeout)
	}
	return nil
}

// finish checks what only the end of a run shows: the sink received every
// fleet round, and no layer lost data on the way.
func (f *fleetSide) finish(droppedBatches, sendErrors uint64) error {
	rounds := f.col.Stats().Rounds
	if !waitFor(func() bool { return f.sink.missing(rounds) == 0 }, sinkTimeout) {
		return fmt.Errorf("sink received %d of %d fleet rounds", rounds-f.sink.missing(rounds), rounds)
	}
	return checkLinks(f.col.Stats(), droppedBatches, sendErrors)
}

func (f *fleetSide) lags() []float64 {
	f.lagMu.Lock()
	defer f.lagMu.Unlock()
	return append([]float64(nil), f.lagMs...)
}

func (f *fleetSide) close() {
	f.sub.Close()
	f.subWG.Wait()
	f.col.Close() // closes the output and its sink too
}

// countingSink is the push-output destination: it accepts every document and
// notes which fleet rounds arrived.
type countingSink struct {
	mu   sync.Mutex
	seen []bool // indexed by fleet round seq
}

var roundDocPrefix = []byte(`{"kind":"fleet_round","seq":`)

func (s *countingSink) Name() string { return "perfbench-count" }

func (s *countingSink) WriteBatch(docs [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, doc := range docs {
		if !bytes.HasPrefix(doc, roundDocPrefix) {
			continue // a journal event
		}
		digits := doc[len(roundDocPrefix):]
		end := bytes.IndexByte(digits, ',')
		if end < 0 {
			continue
		}
		seq, err := strconv.ParseUint(string(digits[:end]), 10, 64)
		if err != nil {
			continue
		}
		for uint64(len(s.seen)) <= seq {
			s.seen = append(s.seen, false)
		}
		s.seen[seq] = true
	}
	return len(docs), nil
}

func (s *countingSink) Close() error { return nil }

// missing counts the fleet rounds 1..upTo the sink has not received.
func (s *countingSink) missing(upTo uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for seq := uint64(1); seq <= upTo; seq++ {
		if seq >= uint64(len(s.seen)) || !s.seen[seq] {
			n++
		}
	}
	return n
}

const (
	// historyCapacity is small so history rings fill during warm-up and the
	// measured rounds run at steady-state memory.
	historyCapacity = 16
	commitTimeout   = 10 * time.Second
	sinkTimeout     = 10 * time.Second
)

// waitFor polls done every 20µs until it holds or timeout passes.
func waitFor(done func() bool, timeout time.Duration) bool {
	start := time.Now()
	for !done() {
		if time.Since(start) > timeout || waiter.sleep(20*time.Microsecond) != nil {
			return false
		}
	}
	return true
}
