package collector

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerapi/internal/vmbridge"
)

// keyFrame is one frame's row keys, in wire order.
type keyFrame []string

func rotated(f keyFrame, by int) keyFrame {
	return append(append(keyFrame{}, f[by:]...), f[:by]...)
}

func inserted(f keyFrame, at int, key string) keyFrame {
	return append(append(append(keyFrame{}, f[:at]...), key), f[at:]...)
}

func dropped(f keyFrame, at int) keyFrame {
	return append(append(keyFrame{}, f[:at]...), f[at+1:]...)
}

// rowWatts is the deterministic figure row j of frame fi of node ni carries;
// every fifth row is negative, a bad row the contract counts.
func rowWatts(ni, fi, j int) float64 {
	if (ni+fi+j)%5 == 4 {
		return -1
	}
	return 1 + 0.5*float64(j) + 0.25*float64(fi) + float64(ni)
}

// TestIngestKeyResolution drives one node, then two, through frames whose
// row order stays, rotates, gains or loses a key mid-frame, grows, shrinks or
// brings a never-seen key. After every frame, on both codecs, the node's slots
// must be exactly what the table lookup gives for its keys, its contract
// accumulators must match a reference, and the fleet rollup must equal the
// per-key sum of every node's latest frame.
func TestIngestKeyResolution(t *testing.T) {
	base := keyFrame{"cgroup:a", "cgroup:b", "cgroup:b/x", "pid:7", "cgroup:c", "vm:v1"}
	cases := []struct {
		name   string
		frames []keyFrame
	}{
		{"same order", []keyFrame{base, base, base}},
		{"rotated", []keyFrame{base, rotated(base, 1), rotated(base, 4), base}},
		{"inserted mid-frame", []keyFrame{base, inserted(base, 2, "cgroup:late"), inserted(base, 3, "cgroup:a/y")}},
		{"dropped mid-frame", []keyFrame{base, dropped(base, 2), base}},
		{"longer", []keyFrame{base[:2], base[:4], base}},
		{"shorter", []keyFrame{base, base[:4], base[:1]}},
		{"never-seen key", []keyFrame{base, append(keyFrame{}, base[:3]...), append(append(keyFrame{}, base[:3]...), "cgroup:fresh", "pid:99")}},
	}
	for _, codec := range []vmbridge.Codec{vmbridge.CodecBinary, vmbridge.CodecJSON} {
		for _, nodes := range []int{1, 2} {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/%d-node/%s", codec, nodes, tc.name), func(t *testing.T) {
					checkKeyResolution(t, codec, nodes, tc.frames)
				})
			}
		}
	}
}

func checkKeyResolution(t *testing.T, codec vmbridge.Codec, nodes int, frames []keyFrame) {
	c, err := New(Config{Codec: codec, StaleAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conns := make([]*nodeConn, nodes)
	for i := range conns {
		conns[i] = newNodeConn(fmt.Sprintf("direct-%d", i))
		c.nodesMu.Lock()
		c.nodes = append(c.nodes, conns[i])
		c.nodesMu.Unlock()
	}
	latest := make([]map[string]float64, nodes)
	for fi := range frames {
		// Frames interleave across nodes. The second node sees each frame
		// rotated, so both positional orders of the shared keys are live.
		for ni, n := range conns {
			keys := frames[fi]
			if ni == 1 && len(keys) > 1 {
				keys = rotated(keys, 1)
			}
			rows := make([]vmbridge.TargetRow, len(keys))
			var wantTop float64
			var wantBad int
			latest[ni] = map[string]float64{}
			for j, k := range keys {
				w := rowWatts(ni, fi, j)
				rows[j] = vmbridge.TargetRow{Key: k, Watts: w}
				latest[ni][k] += w
				switch {
				case w < 0:
					wantBad++
				case strings.HasPrefix(k, "cgroup:") && !strings.Contains(k, "/"):
					wantTop += w
				}
			}
			frame := nodeFrame(fmt.Sprintf("node-%d", ni), uint64(fi+1), 1000, rows)
			if codec == vmbridge.CodecBinary {
				msg := vmbridge.AppendBinaryBatchVersion(nil, []vmbridge.VMPowerFrame{frame}, vmbridge.BinaryVersionProvenance)
				c.ingestBinary(n, msg[vmbridge.BinaryMessageHeader:], vmbridge.BinaryVersionProvenance)
			} else {
				line, err := json.Marshal(frame)
				if err != nil {
					t.Fatal(err)
				}
				c.ingestJSON(n, line)
			}

			n.mu.Lock()
			slots := append([]int32(nil), n.slots...)
			top, bad, seq := n.topWatts, n.badRows, n.lastSeq
			n.mu.Unlock()
			if seq != uint64(fi+1) {
				t.Fatalf("frame %d node %d: lastSeq %d, frame not committed", fi, ni, seq)
			}
			want := make([]int32, len(keys))
			c.keys.mu.Lock()
			for j, k := range keys {
				s, ok := c.keys.ks.Lookup(k)
				if !ok {
					t.Fatalf("frame %d node %d: key %q never interned", fi, ni, k)
				}
				want[j] = s
			}
			c.keys.mu.Unlock()
			if fmt.Sprint(slots) != fmt.Sprint(want) {
				t.Fatalf("frame %d node %d: slots %v, table lookup gives %v", fi, ni, slots, want)
			}
			if math.Abs(top-wantTop) > 1e-9 || bad != wantBad {
				t.Fatalf("frame %d node %d: topWatts %.9f badRows %d, want %.9f and %d", fi, ni, top, bad, wantTop, wantBad)
			}
		}

		ref := map[string]float64{}
		for _, m := range latest {
			for k, w := range m {
				ref[k] += w
			}
		}
		rep := c.Rollup()
		if len(rep.PerTarget) != len(ref) {
			t.Fatalf("frame %d: rollup has %d keys %v, want %d %v", fi, len(rep.PerTarget), rep.PerTarget, len(ref), ref)
		}
		for k, w := range ref {
			if got, ok := rep.PerTarget[k]; !ok || math.Abs(got-w) > 1e-9 {
				t.Fatalf("frame %d: PerTarget[%q] = %.9f (present %v), want %.9f", fi, k, got, ok, w)
			}
		}
		rep.Release()
	}
}

// TestIngestConcurrentNewKeys feeds several nodes through the worker pool at
// once. Every round each node brings a never-seen key at a shifting position
// (so its own positional checks miss after it) while the shared keys hit the
// view, and a reader polls Stats against the growing table. Each round the
// fleet must conserve: total, per-target sum and shared-key figures exact.
func TestIngestConcurrentNewKeys(t *testing.T) {
	const nodes, shared, rounds = 6, 16, 20
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("bench://n%d", i)
	}
	c, err := New(Config{Nodes: addrs, Passive: true, Codec: vmbridge.CodecBinary, Workers: 3, Shards: 2, StaleAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if k := c.Stats().Keys; k > shared+nodes*rounds {
					t.Errorf("Stats().Keys = %d, more than were ever sent", k)
					return
				}
			}
		}
	}()

	for r := 1; r <= rounds; r++ {
		var feeders sync.WaitGroup
		var wantTotal float64
		for ni := 0; ni < nodes; ni++ {
			rows := make([]vmbridge.TargetRow, 0, shared+1)
			var total float64
			for j := 0; j < shared; j++ {
				rows = append(rows, vmbridge.TargetRow{Key: fmt.Sprintf("cgroup:shared-%02d", j), Watts: 1 + float64(j)})
				total += 1 + float64(j)
			}
			at := (r + ni) % (shared + 1)
			fresh := vmbridge.TargetRow{Key: fmt.Sprintf("cgroup:n%d-r%d", ni, r), Watts: 0.5}
			rows = append(rows[:at], append([]vmbridge.TargetRow{fresh}, rows[at:]...)...)
			total += fresh.Watts
			wantTotal += total
			msg := vmbridge.AppendBinaryBatchVersion(nil, []vmbridge.VMPowerFrame{provFrame(fmt.Sprintf("n%d", ni), uint64(r), total, rows)}, vmbridge.BinaryVersionProvenance)
			feeders.Add(1)
			go func(ni int) {
				defer feeders.Done()
				if err := c.FeedPayload(ni, msg); err != nil {
					t.Error(err)
				}
			}(ni)
		}
		feeders.Wait()
		waitUntil(t, fmt.Sprintf("round %d committed on every node", r), func() bool {
			for ni := 0; ni < nodes; ni++ {
				if c.NodeLastSeq(ni) < uint64(r) {
					return false
				}
			}
			return true
		})

		rep := c.Rollup()
		var sum float64
		for _, w := range rep.PerTarget {
			sum += w
		}
		if rep.Nodes != nodes || math.Abs(rep.TotalWatts-wantTotal) > 1e-9 || math.Abs(sum-wantTotal) > 1e-9 {
			t.Fatalf("round %d: %d nodes, total %.9f, per-target sum %.9f, want %d nodes and %.9f", r, rep.Nodes, rep.TotalWatts, sum, nodes, wantTotal)
		}
		for j := 0; j < shared; j++ {
			if got, want := rep.PerTarget[fmt.Sprintf("cgroup:shared-%02d", j)], float64(nodes)*(1+float64(j)); math.Abs(got-want) > 1e-9 {
				t.Fatalf("round %d: shared key %d = %.9f, want %.9f", r, j, got, want)
			}
		}
		if len(rep.PerTarget) != shared+nodes {
			t.Fatalf("round %d: %d keys in the rollup, want %d", r, len(rep.PerTarget), shared+nodes)
		}
		rep.Release()
	}
	close(stop)
	readers.Wait()
	if got := c.Stats().Keys; got != shared+nodes*rounds {
		t.Fatalf("Stats().Keys = %d, want %d", got, shared+nodes*rounds)
	}
}

// BenchmarkIngestBinary measures binary ingest per row on 1,000-row
// provenance-stamped payloads: one node serially, then one node per parallel
// goroutine over the shared key table, which exposes contention on whatever
// state the workers share. The stable payloads keep every row where the node's
// last frame had it; the rotated ones alternate two row orders, so every
// positional check misses and every row takes the table lookup. Rewinding a
// node's last sequence number before each replay keeps every replay
// committing.
func BenchmarkIngestBinary(b *testing.B) {
	const rows = 1000
	payloads := func(node string, rotate bool) [2][]byte {
		frame := provFrame(node, 1, 1000, make([]vmbridge.TargetRow, rows))
		var out [2][]byte
		for v := range out {
			for i := range frame.Rows {
				j := i
				if rotate && v == 1 {
					j = (i + 1) % rows
				}
				frame.Rows[i] = vmbridge.TargetRow{Key: fmt.Sprintf("cgroup:svc-%04d", j), Watts: 1}
			}
			msg := vmbridge.AppendBinaryBatchVersion(nil, []vmbridge.VMPowerFrame{frame}, vmbridge.BinaryVersionProvenance)
			out[v] = msg[vmbridge.BinaryMessageHeader:]
		}
		return out
	}
	replay := func(c *Collector, n *nodeConn, p []byte) {
		n.mu.Lock()
		n.lastSeq = 0
		n.mu.Unlock()
		c.ingestBinary(n, p, vmbridge.BinaryVersionProvenance)
	}
	newCollector := func(b *testing.B) *Collector {
		c, err := New(Config{Codec: vmbridge.CodecBinary})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}
	for _, rotate := range []bool{false, true} {
		order := map[bool]string{false: "stable", true: "rotated"}[rotate]
		b.Run("serial/"+order, func(b *testing.B) {
			c := newCollector(b)
			n, p := newNodeConn("direct"), payloads("node", rotate)
			replay(c, n, p[1])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay(c, n, p[i%2])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
		b.Run("parallel/"+order, func(b *testing.B) {
			c := newCollector(b)
			var next atomic.Int32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := fmt.Sprintf("node-%d", next.Add(1))
				n, p := newNodeConn(id), payloads(id, rotate)
				for i := 0; pb.Next(); i++ {
					replay(c, n, p[i%2])
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
