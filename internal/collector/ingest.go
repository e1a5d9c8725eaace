package collector

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/fanout"
	"powerapi/internal/obs"
	"powerapi/internal/target"
	"powerapi/internal/vmbridge"
)

// Ingest is the gather half of the collector: per-node reader goroutines that
// do nothing but blocking socket reads, per-node drop-oldest payload queues
// with pooled buffers, and a bounded worker pool that decodes payloads into
// each node's retained contribution. The split keeps the expensive work (the
// decode) on a fixed number of goroutines however many nodes are connected,
// and the queue keeps one slow decode from backing a socket up: a node that
// outpaces its drainage sheds whole payloads, oldest first — the same
// load-shedding contract the VM bridge transports make.

// payloadQueueDepth is the per-node queue depth. A node publishes one payload
// per daemon round, so a backlog deeper than a few rounds means the workers
// are saturated and older rounds are worthless anyway.
const payloadQueueDepth = 4

// maxReconnectBackoff caps the exponential climb of a node link's redial
// pause.
const maxReconnectBackoff = 5 * time.Second

// bufPool recycles payload buffers across all node links. Buffers travel as
// *[]byte end to end — pool to queue to worker and back — so returning one
// re-uses its box instead of allocating a fresh one per payload (the classic
// sync.Pool re-boxing leak, which would cost one heap allocation per node per
// round and break the allocation-flat ingest claim).
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { *b = (*b)[:0]; bufPool.Put(b) }

// payloadItem is one queued wire payload plus the binary wire version its
// message header declared (0 on JSON-lines) — the version must travel with the
// bytes because the decode worker never sees the stripped message header.
type payloadItem struct {
	buf  *[]byte
	wire uint8
}

// dropPayload returns an evicted or discarded payload's buffer to the pool.
func dropPayload(p payloadItem) { putBuf(p.buf) }

// nodeConn is one gathered daemon link: the dial/read goroutine's state, the
// ingest queue, and the node's retained contribution the rollup sweeps.
type nodeConn struct {
	addr string

	// Link state, guarded by connMu so retire can interrupt a blocked read.
	connMu  sync.Mutex
	conn    net.Conn
	retired bool

	// Ingest queue: drop-oldest, evicted buffers go back to the pool.
	payloads *fanout.Queue[payloadItem]
	queued   atomic.Bool

	// Decode scratch, guarded by drainMu (one worker drains a node at a
	// time). building ping-pongs with the retained slices at commit, so the
	// steady state allocates neither. keys is the key-table view the payload
	// under decode resolves against. frameCB/rowCB are the decode callbacks,
	// built once on the node's first binary payload and reused for every
	// later message so the per-message ingest path stays allocation-free.
	drainMu  sync.Mutex
	building rowBuf
	pending  pendingFrame
	keys     []keyEntry
	frameCB  func(h vmbridge.FrameHeader) bool
	rowCB    func(key []byte, watts float64)

	// Retained contribution, guarded by mu; the rollup reads it. Only the
	// drainMu holder writes it, so ingest may read slots without mu.
	mu       sync.Mutex
	name     string
	source   string
	lastSeq  uint64
	lastTS   time.Duration
	lastWall int64 // tracer-monotonic commit stamp; 0 = never
	total    float64
	slots    []int32
	watts    []float64
	// Contract bookkeeping carried with the contribution: the sum of its
	// top-level cgroup rows (the disjoint subset whose total must not exceed
	// the node total — nested rows double-count by design) and how many rows
	// carried non-finite or negative watts.
	topWatts float64
	badRows  int
	// Provenance-derived link quality, meaningful only while lastEmit != 0
	// (a version-1 peer never stamps). Offsets are arrival−emit deltas in
	// nanoseconds across two unrelated monotonic clocks: only their movement
	// means anything. minOffset approximates the true clock offset (the
	// least-queued delivery ever seen), so lastOffset−minOffset estimates
	// ingest lag and the EWMA's drift from baseOffset estimates clock skew.
	lastEmit   time.Duration
	lastRound  uint64
	lastTrace  uint64
	seqGaps    uint64
	hasOffset  bool
	baseOffset int64
	minOffset  int64
	lastOffset int64
	ewmaOffset float64

	// Health-pass state, touched only under the collector's roundMu (one
	// health evaluation at a time); state itself is atomic for cheap reads
	// from Stats and the HTTP surface.
	state       atomic.Int32 // NodeState
	violations  atomic.Uint64
	violMask    uint32
	prevSeq     uint64
	prevSeqGaps uint64
	prevRecon   uint64
	prevTotal   float64
	v1Noted     bool

	connected  atomic.Bool
	sawV1      atomic.Bool // binary wire version 1 seen while provenance was requested
	frames     atomic.Uint64
	bytes      atomic.Uint64
	decodeErrs atomic.Uint64
	reconnects atomic.Uint64
	staleSkips atomic.Uint64
}

type rowBuf struct {
	slots    []int32
	watts    []float64
	topWatts float64
	badRows  int
}

// pendingFrame is the header of the frame currently being decoded; its byte
// fields alias the payload under decode.
type pendingFrame struct {
	valid  bool
	vm     []byte
	source []byte
	seq    uint64
	ts     time.Duration
	watts  float64
	emit   time.Duration
	round  uint64
	trace  uint64
}

func newNodeConn(addr string) *nodeConn {
	return &nodeConn{addr: addr, payloads: fanout.NewQueue(fanout.DropOldest, payloadQueueDepth, dropPayload)}
}

func (n *nodeConn) retire() {
	n.connMu.Lock()
	n.retired = true
	if n.conn != nil {
		n.conn.Close()
	}
	n.connMu.Unlock()
}

func (n *nodeConn) isRetired() bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return n.retired
}

// setConn installs (or clears) the live connection, closing it instead if the
// node was retired meanwhile.
func (n *nodeConn) setConn(conn net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.retired && conn != nil {
		conn.Close()
		return false
	}
	n.conn = conn
	return true
}

// nodeLoop owns one link: dial with capped exponential backoff and jitter,
// read until link loss, reset and redial — forever, until the node is retired
// or the collector closes.
func (c *Collector) nodeLoop(n *nodeConn) {
	defer c.wg.Done()
	backoff := c.cfg.DialBackoff
	for attempt := 1; ; attempt++ {
		if c.closed() || n.isRetired() {
			return
		}
		conn, err := net.Dial("tcp", n.addr)
		if err == nil && c.cfg.Codec == vmbridge.CodecBinary {
			if herr := vmbridge.RequestBinaryProvenance(conn); herr != nil {
				conn.Close()
				err = herr
			}
		}
		if err != nil {
			c.log.Warn("collector: node dial failed, backing off",
				"addr", n.addr, "attempt", attempt, "backoff", backoff, "err", err)
			select {
			case <-c.done:
				return
			case <-time.After(jitter(backoff)):
			}
			if backoff *= 2; backoff > maxReconnectBackoff {
				backoff = maxReconnectBackoff
			}
			continue
		}
		if !n.setConn(conn) {
			return
		}
		if attempt > 1 {
			c.log.Info("collector: node connected after retries", "addr", n.addr, "attempt", attempt)
		}
		backoff, attempt = c.cfg.DialBackoff, 0
		n.connected.Store(true)
		c.readConn(n, conn)
		n.connected.Store(false)
		n.setConn(nil)
		conn.Close()
		n.reconnects.Add(1)
		// The daemon restarts its sequence from 1 on reconnect; forget the
		// old numbering so the fresh stream is accepted. Its monotonic clock
		// restarted too, so the offset baseline resets with it.
		n.sawV1.Store(false)
		n.mu.Lock()
		n.lastSeq = 0
		n.lastEmit = 0
		n.hasOffset = false
		n.v1Noted = false
		n.mu.Unlock()
	}
}

// jitter spreads a backoff pause uniformly over ±25% of its nominal value.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	spread := d / 2
	return d - spread/2 + time.Duration(rand.Int63n(int64(spread)+1))
}

// readConn pumps one live connection's payloads into the node's queue until
// link loss. On the binary codec a payload is one length-prefixed message; on
// JSON-lines it is one line. Buffers come from the shared pool and return to
// it when evicted or drained.
func (c *Collector) readConn(n *nodeConn, conn net.Conn) {
	if c.cfg.Codec == vmbridge.CodecBinary {
		br := bufio.NewReaderSize(conn, 64*1024)
		for {
			pb := getBuf()
			payload, wire, err := vmbridge.ReadBinaryMessageVersion(br, *pb)
			if err != nil {
				putBuf(pb)
				return
			}
			*pb = payload // ReadBinaryMessageVersion may have grown the backing array
			n.bytes.Add(uint64(len(payload)) + vmbridge.BinaryMessageHeader)
			if wire == vmbridge.BinaryVersionBase {
				// Provenance was requested; a version-1 answer marks an old
				// peer. The health pass turns this into a codec_fallback event.
				n.sawV1.Store(true)
			}
			c.enqueue(n, payloadItem{buf: pb, wire: uint8(wire)})
		}
	}
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 4096), 1<<20)
	for scanner.Scan() {
		line := scanner.Bytes()
		n.bytes.Add(uint64(len(line)) + 1)
		pb := getBuf()
		*pb = append(*pb, line...)
		c.enqueue(n, payloadItem{buf: pb})
	}
}

// enqueue hands one payload to the worker pool, shedding the node's oldest
// pending payload if its queue is full.
//
//powerapi:hotpath
func (c *Collector) enqueue(n *nodeConn, item payloadItem) {
	n.payloads.Offer(item)
	if n.queued.CompareAndSwap(false, true) {
		select {
		case c.notify <- n:
		default:
			// Queue saturated (cannot happen while nodes <= cap): unmark so
			// the next payload retries rather than stranding the queue.
			n.queued.Store(false)
		}
	}
}

// worker is one ingest worker: it drains whole node queues, decoding each
// payload into the node's retained contribution.
func (c *Collector) worker() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case n := <-c.notify:
			n.queued.Store(false)
			n.drainMu.Lock()
			for {
				item, ok := n.payloads.TryPop()
				if !ok {
					break
				}
				c.ingest(n, *item.buf, int(item.wire))
				putBuf(item.buf)
			}
			n.drainMu.Unlock()
		}
	}
}

// ingest decodes one payload and commits its frames. Caller holds n.drainMu.
// The span is recorded against timestamp 0 — ingest happens between fleet
// rounds, so it feeds the stage histogram without joining a round trace.
func (c *Collector) ingest(n *nodeConn, payload []byte, wire int) {
	start := c.tracer.Now()
	if c.cfg.Codec == vmbridge.CodecBinary {
		c.ingestBinary(n, payload, wire)
	} else {
		c.ingestJSON(n, payload)
	}
	c.tracer.Record(0, obs.StageIngest, 0, start, c.tracer.Now())
}

// ingestBinary folds a binary batch allocation-free: row keys resolve to
// fleet-global slots (keyTable.resolve), rows append into the
// node's reusable building buffers (accumulating the top-level-row sum the
// conservation contract checks), and commit swaps them into place. wire is
// the message's declared version — provenance stamps land on version 2,
// version 1 frames commit with zero stamps exactly as an old peer sent them.
//
//powerapi:hotpath
func (c *Collector) ingestBinary(n *nodeConn, payload []byte, wire int) {
	n.pending.valid = false
	n.building.reset()
	n.keys = c.keys.load()
	if n.frameCB == nil {
		//powerapi:allow hotpath closures built once per node on first payload, reused for every later message
		n.frameCB = func(h vmbridge.FrameHeader) bool {
			c.commit(n) // frame boundary: land the previous one
			n.pending = pendingFrame{
				valid: true, vm: h.VM, source: h.SourceMode, seq: h.Seq, ts: h.Timestamp, watts: h.Watts,
				emit: h.EmitMono, round: h.Round, trace: h.TraceID,
			}
			return true
		}
		//powerapi:allow hotpath closures built once per node on first payload, reused for every later message
		n.rowCB = func(key []byte, watts float64) {
			slot, top := c.keys.resolve(&n.keys, n.slots, len(n.building.slots), key)
			n.building.slots = append(n.building.slots, slot)
			n.building.watts = append(n.building.watts, watts)
			n.building.note(top, watts)
		}
	}
	err := vmbridge.DecodeBinaryBatchVersion(payload, wire, n.frameCB, n.rowCB)
	if err != nil {
		n.pending.valid = false
		n.building.reset()
		n.decodeErrs.Add(1)
		return
	}
	c.commit(n)
}

// ingestJSON folds one JSON-lines frame — the compatibility path, which pays
// per-frame allocation the way any JSON decode does. Provenance fields decode
// when the peer stamps them and stay zero otherwise (an old daemon's lines
// simply lack the keys).
func (c *Collector) ingestJSON(n *nodeConn, payload []byte) {
	var frame vmbridge.VMPowerFrame
	if err := json.Unmarshal(payload, &frame); err != nil {
		n.decodeErrs.Add(1)
		return
	}
	n.building.reset()
	view := c.keys.load()
	for i, row := range frame.Rows {
		slot, top := c.keys.resolve(&view, n.slots, i, []byte(row.Key))
		n.building.slots = append(n.building.slots, slot)
		n.building.watts = append(n.building.watts, row.Watts)
		n.building.note(top, row.Watts)
	}
	n.pending = pendingFrame{
		valid: true, vm: []byte(frame.VM), source: []byte(frame.SourceMode), seq: frame.Seq, ts: frame.Timestamp, watts: frame.Watts,
		emit: frame.EmitMono, round: frame.Round, trace: frame.TraceID,
	}
	c.commit(n)
}

func (b *rowBuf) reset() {
	b.slots = b.slots[:0]
	b.watts = b.watts[:0]
	b.topWatts = 0
	b.badRows = 0
}

// note folds one row into the contract accumulators: the top-level sum the
// conservation check compares against the node total, and the bad-row count
// (NaN, negative or absurd watts — `w >= 0` is false for NaN).
//
//powerapi:hotpath
func (b *rowBuf) note(top bool, w float64) {
	if !(w >= 0 && w <= maxSaneRowWatts) {
		b.badRows++
		return
	}
	if top {
		b.topWatts += w
	}
}

// offsetAlpha is the EWMA weight of one fresh arrival−emit delta. At one
// frame per 250ms round the estimate settles in a few seconds and a
// steady clock drift shows as the EWMA walking away from the baseline.
const offsetAlpha = 0.1

// commit lands the pending frame as the node's retained contribution, unless
// its sequence number is stale (a replay or reorder). The building buffers
// swap with the retained ones, so both ping-pong without reallocating. The
// arrival stamp is taken before the lock — provenance math under the lock is
// pure arithmetic.
//
//powerapi:hotpath
func (c *Collector) commit(n *nodeConn) {
	if !n.pending.valid {
		return
	}
	n.pending.valid = false
	now := c.tracer.Now()
	n.mu.Lock()
	if n.pending.seq <= n.lastSeq {
		n.mu.Unlock()
		n.building.reset()
		return
	}
	if n.lastSeq != 0 && n.pending.seq > n.lastSeq+1 {
		// Frames went missing between the last accepted sequence and this
		// one (publisher shed load, or the wire dropped a round).
		n.seqGaps += n.pending.seq - n.lastSeq - 1
	}
	n.lastSeq = n.pending.seq
	if n.name != string(n.pending.vm) { // comparison converts without allocating
		//powerapi:allow hotpath name changes only on the node's first frame or a rename
		n.name = string(n.pending.vm)
	}
	if n.source != string(n.pending.source) {
		//powerapi:allow hotpath source mode changes only on the node's first frame or a reconfigure
		n.source = string(n.pending.source)
	}
	n.lastTS = n.pending.ts
	n.total = n.pending.watts
	n.lastWall = now
	n.lastEmit = n.pending.emit
	n.lastRound = n.pending.round
	n.lastTrace = n.pending.trace
	if n.pending.emit != 0 {
		off := now - int64(n.pending.emit)
		n.lastOffset = off
		if !n.hasOffset {
			n.hasOffset = true
			n.baseOffset, n.minOffset, n.ewmaOffset = off, off, float64(off)
		} else {
			if off < n.minOffset {
				n.minOffset = off
			}
			n.ewmaOffset += offsetAlpha * (float64(off) - n.ewmaOffset)
		}
	}
	n.topWatts = n.building.topWatts
	n.badRows = n.building.badRows
	n.slots, n.building.slots = n.building.slots, n.slots
	n.watts, n.building.watts = n.building.watts, n.watts
	n.mu.Unlock()
	n.building.reset()
	n.frames.Add(1)
}

// maxSaneRowWatts bounds a single row's plausible power draw; `w >= 0 &&
// w <= maxSaneRowWatts` is false for NaN, negatives and absurd values alike,
// so one comparison pair classifies a row as bad.
const maxSaneRowWatts = 1e9

// keyTable is the fleet-global route-key interner: string key ↔ dense slot,
// with a parsed target per slot for history recording and a top-level flag
// per slot for the conservation contract (only rows like "cgroup:x" — no
// nested path — sum against the node total; "cgroup:x/y" double-counts its
// parent by design). Readers load the published view — one append-only
// slice of entries indexed by slot — without any lock; slots are never
// recycled, so an entry once published never changes. Lookups that miss the
// view serialise on mu and resolve through the KeySlots map; assigning a
// never-seen key publishes a grown view.
type keyTable struct {
	mu   sync.Mutex
	ks   core.KeySlots
	view atomic.Pointer[[]keyEntry]
}

// keyEntry is one slot's key and what the collector derives from it.
type keyEntry struct {
	key    string
	top    bool
	target target.Target
}

// load returns the current view: every slot assigned so far.
func (t *keyTable) load() []keyEntry {
	if v := t.view.Load(); v != nil {
		return *v
	}
	return nil
}

// resolve returns the slot and top-level flag of the key at row i of a node's
// frame. Nodes resend the same keys in the same order every round, so the
// first guess is the slot row i resolved to in the node's last committed
// frame, accepted only when that slot's key equals the row's key bytes —
// lock-free against the caller's view. A miss looks the key up in the table,
// assigning it a slot if it is new, and refreshes the caller's view.
//
//powerapi:hotpath
func (t *keyTable) resolve(view *[]keyEntry, last []int32, i int, key []byte) (int32, bool) {
	if i < len(last) {
		if s, v := last[i], *view; int(s) < len(v) && v[s].key == string(key) { // comparison converts without allocating
			return s, v[s].top
		}
	}
	t.mu.Lock()
	s, ok := t.ks.LookupBytes(key)
	if !ok {
		//powerapi:allow hotpath miss path: a never-seen key interns once, every later round hits the view
		s = t.assign(string(key))
	}
	*view = t.load()
	t.mu.Unlock()
	return s, (*view)[s].top
}

// assign interns a never-seen key and publishes the grown view. Caller holds
// mu. The append writes past every published view's length, so readers of
// an older view never see the new entry change under them.
func (t *keyTable) assign(key string) int32 {
	s := t.ks.Assign(key)
	tg, err := target.Parse(key)
	if err != nil {
		tg = target.Target{}
	}
	v := append(t.load(), keyEntry{key: key, top: isTopLevelKey(key), target: tg})
	t.view.Store(&v)
	return s
}

// isTopLevelKey reports whether a route key names a top-level cgroup — the
// rows whose watts are mutually exclusive and so must sum to at most the node
// total under the conservation contract.
func isTopLevelKey(key string) bool {
	const p = "cgroup:"
	return strings.HasPrefix(key, p) && !strings.Contains(key[len(p):], "/")
}
