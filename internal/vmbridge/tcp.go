package vmbridge

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/fanout"
)

// maxFrameLine bounds one JSON-encoded frame on the wire; a line beyond it is
// a protocol violation, not a bigger buffer waiting to happen. It is sized
// for a fleet frame carrying thousands of rows, not just the VM bridge's
// row-less frames.
const maxFrameLine = 1 << 20

// codecHelloWait bounds how long a publisher connection waits for the
// receiver's codec hello before falling back to JSON-lines. Legacy receivers
// never write, so they cost exactly this once per connection.
const codecHelloWait = 500 * time.Millisecond

// TCPPublisher is the wire transport of the bridge, the virtio-serial
// stand-in: it listens on a TCP address and streams every published batch to
// every connected guest. Connections are broadcast fan-out — a guest dialing
// in receives the frames of every VM and filters by name (DelegatedSource
// does). Each connection speaks the codec its receiver negotiated: JSON-lines
// (the default — one JSON object per line) or binary (the receiver opened
// with a codec hello — one length-prefixed message per batch). A slow or dead
// connection sheds whole batches drop-oldest and is dropped on write failure;
// it never backpressures the host pipeline.
type TCPPublisher struct {
	ln    net.Listener
	wg    sync.WaitGroup
	conns *fanout.Registry[*tcpConn, []VMPowerFrame]

	closeOnce sync.Once
	closeErr  error

	sent    atomic.Uint64
	dropped atomic.Uint64
}

type tcpConn struct {
	conn    net.Conn
	remote  string
	batches *fanout.Queue[[]VMPowerFrame] // batches pending for this connection, drop-oldest
	codec   atomic.Int32                  // Codec, set once negotiated
	wire    atomic.Int32                  // binary wire version, set once negotiated
	sent    atomic.Uint64                 // frames written to the wire
}

func offerBatch(c *tcpConn, frames []VMPowerFrame) { c.batches.Offer(frames) }

// ConnStats is the observable state of one live publisher connection, the
// per-connection rows /metrics exposes.
type ConnStats struct {
	// Remote is the receiver's address.
	Remote string
	// Codec is the negotiated wire encoding ("json", "binary").
	Codec Codec
	// WireVersion is the negotiated binary wire version (0 on JSON-lines):
	// BinaryVersionProvenance when the receiver requested provenance stamps,
	// BinaryVersionBase for an old peer.
	WireVersion int
	// SentFrames counts frames written to this connection's wire.
	SentFrames uint64
	// DroppedBatches counts whole batches shed drop-oldest because the
	// connection could not keep up.
	DroppedBatches uint64
}

// ListenTCP starts a frame publisher on addr ("127.0.0.1:9191"; port 0 picks
// a free one — see Addr).
func ListenTCP(addr string) (*TCPPublisher, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("vmbridge: listen on %s: %w", addr, err)
	}
	p := &TCPPublisher{ln: ln, conns: fanout.NewRegistry(offerBatch)}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address the publisher listens on.
func (p *TCPPublisher) Addr() net.Addr { return p.ln.Addr() }

// Connections returns how many guests are currently connected.
func (p *TCPPublisher) Connections() int { return p.conns.Len() }

// ConnStats snapshots every live connection, sorted by remote address.
func (p *TCPPublisher) ConnStats() []ConnStats {
	conns := p.conns.Sinks()
	stats := make([]ConnStats, 0, len(conns))
	for _, c := range conns {
		stats = append(stats, ConnStats{
			Remote:         c.remote,
			Codec:          Codec(c.codec.Load()),
			WireVersion:    int(c.wire.Load()),
			SentFrames:     c.sent.Load(),
			DroppedBatches: c.batches.Dropped(),
		})
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Remote < stats[j].Remote })
	return stats
}

// Sent returns how many frame deliveries reached a connection's wire so far.
func (p *TCPPublisher) Sent() uint64 { return p.sent.Load() }

// Dropped returns how many frame deliveries were lost to dead connections
// (write failures); frames shed by a slow connection's drop-oldest queue are
// not counted here, mirroring a serial port's silent overrun — ConnStats
// surfaces those per connection.
func (p *TCPPublisher) Dropped() uint64 { return p.dropped.Load() }

func (p *TCPPublisher) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &tcpConn{conn: conn, remote: conn.RemoteAddr().String(), batches: newFrameQueue[[]VMPowerFrame]()}
		if _, err := p.conns.Add(c); err != nil {
			conn.Close()
			return
		}
		p.wg.Add(1)
		go p.writeLoop(c)
	}
}

// negotiate waits briefly for the receiver's codec hello; no hello (a legacy
// receiver's first bytes, or silence until the deadline) keeps JSON-lines. A
// binary hello may be followed by the provenance capability line, upgrading
// the connection to wire version 2; an old receiver stops at the hello, so the
// capability peek runs out the same deadline and version 1 stands. The
// publisher never reads the connection again after this.
func negotiate(conn net.Conn) (Codec, int) {
	conn.SetReadDeadline(time.Now().Add(codecHelloWait))
	defer conn.SetReadDeadline(time.Time{})
	br := bufio.NewReaderSize(conn, len(helloLine)+len(capsLine))
	if readHello(br) == CodecJSON {
		return CodecJSON, 0
	}
	if readCaps(br) {
		return CodecBinary, BinaryVersionProvenance
	}
	return CodecBinary, BinaryVersionBase
}

// writeLoop drains one connection's batch queue onto the wire — one buffered
// write+flush per batch on either codec, so a node's whole round costs one
// syscall. A write failure (guest went away) drops the connection.
func (p *TCPPublisher) writeLoop(c *tcpConn) {
	defer p.wg.Done()
	defer c.conn.Close()
	codec, wire := negotiate(c.conn)
	c.codec.Store(int32(codec))
	c.wire.Store(int32(wire))
	w := bufio.NewWriterSize(c.conn, 32*1024)
	var scratch []byte // binary encoding buffer, reused across batches
	for batch := range c.batches.C() {
		var err error
		written := len(batch)
		if codec == CodecBinary {
			scratch = AppendBinaryBatchVersion(scratch[:0], batch, wire)
			_, err = w.Write(scratch)
		} else {
			for _, frame := range batch {
				line, merr := json.Marshal(frame)
				if merr != nil {
					p.dropped.Add(1)
					written--
					continue
				}
				line = append(line, '\n')
				if _, err = w.Write(line); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			p.dropConn(c)
			return
		}
		p.sent.Add(uint64(written))
		c.sent.Add(uint64(written))
	}
}

func (p *TCPPublisher) dropConn(c *tcpConn) {
	if _, ok := p.conns.Remove(c); ok {
		p.dropped.Add(1)
		c.batches.Close()
		c.conn.Close()
	}
}

// Send implements Transport: the frame is queued as a single-frame batch for
// every live connection (drop-oldest per connection). With no guest connected
// the frame is simply lost, like writing to an unattached serial port.
func (p *TCPPublisher) Send(frame VMPowerFrame) error {
	return p.SendBatch([]VMPowerFrame{frame})
}

// SendBatch implements Transport: the batch is queued as a unit for every
// live connection, so a connection that sheds load sheds whole rounds. The
// publisher keeps a reference to the slice until every connection has written
// it; the caller must not modify it after the call.
func (p *TCPPublisher) SendBatch(frames []VMPowerFrame) error {
	if p.conns.Closed() {
		return ErrClosed
	}
	if len(frames) > 0 {
		p.conns.Publish(frames)
	}
	return nil
}

// Close implements Transport: the listener and every connection shut down,
// so connected guests observe link loss. It is idempotent.
func (p *TCPPublisher) Close() error {
	p.closeOnce.Do(func() {
		remaining := p.conns.CloseAll()
		p.closeErr = p.ln.Close()
		for _, c := range remaining {
			c.batches.Close()
			c.conn.Close()
		}
		p.wg.Wait()
	})
	return p.closeErr
}

// TCPReceiver consumes the frame stream of a TCPPublisher on either codec.
// When the connection drops (or the publisher closes), the Frames channel
// closes — the guest-side DelegatedSource turns that into its staleness
// policy.
type TCPReceiver struct {
	conn   net.Conn
	codec  Codec
	frames *fanout.Queue[VMPowerFrame]
	wg     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	decodeErrs atomic.Uint64
}

// DialTCP connects to a TCPPublisher at addr on the JSON-lines codec.
func DialTCP(addr string) (*TCPReceiver, error) {
	return DialTCPCodec(addr, CodecJSON)
}

// DialTCPCodec connects to a TCPPublisher at addr on the given codec. Binary
// connections open with the codec hello plus the provenance capability, so a
// current publisher switches to wire version 2 before its first write; an old
// publisher reads only the hello and answers in version 1, which the read loop
// accepts per message.
func DialTCPCodec(addr string, codec Codec) (*TCPReceiver, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("vmbridge: dial %s: %w", addr, err)
	}
	if codec == CodecBinary {
		if err := RequestBinaryProvenance(conn); err != nil {
			conn.Close()
			return nil, fmt.Errorf("vmbridge: dial %s: send codec hello: %w", addr, err)
		}
	}
	r := &TCPReceiver{conn: conn, codec: codec, frames: newFrameQueue[VMPowerFrame]()}
	r.wg.Add(1)
	go r.readLoop()
	return r, nil
}

func (r *TCPReceiver) readLoop() {
	defer r.wg.Done()
	// The read loop is the only sender; frames.Close afterwards waits out
	// the last offer, so consumers see every decoded frame, then the close.
	defer r.frames.Close()
	if r.codec == CodecBinary {
		r.readBinary()
		return
	}
	scanner := bufio.NewScanner(r.conn)
	scanner.Buffer(make([]byte, 4096), maxFrameLine)
	for scanner.Scan() {
		var frame VMPowerFrame
		if err := json.Unmarshal(scanner.Bytes(), &frame); err != nil {
			// A torn line is a transport glitch, not a reason to kill the
			// link; count it and resync on the next newline.
			r.decodeErrs.Add(1)
			continue
		}
		r.frames.Offer(frame)
	}
}

func (r *TCPReceiver) readBinary() {
	br := bufio.NewReaderSize(r.conn, 64*1024)
	var buf []byte
	var frames []VMPowerFrame
	for {
		payload, version, err := ReadBinaryMessageVersion(br, buf[:0])
		if err != nil {
			// Binary framing cannot resync mid-stream: any read or framing
			// error is link loss. Only a malformed message counts as a decode
			// error; EOF and socket errors are just the link going away.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				r.decodeErrs.Add(1)
			}
			return
		}
		buf = payload
		frames, err = decodeBinaryFramesVersion(payload, version, frames[:0])
		if err != nil {
			r.decodeErrs.Add(1)
			return
		}
		for _, f := range frames {
			r.frames.Offer(f)
		}
	}
}

// Frames implements Receiver.
func (r *TCPReceiver) Frames() <-chan VMPowerFrame { return r.frames.C() }

// Codec returns the wire encoding this receiver negotiated.
func (r *TCPReceiver) Codec() Codec { return r.codec }

// DecodeErrors returns how many wire messages failed to decode as frames.
func (r *TCPReceiver) DecodeErrors() uint64 { return r.decodeErrs.Load() }

// DroppedFrames returns how many decoded frames the receiver's buffer evicted
// unread (a consumer slower than the wire).
func (r *TCPReceiver) DroppedFrames() uint64 { return r.frames.Dropped() }

// Close implements Receiver: the connection closes and the Frames channel
// closes once the read loop drains. It is idempotent.
func (r *TCPReceiver) Close() error {
	r.closeOnce.Do(func() {
		r.closeErr = r.conn.Close()
		r.wg.Wait()
	})
	return r.closeErr
}

// maxDialBackoff caps the pause between dial attempts however far the
// exponential climb has gotten.
const maxDialBackoff = 5 * time.Second

// DialTCPWithRetry dials a TCPPublisher on the JSON-lines codec, retrying up
// to attempts times — a guest daemon typically races the host daemon's
// listener, the way a VM boots before its management agent is up.
func DialTCPWithRetry(addr string, attempts int, base time.Duration) (*TCPReceiver, error) {
	return DialTCPCodecWithRetry(addr, CodecJSON, attempts, base)
}

// DialTCPCodecWithRetry dials a TCPPublisher on the given codec, retrying up
// to attempts times with capped exponential backoff: the pause starts at base,
// doubles per attempt up to maxDialBackoff, and is jittered ±25% so a fleet
// of receivers restarting together does not reconnect in lockstep. Failed
// attempts and eventual success-after-retry are surfaced in slog with the
// attempt count.
func DialTCPCodecWithRetry(addr string, codec Codec, attempts int, base time.Duration) (*TCPReceiver, error) {
	if attempts < 1 {
		return nil, errors.New("vmbridge: dial attempts must be at least 1")
	}
	var lastErr error
	pause := base
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(jitter(pause))
			if pause *= 2; pause > maxDialBackoff {
				pause = maxDialBackoff
			}
		}
		r, err := DialTCPCodec(addr, codec)
		if err == nil {
			if i > 0 {
				slog.Info("vmbridge: dial succeeded after retries", "addr", addr, "attempt", i+1, "codec", codec.String())
			}
			return r, nil
		}
		lastErr = err
		if i < attempts-1 {
			slog.Warn("vmbridge: dial failed, backing off", "addr", addr, "attempt", i+1, "attempts", attempts, "backoff", pause, "err", err)
		}
	}
	slog.Warn("vmbridge: dial gave up", "addr", addr, "attempts", attempts, "err", lastErr)
	return nil, fmt.Errorf("vmbridge: dial %s: gave up after %d attempts: %w", addr, attempts, lastErr)
}

// jitter spreads a backoff pause uniformly over ±25% of its nominal value.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	spread := d / 2
	return d - spread/2 + time.Duration(rand.Int63n(int64(spread)+1))
}
