package collector

import (
	"fmt"

	"powerapi/internal/vmbridge"
)

// In-process feeding: with Config.Passive the collector dials nothing and the
// embedding process plays the daemons itself, pushing encoded wire payloads
// straight into the ingest queues. powerapi-bench drives its fleet-scale
// cells through these hooks, so the metered path — pooled buffer, drop-oldest
// queue, worker decode, seq-strict commit — is exactly the one a socket reader
// feeds, minus the socket.

// FeedPayload hands one encoded wire message — a complete binary message
// (header included, so the declared version travels with the bytes), or one
// JSON frame line, matching the collector's configured codec — to node i's
// ingest queue exactly as the link reader would. The message is copied into a
// pooled buffer, so the caller may reuse it immediately. Nodes are indexed in
// Config.Nodes order.
func (c *Collector) FeedPayload(node int, msg []byte) error {
	n, err := c.nodeAt(node)
	if err != nil {
		return err
	}
	item := payloadItem{buf: getBuf()}
	if c.cfg.Codec == vmbridge.CodecBinary {
		payload, wire, err := vmbridge.SplitBinaryMessage(msg)
		if err != nil {
			putBuf(item.buf)
			return fmt.Errorf("collector: feed node %d: %w", node, err)
		}
		item.wire = uint8(wire)
		msg = payload
	}
	n.bytes.Add(uint64(len(msg)))
	*item.buf = append(*item.buf, msg...)
	c.enqueue(n, item)
	return nil
}

// NodeLastSeq returns node i's last committed frame sequence — the cheap poll
// a feeder uses to wait for its payloads to land (Stats snapshots every node
// and allocates; this does neither).
func (c *Collector) NodeLastSeq(node int) uint64 {
	n, err := c.nodeAt(node)
	if err != nil {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastSeq
}

func (c *Collector) nodeAt(i int) (*nodeConn, error) {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("collector: node index %d out of range 0..%d", i, len(c.nodes)-1)
	}
	return c.nodes[i], nil
}
