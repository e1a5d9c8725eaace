// Package fanout is the bounded-delivery plumbing every report stream in the
// system shares: monitor and fleet subscriptions, the VM bridge's frame and
// batch links, and the collector's per-node ingest queues. It holds two
// pieces. Queue is a bounded channel with a backpressure policy (Conflate,
// DropOldest or Block), delivery counters, a close that is race-free against
// an in-flight send, and an evict hook that receives every value the queue
// gives up on, so leased reports are released and pooled buffers returned.
// Registry is an id→sink set that publishes one value to a lock-free
// snapshot of its sinks.
package fanout

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Policy tells a queue what to do when its buffer is full: stay lossless
// for the consumer (Block) or shed load in a defined way (Conflate,
// DropOldest).
type Policy int

const (
	// Conflate keeps only the most recent value: the buffer is a single slot
	// and a newer value displaces an unread older one. A consumer always
	// observes the latest value, never a stale backlog. This is the default.
	Conflate Policy = iota
	// DropOldest buffers up to the queue's depth and evicts the oldest unread
	// value to make room for a new one.
	DropOldest
	// Block makes the sender wait until the consumer has drained space: the
	// consumer sees every value exactly once, at the price of backpressuring
	// the sender. An abandoned Block queue stalls its sender until Close.
	Block
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Conflate:
		return "conflate"
	case DropOldest:
		return "drop-oldest"
	case Block:
		return "block"
	default:
		return fmt.Sprintf("BackpressurePolicy(%d)", int(p))
	}
}

// Valid reports whether the policy is one of the defined values.
func (p Policy) Valid() bool {
	return p == Conflate || p == DropOldest || p == Block
}

// DefaultBuffer is the depth of DropOldest and Block subscriptions that do
// not choose one.
const DefaultBuffer = 16

// Depth validates a subscription's policy and requested buffer and returns
// the queue depth they mean: Conflate always holds one value, a zero buffer
// selects DefaultBuffer, and a negative buffer or undefined policy is an
// error. Every subscribe API applies these rules.
func Depth(policy Policy, buffer int) (int, error) {
	if !policy.Valid() {
		return 0, fmt.Errorf("invalid backpressure policy %v", policy)
	}
	if buffer < 0 {
		return 0, fmt.Errorf("subscription buffer must not be negative, got %d", buffer)
	}
	if policy == Conflate {
		return 1, nil
	}
	if buffer == 0 {
		return DefaultBuffer, nil
	}
	return buffer, nil
}

// Queue is one bounded delivery channel. Any number of goroutines may Offer
// (offers serialise on the queue's send mutex); one or more consumers receive
// from C or TryPop. Every value the queue accepts either reaches a consumer
// or is passed to the evict hook exactly once: evicted by Conflate or
// DropOldest, refused after Close, aborted while a Block offer waited, or
// still buffered when Discard runs.
type Queue[T any] struct {
	ch     chan T
	done   chan struct{}
	policy Policy
	evict  func(T)

	// sendMu serialises offers against Close, so the channel is only ever
	// closed with no send in flight.
	sendMu    sync.Mutex
	closeOnce sync.Once

	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// NewQueue returns an open queue of the given policy and depth (at least 1;
// see Depth). evict may be nil when dropped values need no cleanup.
func NewQueue[T any](policy Policy, depth int, evict func(T)) *Queue[T] {
	return &Queue[T]{ch: make(chan T, depth), done: make(chan struct{}), policy: policy, evict: evict}
}

// C returns the receive side. It is closed by Close and Discard, so a
// consumer ranging over it terminates.
func (q *Queue[T]) C() <-chan T { return q.ch }

// Delivered counts values placed into the channel, including values later
// evicted unread.
func (q *Queue[T]) Delivered() uint64 { return q.delivered.Load() }

// Dropped counts delivered values evicted unread to make room for newer
// ones. Always zero for Block queues.
func (q *Queue[T]) Dropped() uint64 { return q.dropped.Load() }

// Info returns the queue's diagnostic row under the given name; the ID is
// left for the registry to fill.
func (q *Queue[T]) Info(name string) Info {
	return Info{Name: name, Policy: q.policy, Delivered: q.Delivered(), Dropped: q.Dropped()}
}

// Offer delivers one value according to the policy. Conflate and DropOldest
// never block: when the buffer is full the oldest unread value is evicted to
// make room. Block waits for room until Close aborts it. The evict hook runs
// after the send mutex is released.
//
//powerapi:hotpath
func (q *Queue[T]) Offer(v T) {
	q.sendMu.Lock()
	select {
	case <-q.done:
		q.sendMu.Unlock()
		q.drop(v)
		return
	default:
	}
	if q.policy == Block {
		select {
		case q.ch <- v:
			q.delivered.Add(1)
			q.sendMu.Unlock()
		case <-q.done:
			q.sendMu.Unlock()
			q.drop(v)
		}
		return
	}
	var old T
	evicted := false
	select {
	case q.ch <- v:
	default:
		// Full: take the oldest unread value, unless a consumer just did.
		// Either way a slot is free, and no one else can fill it: sending
		// needs sendMu, which this goroutine holds.
		select {
		case old = <-q.ch:
			evicted = true
		default:
		}
		q.ch <- v
	}
	q.delivered.Add(1)
	q.sendMu.Unlock()
	if evicted {
		q.dropped.Add(1)
		q.drop(old)
	}
}

// TryPop receives one buffered value without blocking; ok is false when
// nothing is buffered or the queue is closed and drained.
//
//powerapi:hotpath
func (q *Queue[T]) TryPop() (v T, ok bool) {
	select {
	case v, ok = <-q.ch:
	default:
	}
	return v, ok
}

// Close stops the queue: a waiting Block offer is aborted, later offers are
// refused, and the channel closes once no send is in flight. Buffered values
// stay receivable. Close is idempotent.
func (q *Queue[T]) Close() {
	q.closeOnce.Do(func() {
		close(q.done)
		q.sendMu.Lock()
		close(q.ch)
		q.sendMu.Unlock()
	})
}

// Discard closes the queue and passes every value still buffered to the
// evict hook, for owners whose consumers must not see values after close.
func (q *Queue[T]) Discard() {
	q.Close()
	for v := range q.ch {
		q.drop(v)
	}
}

func (q *Queue[T]) drop(v T) {
	if q.evict != nil {
		q.evict(v)
	}
}

// Info is one registered subscription's diagnostic snapshot: its identity
// plus its queue's delivery counters.
type Info struct {
	// ID is the registry-unique id (stable for the sink's lifetime).
	ID uint64 `json:"id"`
	// Name is the diagnostic label (may be empty).
	Name string `json:"name,omitempty"`
	// Policy is the backpressure policy.
	Policy Policy `json:"-"`
	// Delivered counts values placed into the channel.
	Delivered uint64 `json:"delivered"`
	// Dropped counts delivered values evicted unread (Conflate/DropOldest).
	Dropped uint64 `json:"dropped"`
}
