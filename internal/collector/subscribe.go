package collector

import (
	"errors"
	"fmt"

	"powerapi/internal/core"
	"powerapi/internal/fanout"
)

// SubscribeOptions shapes one fleet subscription.
type SubscribeOptions struct {
	// Name labels the subscription in Stats (may be empty).
	Name string
	// Policy is the backpressure policy (Conflate by default).
	Policy core.BackpressurePolicy
	// Buffer is the channel depth for DropOldest/Block
	// (core.DefaultSubscriptionBuffer when zero; Conflate always uses 1).
	Buffer int
}

// Subscription is one fleet-report stream. Every report placed in its channel
// carries one reference the consumer must Release (or Clone past).
type Subscription struct {
	name string
	reg  *fanout.Registry[*Subscription, *FleetReport]
	q    *fanout.Queue[*FleetReport]
}

// C returns the report stream. Each received report carries one reference the
// consumer owns: Release it when done (Clone first to keep the data). The
// channel closes when the subscription or the collector closes.
func (s *Subscription) C() <-chan *FleetReport { return s.q.C() }

// Close detaches the subscription; pending unread reports are released.
func (s *Subscription) Close() {
	s.reg.Remove(s)
	s.q.Discard()
}

// offer hands the subscription's own reference on the round to its queue,
// which releases it if the round is evicted or refused.
func (s *Subscription) offer(rep *FleetReport) {
	rep.retain()
	s.q.Offer(rep)
}

func (s *Subscription) info() fanout.Info { return s.q.Info(s.name) }

// Subscribe attaches a fleet-report stream to the collector. Options follow
// the monitor's rules: an undefined policy or a negative buffer is an error.
func (c *Collector) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	depth, err := fanout.Depth(opts.Policy, opts.Buffer)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	s := &Subscription{
		name: opts.Name,
		reg:  c.subs,
		q:    fanout.NewQueue(opts.Policy, depth, (*FleetReport).Release),
	}
	if _, err := c.subs.Add(s); err != nil {
		return nil, errors.New("collector: closed")
	}
	return s, nil
}
