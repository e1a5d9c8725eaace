package core

import (
	"errors"
	"fmt"

	"powerapi/internal/cgroup"
	"powerapi/internal/fanout"
	"powerapi/internal/target"
)

// This file implements the report-consumption API of the pipeline: runtime
// subscriptions. The Reporter stage publishes every AggregatedReport to a
// fanout.Registry of subscriptions; each applies its own decimation and
// filters and delivers into its own fanout.Queue with an explicit
// backpressure policy. All built-in consumers — WithReporter and
// WithFlushingReporter reporters, the retained-history writer, the HTTP
// serving layer — are ordinary subscribers.

// BackpressurePolicy tells the fanout what to do when a subscriber's channel
// is full: monitoring must either stay lossless for that subscriber (Block)
// or shed load in a defined way (Conflate, DropOldest).
type BackpressurePolicy = fanout.Policy

const (
	// Conflate keeps only the most recent report: the subscription's buffer
	// is a single slot and a newer report displaces an unread older one.
	// A consumer always observes the latest round, never a stale backlog.
	// This is the default policy.
	Conflate = fanout.Conflate
	// DropOldest buffers up to Buffer reports and evicts the oldest unread
	// one to make room for a new round.
	DropOldest = fanout.DropOldest
	// Block makes the fanout wait until the subscriber has drained space:
	// the subscriber sees every round exactly once, at the price of
	// backpressuring the whole pipeline. An abandoned Block subscription
	// stalls monitoring — Close it (or keep consuming) at all times.
	Block = fanout.Block
)

// DefaultSubscriptionBuffer is the channel capacity of DropOldest/Block
// subscriptions that do not set SubscribeOptions.Buffer.
const DefaultSubscriptionBuffer = fanout.DefaultBuffer

// SubscriptionInfo is one live subscription's diagnostic snapshot: its
// identity plus the fanout's delivery counters (see Subscription.Delivered
// and Dropped).
type SubscriptionInfo = fanout.Info

// SubscribeOptions configures one subscription. The zero value is valid: a
// conflating, unfiltered subscription that always holds the latest report.
type SubscribeOptions struct {
	// Name labels the subscription in diagnostics (optional).
	Name string
	// Policy is the backpressure policy (Conflate by default).
	Policy BackpressurePolicy
	// Buffer is the channel capacity of DropOldest and Block subscriptions
	// (DefaultSubscriptionBuffer when zero). Conflate always uses one slot.
	Buffer int
	// Every delivers only every n-th round (interval decimation): 1 or 0
	// delivers all rounds, 5 delivers the first round and then every fifth.
	Every int

	// Targets restricts the report breakdown to an explicit target set:
	// process rows must match a process target's PID, cgroup rows a cgroup
	// target's path, VM rows a vm target's name. Empty means no target
	// filter.
	Targets []target.Target
	// Kinds restricts which breakdown rows survive (process, cgroup and/or
	// vm). Empty means no kind filter.
	Kinds []target.Kind
	// CgroupSubtree keeps only the cgroup rows inside the given subtree
	// (the path itself and its descendants) and, when the monitor has a
	// cgroup hierarchy, the process rows whose leaf group lies inside it.
	CgroupSubtree string
	// MinWatts drops breakdown rows attributed less than this many watts.
	MinWatts float64
}

// filtering reports whether any breakdown filter is configured.
func (o SubscribeOptions) filtering() bool {
	return len(o.Targets) > 0 || len(o.Kinds) > 0 || o.CgroupSubtree != "" || o.MinWatts > 0
}

// Subscription is one consumer of the pipeline's aggregated reports. Reports
// arrive on C(); Close releases the subscription and closes the channel, so
// consumers may simply range over it. Delivered/Dropped expose the
// subscription's fanout counters.
type Subscription struct {
	api  *PowerAPI
	opts SubscribeOptions
	q    *fanout.Queue[AggregatedReport]

	// rounds counts the reports offered so far (decimation); only the fanout
	// goroutine touches it.
	rounds uint64

	// pidSet/pathSet/vmSet are the precomputed Targets filter.
	pidSet  map[int]bool
	pathSet map[string]bool
	vmSet   map[string]bool
	// kindSet is the precomputed Kinds filter.
	kindSet map[target.Kind]bool
}

// C returns the subscription's report channel. It is closed by Close (and by
// the monitor's Shutdown), so `for report := range sub.C()` terminates.
func (s *Subscription) C() <-chan AggregatedReport { return s.q.C() }

// Name returns the subscription's diagnostic label.
func (s *Subscription) Name() string { return s.opts.Name }

// Policy returns the subscription's backpressure policy.
func (s *Subscription) Policy() BackpressurePolicy { return s.opts.Policy }

// Delivered returns how many reports were placed into the subscription's
// channel so far (including reports later evicted by Conflate/DropOldest).
func (s *Subscription) Delivered() uint64 { return s.q.Delivered() }

// Dropped returns how many delivered reports were evicted unread to make room
// for newer ones. Always zero for Block subscriptions.
func (s *Subscription) Dropped() uint64 { return s.q.Dropped() }

// Close detaches the subscription from the fanout and closes its channel.
// Buffered reports stay receivable; a consumer ranging over C() terminates
// once it has drained them. Close is idempotent and safe to call while the
// pipeline is mid-round: an in-flight blocking delivery is aborted.
func (s *Subscription) Close() {
	if id, ok := s.api.subs.Remove(s); ok {
		s.api.logger.Debug("subscription removed", "id", id, "live", s.api.subs.Len())
	}
	s.q.Close()
}

// offer runs on the fanout goroutine: it applies decimation and filters, then
// hands the report to the subscription's queue. A report placed into the
// queue carries one reference on the pooled round; the queue releases it
// when it evicts or refuses the round, the consumer releases the rest.
func (s *Subscription) offer(report AggregatedReport) {
	s.rounds++
	if every := s.opts.Every; every > 1 && (s.rounds-1)%uint64(every) != 0 {
		return
	}
	filtered, ok := s.filter(report)
	if !ok {
		return
	}
	filtered.retain() // a no-op for filtered copies, which own their maps
	s.q.Offer(filtered)
}

func (s *Subscription) info() SubscriptionInfo { return s.q.Info(s.opts.Name) }

// filter projects the report through the subscription's breakdown filters.
// Round-level figures (timestamps, totals, PerGroup) pass through untouched;
// PerPID and PerCgroup are reduced to the rows every configured filter
// accepts. When filters are configured and no row survives, the round is
// skipped entirely (ok is false).
//
// The filtered copy owns its maps outright (it is never recycled), and it is
// built from only the accepted rows: a subscription filtering on an explicit
// target set iterates its own small filter sets instead of copying the full
// report, so a narrow subscriber costs the fanout a few lookups per round
// even at 100k monitored targets.
func (s *Subscription) filter(report AggregatedReport) (AggregatedReport, bool) {
	if !s.opts.filtering() {
		return report, true
	}
	out := report
	out.lease, out.gen = nil, 0
	targeted := s.pidSet != nil || s.pathSet != nil || s.vmSet != nil
	out.PerPID = make(map[int]float64)
	switch {
	case targeted && s.pidSet == nil:
		// A target filter without process targets rejects every process row.
	case s.pidSet != nil && len(s.pidSet) < len(report.PerPID):
		for pid := range s.pidSet {
			if watts, ok := report.PerPID[pid]; ok && s.acceptProcess(pid, watts) {
				out.PerPID[pid] = watts
			}
		}
	default:
		for pid, watts := range report.PerPID {
			if s.acceptProcess(pid, watts) {
				out.PerPID[pid] = watts
			}
		}
	}
	if len(report.PerCgroup) > 0 {
		out.PerCgroup = make(map[string]float64)
		switch {
		case targeted && s.pathSet == nil:
		case s.pathSet != nil && len(s.pathSet) < len(report.PerCgroup):
			for path := range s.pathSet {
				if watts, ok := report.PerCgroup[path]; ok && s.acceptCgroup(path, watts) {
					out.PerCgroup[path] = watts
				}
			}
		default:
			for path, watts := range report.PerCgroup {
				if s.acceptCgroup(path, watts) {
					out.PerCgroup[path] = watts
				}
			}
		}
	}
	if len(report.PerVM) > 0 {
		out.PerVM = make(map[string]float64)
		switch {
		case targeted && s.vmSet == nil:
		case s.vmSet != nil && len(s.vmSet) < len(report.PerVM):
			for name := range s.vmSet {
				if watts, ok := report.PerVM[name]; ok && s.acceptVM(name, watts) {
					out.PerVM[name] = watts
				}
			}
		default:
			for name, watts := range report.PerVM {
				if s.acceptVM(name, watts) {
					out.PerVM[name] = watts
				}
			}
		}
	}
	if len(out.PerPID) == 0 && len(out.PerCgroup) == 0 && len(out.PerVM) == 0 {
		return AggregatedReport{}, false
	}
	return out, true
}

func (s *Subscription) acceptProcess(pid int, watts float64) bool {
	if s.kindSet != nil && !s.kindSet[target.KindProcess] {
		return false
	}
	if s.pidSet != nil || s.pathSet != nil || s.vmSet != nil {
		if !s.pidSet[pid] {
			return false
		}
	}
	if prefix := s.opts.CgroupSubtree; prefix != "" {
		hierarchy := s.api.hierarchy
		if hierarchy == nil {
			return false
		}
		leaf, ok := hierarchy.LeafOf(pid)
		if !ok || !cgroup.InSubtree(leaf, prefix) {
			return false
		}
	}
	return watts >= s.opts.MinWatts
}

func (s *Subscription) acceptCgroup(path string, watts float64) bool {
	if s.kindSet != nil && !s.kindSet[target.KindCgroup] {
		return false
	}
	if s.pidSet != nil || s.pathSet != nil || s.vmSet != nil {
		if !s.pathSet[path] {
			return false
		}
	}
	if prefix := s.opts.CgroupSubtree; prefix != "" && !cgroup.InSubtree(path, prefix) {
		return false
	}
	return watts >= s.opts.MinWatts
}

func (s *Subscription) acceptVM(name string, watts float64) bool {
	if s.kindSet != nil && !s.kindSet[target.KindVM] {
		return false
	}
	if s.pidSet != nil || s.pathSet != nil || s.vmSet != nil {
		if !s.vmSet[name] {
			return false
		}
	}
	// A VM row is not a cgroup row: a cgroup-subtree filter keeps only the
	// subtree's own breakdown.
	if s.opts.CgroupSubtree != "" {
		return false
	}
	return watts >= s.opts.MinWatts
}

// subscribe validates opts, builds the subscription and registers it.
func (p *PowerAPI) subscribe(opts SubscribeOptions) (*Subscription, error) {
	depth, err := fanout.Depth(opts.Policy, opts.Buffer)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.Every < 0 {
		return nil, fmt.Errorf("core: subscription decimation must not be negative, got %d", opts.Every)
	}
	if opts.MinWatts < 0 {
		return nil, fmt.Errorf("core: subscription min-watts must not be negative, got %g", opts.MinWatts)
	}
	s := &Subscription{api: p, opts: opts}
	for _, t := range opts.Targets {
		switch t.Kind {
		case target.KindProcess:
			if s.pidSet == nil {
				s.pidSet = make(map[int]bool)
			}
			s.pidSet[t.PID] = true
		case target.KindCgroup:
			if s.pathSet == nil {
				s.pathSet = make(map[string]bool)
			}
			s.pathSet[t.Path] = true
		case target.KindVM:
			if s.vmSet == nil {
				s.vmSet = make(map[string]bool)
			}
			s.vmSet[t.Name] = true
		default:
			return nil, fmt.Errorf("core: cannot filter a subscription by target %v", t)
		}
	}
	for _, k := range opts.Kinds {
		if k != target.KindProcess && k != target.KindCgroup && k != target.KindVM {
			return nil, fmt.Errorf("core: cannot filter a subscription by kind %v", k)
		}
		if s.kindSet == nil {
			s.kindSet = make(map[target.Kind]bool)
		}
		s.kindSet[k] = true
	}
	if opts.CgroupSubtree != "" {
		if err := cgroup.ValidatePath(opts.CgroupSubtree); err != nil {
			return nil, fmt.Errorf("core: subscription cgroup subtree: %w", err)
		}
	}
	s.q = fanout.NewQueue(opts.Policy, depth, AggregatedReport.Release)
	id, err := p.subs.Add(s)
	if err != nil {
		return nil, errors.New("core: powerapi is shut down")
	}
	p.logger.Debug("subscription added",
		"id", id, "name", opts.Name, "policy", opts.Policy.String(), "live", p.subs.Len())
	return s, nil
}

// closeSubscriptions closes the registry and every remaining subscription,
// so consumers ranging over their channels terminate on monitor shutdown.
func (p *PowerAPI) closeSubscriptions() {
	remaining := p.subs.CloseAll()
	if len(remaining) > 0 {
		p.logger.Debug("closing subscriptions on shutdown", "count", len(remaining))
	}
	for _, s := range remaining {
		s.q.Close()
	}
}
