package fanout

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Registry.Add once CloseAll has run.
var ErrClosed = errors.New("fanout: registry is closed")

// Registry is a set of sinks that each published value is offered to. Add,
// Remove and CloseAll serialise on a mutex and install a freshly built
// member list; Publish loads the current list atomically and never locks or
// allocates, so any number of goroutines may publish concurrently with each
// other and with membership changes. A sink added while a publish is in
// flight starts with the next one; a sink removed mid-publish may still see
// that value.
type Registry[S comparable, T any] struct {
	offer func(S, T)

	mu     sync.Mutex
	nextID uint64
	live   atomic.Pointer[members[S]]
}

// members is one immutable membership list, ordered by id.
type members[S any] struct {
	ids    []uint64
	sinks  []S
	closed bool
}

// NewRegistry returns an open, empty registry whose Publish calls offer once
// per sink.
func NewRegistry[S comparable, T any](offer func(S, T)) *Registry[S, T] {
	r := &Registry[S, T]{offer: offer}
	r.live.Store(&members[S]{})
	return r
}

// Add registers a sink and returns its id, or ErrClosed after CloseAll.
func (r *Registry[S, T]) Add(s S) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.live.Load()
	if cur.closed {
		return 0, ErrClosed
	}
	r.nextID++
	// Clip makes append copy: publishers may still hold the current list.
	r.live.Store(&members[S]{
		ids:   append(slices.Clip(cur.ids), r.nextID),
		sinks: append(slices.Clip(cur.sinks), s),
	})
	return r.nextID, nil
}

// Remove unregisters a sink, returning its id and whether it was registered.
func (r *Registry[S, T]) Remove(s S) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.live.Load()
	i := slices.Index(cur.sinks, s)
	if i < 0 {
		return 0, false
	}
	r.live.Store(&members[S]{
		ids:   slices.Delete(slices.Clone(cur.ids), i, i+1),
		sinks: slices.Delete(slices.Clone(cur.sinks), i, i+1),
	})
	return cur.ids[i], true
}

// Publish offers v to every registered sink, in id order; after CloseAll it
// offers nothing.
//
//powerapi:hotpath
func (r *Registry[S, T]) Publish(v T) {
	for _, s := range r.live.Load().sinks {
		r.offer(s, v)
	}
}

// Closed reports whether CloseAll has run.
func (r *Registry[S, T]) Closed() bool { return r.live.Load().closed }

// Len returns the number of registered sinks.
func (r *Registry[S, T]) Len() int { return len(r.live.Load().sinks) }

// Sinks returns a copy of the registered sinks, in id order.
func (r *Registry[S, T]) Sinks() []S {
	return append([]S(nil), r.live.Load().sinks...)
}

// Stats returns one row per registered sink, in id order: info builds the
// row and the registry fills in the sink's id.
func (r *Registry[S, T]) Stats(info func(S) Info) []Info {
	cur := r.live.Load()
	out := make([]Info, len(cur.sinks))
	for i, s := range cur.sinks {
		out[i] = info(s)
		out[i].ID = cur.ids[i]
	}
	return out
}

// CloseAll closes the registry: later Adds fail, later Publishes offer
// nothing. It returns the sinks that were registered, for the caller to
// close. Closing twice returns nothing the second time.
func (r *Registry[S, T]) CloseAll() []S {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.live.Load()
	r.live.Store(&members[S]{closed: true})
	return cur.sinks
}
