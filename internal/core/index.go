package core

import (
	"sync"

	"powerapi/internal/target"
)

// slotIndex assigns every attached target a small dense integer — its round
// slot — at attach time. The hot path is keyed by these slots instead of by
// target identity: sensor shards stamp each sample with its slot, and the
// aggregator accumulates per-round watts into slice-backed sparse sets indexed
// by slot, so a steady-state round rebuilds no per-target maps at all.
//
// Slots are recycled through a LIFO freelist when targets detach, keeping the
// index dense under churn, and the backing arrays shrink when a trailing run
// of slots is free (compaction), so a burst of 100k short-lived targets does
// not pin 100k slots forever.
//
// The facade mutates the index under its own lock ordering (assign before the
// shard attach, retire after the shard detach); the aggregator only reads. A
// detach can land while a round is in flight, after its shard stamped the
// target's sample, so a retired slot keeps its owner and stays out of reuse
// and compaction until recycle, which Collect calls before the next round's
// tick, once the previous round has been materialised.
type slotIndex struct {
	mu sync.RWMutex
	// pidSlots indexes process targets by raw PID (the common case — integer
	// hashing, no string work); otherSlots carries cgroup/vm targets.
	pidSlots   map[int]int32
	otherSlots map[target.Target]int32
	// targets[slot] is the owner of a slot. Entries of freed slots keep their
	// last owner until reuse, so an in-flight round can still materialise a
	// sample of a just-detached target instead of dropping its watts.
	targets []target.Target
	used    []bool
	free    []int32 // LIFO freelist of released slots below len(targets)
	retired []int32 // slots retired since the last recycle, still used
	count   int     // slots currently assigned to a target
}

func newSlotIndex() *slotIndex {
	return &slotIndex{
		pidSlots:   make(map[int]int32),
		otherSlots: make(map[target.Target]int32),
	}
}

// assign returns the slot of t, allocating one if the target has none, and
// reports whether the target already had a slot. Assigning an already-assigned
// target is idempotent.
func (ix *slotIndex) assign(t target.Target) (int32, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if slot, ok := ix.lookupLocked(t); ok {
		return slot, true
	}
	var slot int32
	if n := len(ix.free); n > 0 {
		slot = ix.free[n-1]
		ix.free = ix.free[:n-1]
	} else {
		slot = int32(len(ix.targets))
		ix.targets = append(ix.targets, target.Target{})
		ix.used = append(ix.used, false)
	}
	ix.targets[slot] = t
	ix.used[slot] = true
	ix.count++
	if t.Kind == target.KindProcess {
		ix.pidSlots[t.PID] = slot
	} else {
		ix.otherSlots[t] = slot
	}
	return slot, false
}

// release frees the slot of t at once (a no-op for unknown targets) and
// compacts the trailing run of free slots so the index capacity tracks the
// live set. Only a slot no round has seen may be released this way.
func (ix *slotIndex) release(t target.Target) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if slot, ok := ix.unmapLocked(t); ok {
		ix.used[slot] = false
		ix.free = append(ix.free, slot)
		ix.compactLocked()
	}
}

// retire forgets the slot of t (a no-op for unknown targets) but keeps it
// used by its last owner until the next recycle, so a round already in
// flight still materialises the target's sample.
func (ix *slotIndex) retire(t target.Target) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if slot, ok := ix.unmapLocked(t); ok {
		ix.retired = append(ix.retired, slot)
	}
}

// recycle frees every retired slot and compacts. Callers guarantee no round
// stamped before the retirements is still in flight.
func (ix *slotIndex) recycle() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.retired) == 0 {
		return
	}
	for _, slot := range ix.retired {
		ix.used[slot] = false
	}
	ix.free = append(ix.free, ix.retired...)
	ix.retired = ix.retired[:0]
	ix.compactLocked()
}

// unmapLocked removes t's key and returns the slot it held.
func (ix *slotIndex) unmapLocked(t target.Target) (int32, bool) {
	slot, ok := ix.lookupLocked(t)
	if !ok {
		return 0, false
	}
	if t.Kind == target.KindProcess {
		delete(ix.pidSlots, t.PID)
	} else {
		delete(ix.otherSlots, t)
	}
	ix.count--
	return slot, true
}

// compactLocked drops every trailing free slot. The freelist is filtered in
// the same pass, so it never hands out a slot beyond the shrunk capacity.
func (ix *slotIndex) compactLocked() {
	n := len(ix.used)
	for n > 0 && !ix.used[n-1] {
		n--
	}
	if n < len(ix.used) {
		ix.targets = ix.targets[:n]
		ix.used = ix.used[:n]
		kept := ix.free[:0]
		for _, s := range ix.free {
			if int(s) < n {
				kept = append(kept, s)
			}
		}
		ix.free = kept
	}
}

// lookup returns the slot of t, or -1 when the target has none.
//
//powerapi:hotpath
func (ix *slotIndex) lookup(t target.Target) int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if slot, ok := ix.lookupLocked(t); ok {
		return slot
	}
	return -1
}

//powerapi:hotpath
func (ix *slotIndex) lookupLocked(t target.Target) (int32, bool) {
	if t.Kind == target.KindProcess {
		slot, ok := ix.pidSlots[t.PID]
		return slot, ok
	}
	slot, ok := ix.otherSlots[t]
	return slot, ok
}

// capacity returns the current slot-array length (live slots plus not-yet
// compacted free ones); size returns the number of live slots.
func (ix *slotIndex) capacity() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.targets)
}

func (ix *slotIndex) size() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.count
}

// view calls f with the slot→target table while holding the read lock, so a
// consumer (the aggregator's per-round materialisation) resolves every slot of
// a round under one lock acquisition. f must not retain the slices.
//
//powerapi:hotpath
func (ix *slotIndex) view(f func(targets []target.Target)) {
	ix.mu.RLock()
	f(ix.targets)
	ix.mu.RUnlock()
}
