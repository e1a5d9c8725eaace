package fanout

import (
	"runtime"
	"sync"
	"testing"
)

// hookLog counts how often each value reached a queue's evict hook.
type hookLog struct {
	mu   sync.Mutex
	seen map[int]int
}

func (h *hookLog) evict(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == nil {
		h.seen = make(map[int]int)
	}
	h.seen[v]++
}

func (h *hookLog) count(v int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seen[v]
}

func drain(q *Queue[int]) []int {
	var out []int
	for {
		v, ok := q.TryPop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func TestDepthRules(t *testing.T) {
	cases := []struct {
		policy Policy
		buffer int
		want   int
	}{
		{Conflate, 0, 1},
		{Conflate, 9, 1},
		{DropOldest, 0, DefaultBuffer},
		{Block, 0, DefaultBuffer},
		{DropOldest, 3, 3},
		{Block, 1, 1},
	}
	for _, tc := range cases {
		got, err := Depth(tc.policy, tc.buffer)
		if err != nil || got != tc.want {
			t.Fatalf("Depth(%v, %d) = %d, %v; want %d", tc.policy, tc.buffer, got, err, tc.want)
		}
	}
	if _, err := Depth(Policy(42), 1); err == nil {
		t.Fatal("an undefined policy must be rejected")
	}
	if _, err := Depth(DropOldest, -1); err == nil {
		t.Fatal("a negative buffer must be rejected")
	}
}

func TestPolicies(t *testing.T) {
	var h hookLog
	conflate := NewQueue(Conflate, 1, h.evict)
	for v := 1; v <= 3; v++ {
		conflate.Offer(v)
	}
	if got := drain(conflate); len(got) != 1 || got[0] != 3 {
		t.Fatalf("conflate holds %v, want [3]", got)
	}
	if conflate.Delivered() != 3 || conflate.Dropped() != 2 || h.count(1) != 1 || h.count(2) != 1 {
		t.Fatalf("conflate delivered=%d dropped=%d hooks=%v", conflate.Delivered(), conflate.Dropped(), h.seen)
	}

	oldest := NewQueue[int](DropOldest, 3, nil)
	for v := 1; v <= 5; v++ {
		oldest.Offer(v)
	}
	if got := drain(oldest); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("drop-oldest holds %v, want [3 4 5]", got)
	}
	if oldest.Dropped() != 2 {
		t.Fatalf("drop-oldest dropped %d, want 2", oldest.Dropped())
	}

	block := NewQueue[int](Block, 2, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := 1; v <= 100; v++ {
			block.Offer(v)
		}
		block.Close()
	}()
	want := 1
	for v := range block.C() {
		if v != want {
			t.Fatalf("block delivered %d, want %d", v, want)
		}
		want++
	}
	<-done
	if want != 101 || block.Dropped() != 0 || block.Delivered() != 100 {
		t.Fatalf("block saw up to %d, dropped %d, delivered %d", want-1, block.Dropped(), block.Delivered())
	}
}

// TestEvictHookExactlyOnce: every value a queue gives up on reaches the hook
// exactly once — evicted to make room, aborted while a Block offer waited for
// room, refused after Close, or still buffered when Discard runs — and no
// value a consumer received reaches it.
func TestEvictHookExactlyOnce(t *testing.T) {
	t.Run("evicted", func(t *testing.T) {
		var h hookLog
		q := NewQueue(DropOldest, 2, h.evict)
		for v := 1; v <= 4; v++ {
			q.Offer(v)
		}
		if h.count(1) != 1 || h.count(2) != 1 || h.count(3) != 0 || h.count(4) != 0 {
			t.Fatalf("hook calls %v, want 1 and 2 once", h.seen)
		}
	})
	t.Run("block-aborted", func(t *testing.T) {
		var h hookLog
		q := NewQueue(Block, 1, h.evict)
		q.Offer(1) // fills the only slot
		offered := make(chan struct{})
		go func() {
			defer close(offered)
			q.Offer(2) // waits for room until Close aborts it
		}()
		// The waiting offer holds the send mutex: wait until it does.
		for q.sendMu.TryLock() {
			q.sendMu.Unlock()
			runtime.Gosched()
		}
		q.Close()
		<-offered
		if h.count(2) != 1 || h.count(1) != 0 {
			t.Fatalf("hook calls %v, want the aborted 2 once", h.seen)
		}
		// Close keeps the buffered value receivable.
		if v, ok := <-q.C(); !ok || v != 1 {
			t.Fatalf("after Close received %d, %v; want the buffered 1", v, ok)
		}
		if _, ok := <-q.C(); ok {
			t.Fatal("channel must be closed after the buffered value")
		}
	})
	t.Run("refused-after-close", func(t *testing.T) {
		var h hookLog
		q := NewQueue(Conflate, 1, h.evict)
		q.Close()
		q.Offer(7)
		q.Close() // idempotent
		if h.count(7) != 1 || q.Delivered() != 0 {
			t.Fatalf("hook calls %v delivered %d, want 7 refused once", h.seen, q.Delivered())
		}
	})
	t.Run("discarded", func(t *testing.T) {
		var h hookLog
		q := NewQueue(Block, 4, h.evict)
		for v := 1; v <= 3; v++ {
			q.Offer(v)
		}
		if v, ok := q.TryPop(); !ok || v != 1 {
			t.Fatalf("TryPop = %d, %v; want 1", v, ok)
		}
		q.Discard()
		q.Discard() // idempotent: nothing left to hand over
		if h.count(1) != 0 || h.count(2) != 1 || h.count(3) != 1 {
			t.Fatalf("hook calls %v, want 2 and 3 once, never the received 1", h.seen)
		}
		if _, ok := q.TryPop(); ok {
			t.Fatal("a discarded queue must be empty")
		}
	})
}

// TestConcurrentOffersAndClose runs several producers against one queue
// while a consumer drains it and Discard lands mid-stream: every value is
// either received or handed to the hook, exactly once (run with -race).
func TestConcurrentOffersAndClose(t *testing.T) {
	for _, policy := range []Policy{Conflate, DropOldest, Block} {
		t.Run(policy.String(), func(t *testing.T) {
			const producers, each = 4, 500
			var h hookLog
			q := NewQueue(policy, 4, h.evict)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						q.Offer(p*each + i)
					}
				}()
			}
			received := make(map[int]int)
			consumed := make(chan struct{})
			go func() {
				defer close(consumed)
				for v := range q.C() {
					received[v]++
					if len(received) == producers*each/2 {
						go q.Discard()
					}
				}
			}()
			wg.Wait()
			q.Discard()
			<-consumed
			for v := 0; v < producers*each; v++ {
				if n := received[v] + h.count(v); n != 1 {
					t.Fatalf("value %d received %d times, hooked %d times", v, received[v], h.count(v))
				}
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	type sink struct {
		name string
		got  []int
	}
	r := NewRegistry(func(s *sink, v int) { s.got = append(s.got, v) })
	a, b, c := &sink{name: "a"}, &sink{name: "b"}, &sink{name: "c"}
	for _, s := range []*sink{a, b, c} {
		if _, err := r.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	r.Publish(1)
	if id, ok := r.Remove(b); !ok || id != 2 {
		t.Fatalf("Remove(b) = %d, %v; want 2, true", id, ok)
	}
	if _, ok := r.Remove(b); ok {
		t.Fatal("removing twice must report false")
	}
	r.Publish(2)
	if len(a.got) != 2 || len(b.got) != 1 || len(c.got) != 2 || r.Len() != 2 {
		t.Fatalf("a=%v b=%v c=%v len=%d", a.got, b.got, c.got, r.Len())
	}
	rows := r.Stats(func(s *sink) Info { return Info{Name: s.name} })
	if len(rows) != 2 || rows[0].ID != 1 || rows[0].Name != "a" || rows[1].ID != 3 || rows[1].Name != "c" {
		t.Fatalf("Stats = %+v, want a(1) and c(3) in id order", rows)
	}
	if got := r.Sinks(); len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatalf("Sinks = %v", got)
	}
	remaining := r.CloseAll()
	if len(remaining) != 2 || !r.Closed() || r.Len() != 0 {
		t.Fatalf("CloseAll returned %d sinks, closed=%v len=%d", len(remaining), r.Closed(), r.Len())
	}
	if _, err := r.Add(&sink{}); err != ErrClosed {
		t.Fatalf("Add after CloseAll = %v, want ErrClosed", err)
	}
	r.Publish(3)
	if len(a.got) != 2 {
		t.Fatal("Publish after CloseAll must offer nothing")
	}
	if len(r.CloseAll()) != 0 {
		t.Fatal("a second CloseAll must return nothing")
	}
}

// TestRegistryConcurrentPublish publishes from several goroutines while
// queues join and leave the registry (run with -race).
func TestRegistryConcurrentPublish(t *testing.T) {
	r := NewRegistry((*Queue[int]).Offer)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Publish(i)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		q := NewQueue[int](DropOldest, 2, nil)
		if _, err := r.Add(q); err != nil {
			t.Fatal(err)
		}
		r.Remove(q)
		q.Close()
	}
	close(stop)
	wg.Wait()
	for _, q := range r.CloseAll() {
		q.Close()
	}
}

func TestPublishAllocationFree(t *testing.T) {
	r := NewRegistry((*Queue[int]).Offer)
	for i := 0; i < 8; i++ {
		if _, err := r.Add(NewQueue[int](Conflate, 1, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { r.Publish(1) }); avg != 0 {
		t.Fatalf("Publish allocates %.1f per call, want 0", avg)
	}
}
