package server

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// refFlush answers windows from a pure function so every test can
// check exact per-key answers: found = key divisible by 3, value =
// key*2. It records the size of every batch it was handed.
type refFlush struct {
	mu      sync.Mutex
	calls   int
	batches []int
	gates   []chan struct{} // flush call i blocks until gates[i] closes
	started chan int        // when non-nil, receives each call's index as it begins
	yield   bool            // yield the processor mid-probe, as a slower backend would
}

// gated returns a refFlush whose first n calls each block on a gate of
// their own.
func gated(n int) *refFlush {
	// started is buffered past any test's flush count, so a flush never
	// blocks on a test that has stopped reading it.
	r := &refFlush{started: make(chan int, 16)}
	for i := 0; i < n; i++ {
		r.gates = append(r.gates, make(chan struct{}))
	}
	return r
}

func (r *refFlush) fn(keys []uint64, values []uint64, found []bool) error {
	r.mu.Lock()
	call := r.calls
	r.calls++
	r.mu.Unlock()
	if r.started != nil {
		r.started <- call
	}
	if call < len(r.gates) {
		<-r.gates[call]
	}
	if r.yield {
		runtime.Gosched()
	}
	r.mu.Lock()
	r.batches = append(r.batches, len(keys))
	r.mu.Unlock()
	for i, k := range keys {
		values[i] = k * 2
		found[i] = k%3 == 0
	}
	return nil
}

func (r *refFlush) batchSizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.batches...)
}

func wantAnswer(t *testing.T, key, value uint64, found bool) {
	t.Helper()
	if value != key*2 || found != (key%3 == 0) {
		t.Fatalf("key %d: got (value=%d, found=%v), want (%d, %v)", key, value, found, key*2, key%3 == 0)
	}
}

// sinkRecorder collects async completions keyed by tag.
type sinkRecorder struct {
	mu   sync.Mutex
	got  map[uint64][3]uint64 // tag -> value, found, err!=nil
	errs map[uint64]error
}

func newSinkRecorder() *sinkRecorder {
	return &sinkRecorder{got: map[uint64][3]uint64{}, errs: map[uint64]error{}}
}

func (s *sinkRecorder) fn(tag uint64, value uint64, found bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := uint64(0)
	if found {
		f = 1
	}
	s.got[tag] = [3]uint64{value, f, 0}
	s.errs[tag] = err
}

func (s *sinkRecorder) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *sinkRecorder) check(t *testing.T, tag, key uint64) {
	t.Helper()
	s.mu.Lock()
	rec, ok := s.got[tag]
	err := s.errs[tag]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("tag %d: no completion delivered", tag)
	}
	if err != nil {
		t.Fatalf("tag %d: unexpected error %v", tag, err)
	}
	wantAnswer(t, key, rec[0], rec[1] == 1)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("condition not reached within %v", d)
}

// pendingKeys reads how many keys are queued behind the probe in
// flight (white-box).
func pendingKeys(c *Coalescer) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next == nil {
		return 0
	}
	return len(c.next.keys)
}

// leadGated starts a leader Do on key in the background and returns
// once its probe is blocked on flush's first gate, with the leader's
// result channel.
func leadGated(t *testing.T, c *Coalescer, flush *refFlush, key uint64) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		value, found, err := c.Do(context.Background(), key)
		if err == nil && (value != key*2 || found != (key%3 == 0)) {
			err = errors.New("leader got a wrong answer")
		}
		errc <- err
	}()
	if call := <-flush.started; call != 0 {
		t.Fatalf("first flush call is %d, want 0", call)
	}
	return errc
}

func wantBatches(t *testing.T, flush *refFlush, want ...int) {
	t.Helper()
	if got := flush.batchSizes(); !slices.Equal(got, want) {
		t.Fatalf("batch sizes = %v, want %v", got, want)
	}
}

func wantNoErr(t *testing.T, errc <-chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request hung")
	}
}

// TestCoalescerWindowEdges drives the leader/follower hand-off through
// its edge cases, one subtest per row. A gated flush holds a probe in
// flight so the queue behind it can be filled exactly; followers are
// enqueued asynchronously where determinism matters (the enqueue
// itself is synchronous; only the answer is deferred).
func TestCoalescerWindowEdges(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"lone request is probed at once with no timer", func(t *testing.T) {
			flush := &refFlush{}
			sink := newSinkRecorder()
			c := NewCoalescer(1024, flush.fn, sink.fn)
			defer c.Close()
			// The leader's own goroutine runs the probe, so the answer and
			// the stats are both in place when Do returns.
			value, found, err := c.Do(context.Background(), 12)
			if err != nil {
				t.Fatal(err)
			}
			wantAnswer(t, 12, value, found)
			if st := c.Stats(); st.Windows != 1 || st.Keys != 1 {
				t.Fatalf("stats = %+v, want one window of one key", st)
			}
			// A lone async key wakes the flusher at once.
			if err := c.EnqueueAsync(13, 0); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 2*time.Second, func() bool { return sink.len() == 1 })
			sink.check(t, 0, 13)
			wantBatches(t, flush, 1, 1)
		}},
		{"request arriving during a flush starts a fresh window", func(t *testing.T) {
			flush := gated(1)
			sink := newSinkRecorder()
			c := NewCoalescer(1024, flush.fn, sink.fn)
			defer c.Close()
			leader := leadGated(t, c, flush, 40)
			// The probe is mid-flight: everything arriving now, sync or
			// async, lands in one next batch, not the one being probed.
			follower := make(chan error, 1)
			go func() {
				value, found, err := c.Do(context.Background(), 43)
				if err == nil && (value != 86 || found) {
					err = errors.New("follower got a wrong answer")
				}
				follower <- err
			}()
			async := []uint64{41, 42, 44}
			for i, key := range async {
				if err := c.EnqueueAsync(key, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, 2*time.Second, func() bool { return pendingKeys(c) == 4 })
			close(flush.gates[0])
			wantNoErr(t, leader)
			wantNoErr(t, follower)
			waitFor(t, 2*time.Second, func() bool { return sink.len() == 3 })
			wantBatches(t, flush, 1, 4)
			for i, key := range async {
				sink.check(t, uint64(i), key)
			}
		}},
		{"MaxBatch splits the queue", func(t *testing.T) {
			flush := gated(1)
			sink := newSinkRecorder()
			c := NewCoalescer(4, flush.fn, sink.fn)
			defer c.Close()
			leader := leadGated(t, c, flush, 10)
			for i := uint64(0); i < 10; i++ {
				if err := c.EnqueueAsync(20+i, i); err != nil {
					t.Fatal(err)
				}
			}
			close(flush.gates[0])
			wantNoErr(t, leader)
			waitFor(t, 2*time.Second, func() bool { return sink.len() == 10 })
			wantBatches(t, flush, 1, 4, 4, 2)
			if st := c.Stats(); st.Windows != 4 || st.CapacityFlushes != 2 || st.Keys != 11 {
				t.Fatalf("stats = %+v, want 4 windows, 2 of them full, 11 keys", st)
			}
			for i := uint64(0); i < 10; i++ {
				sink.check(t, i, 20+i)
			}
		}},
		{"sync leader returns after its own probe while later batches go to the flusher", func(t *testing.T) {
			flush := gated(2)
			sink := newSinkRecorder()
			c := NewCoalescer(1024, flush.fn, sink.fn)
			defer c.Close()
			leader := leadGated(t, c, flush, 30)
			c.EnqueueAsync(31, 0)
			c.EnqueueAsync(32, 1)
			close(flush.gates[0])
			// The next batch's probe is now held by its gate; the leader
			// must not wait for it.
			if call := <-flush.started; call != 1 {
				t.Fatalf("second flush call is %d, want 1", call)
			}
			wantNoErr(t, leader)
			if got := sink.len(); got != 0 {
				t.Fatalf("%d async answers delivered before the flusher's probe finished", got)
			}
			close(flush.gates[1])
			waitFor(t, 2*time.Second, func() bool { return sink.len() == 2 })
			wantBatches(t, flush, 1, 2)
			sink.check(t, 0, 31)
			sink.check(t, 1, 32)
		}},
		{"shutdown answers every in-flight waiter, then rejects", func(t *testing.T) {
			flush := gated(1)
			c := NewCoalescer(1024, flush.fn, nil)
			leader := leadGated(t, c, flush, 59)
			const waiters = 3
			type result struct {
				key   uint64
				value uint64
				found bool
				err   error
			}
			results := make(chan result, waiters)
			for i := uint64(0); i < waiters; i++ {
				go func(key uint64) {
					v, f, err := c.Do(context.Background(), key)
					results <- result{key, v, f, err}
				}(60 + i)
			}
			waitFor(t, 2*time.Second, func() bool { return pendingKeys(c) == waiters })
			closed := make(chan struct{})
			go func() { c.Close(); close(closed) }()
			waitFor(t, 2*time.Second, func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				return c.closed
			})
			// Close is waiting out the probe in flight and the queued
			// window; new requests are already refused.
			if _, _, err := c.Do(context.Background(), 99); !errors.Is(err, ErrShutdown) {
				t.Fatalf("Do during Close error = %v, want ErrShutdown", err)
			}
			close(flush.gates[0])
			wantNoErr(t, leader)
			for i := 0; i < waiters; i++ {
				select {
				case r := <-results:
					if r.err != nil {
						t.Fatalf("waiter %d got error %v, want a real answer", r.key, r.err)
					}
					wantAnswer(t, r.key, r.value, r.found)
				case <-time.After(5 * time.Second):
					t.Fatal("waiter hung across shutdown")
				}
			}
			<-closed
			if st := c.Stats(); st.CloseFlushes != 1 || st.Rejected != 1 {
				t.Fatalf("stats = %+v, want one close flush and one rejection", st)
			}
			if _, _, err := c.Do(context.Background(), 99); !errors.Is(err, ErrShutdown) {
				t.Fatalf("post-close Do error = %v, want ErrShutdown", err)
			}
			if err := c.EnqueueAsync(99, 0); !errors.Is(err, ErrShutdown) {
				t.Fatalf("post-close EnqueueAsync error = %v, want ErrShutdown", err)
			}
			c.Close() // idempotent
		}},
		{"cancelled request abandons its slot without corrupting the batch", func(t *testing.T) {
			flush := gated(1)
			sink := newSinkRecorder()
			c := NewCoalescer(1024, flush.fn, sink.fn)
			leader := leadGated(t, c, flush, 69)
			ctx, cancel := context.WithCancel(context.Background())
			errCh := make(chan error, 1)
			go func() {
				_, _, err := c.Do(ctx, 70)
				errCh <- err
			}()
			waitFor(t, 2*time.Second, func() bool { return pendingKeys(c) == 1 })
			cancel()
			select {
			case err := <-errCh:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled Do error = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled Do did not return")
			}
			// The abandoned slot stays queued; a later request joins the
			// same batch and the flush sees both keys, in order.
			if err := c.EnqueueAsync(71, 1); err != nil {
				t.Fatal(err)
			}
			close(flush.gates[0])
			wantNoErr(t, leader)
			c.Close() // returns once the queued batch is answered
			wantBatches(t, flush, 1, 2)
			sink.check(t, 1, 71)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t) })
	}
}

// TestCoalescerConcurrentExactness hammers one coalescer from many
// goroutines and checks every single answer against the reference
// function — any cross-slot mixup, lost wakeup, or double delivery
// fails loudly. Run under -race this is the coalescer's core safety
// proof. Each probe yields the processor, so requests arrive while a
// probe is in flight even when the test gets a single core.
func TestCoalescerConcurrentExactness(t *testing.T) {
	flush := &refFlush{yield: true}
	c := NewCoalescer(16, flush.fn, nil)
	defer c.Close()
	const goroutines = 8
	const perG = 400
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := uint64(g*perG + i)
				value, found, err := c.Do(context.Background(), key)
				if err != nil || value != key*2 || found != (key%3 == 0) {
					wrong.Add(1)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent requests hung")
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d wrong or failed answers", n)
	}
	st := c.Stats()
	if st.Keys != goroutines*perG {
		t.Fatalf("flushed %d keys, want %d", st.Keys, goroutines*perG)
	}
	if st.Windows >= goroutines*perG {
		t.Fatalf("no coalescing happened: %d windows for %d keys", st.Windows, st.Keys)
	}
}

// TestCoalescerCloseRace closes the coalescer while requests are
// arriving from many goroutines: every request must resolve to either
// a correct answer or ErrShutdown — never a hang, never a wrong
// answer.
func TestCoalescerCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		flush := &refFlush{}
		c := NewCoalescer(8, flush.fn, nil)
		var wg sync.WaitGroup
		var wrong atomic.Int64
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					key := uint64(g*1000 + i)
					value, found, err := c.Do(context.Background(), key)
					if err != nil {
						if !errors.Is(err, ErrShutdown) {
							wrong.Add(1)
						}
						continue
					}
					if value != key*2 || found != (key%3 == 0) {
						wrong.Add(1)
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		c.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("requests hung across Close")
		}
		if n := wrong.Load(); n != 0 {
			t.Fatalf("round %d: %d wrong answers", round, n)
		}
	}
}
