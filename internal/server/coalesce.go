package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrShutdown is returned to requests that arrive after Close.
var ErrShutdown = errors.New("server: shutting down")

// FlushFunc answers one window: it must fill found[i] (and, for KV
// backends, values[i]) for every keys[i]. It is called outside the
// coalescer lock, from a leading request goroutine or the flusher
// goroutine, never from two at once. values and found are sized to
// keys. A non-nil error fails every request in the batch.
type FlushFunc func(keys []uint64, values []uint64, found []bool) error

// SinkFunc receives the answers of asynchronously enqueued keys (the
// load generator's open-loop path). It is called once per async key,
// in arrival order, from the flusher goroutine.
type SinkFunc func(tag uint64, value uint64, found bool, err error)

// CoalescerStats is a snapshot of the coalescer's counters.
type CoalescerStats struct {
	Windows         int64 // FlushFunc calls
	Keys            int64 // keys across all windows
	CapacityFlushes int64 // windows of exactly MaxBatch keys
	CloseFlushes    int64 // batches answered after Close began
	Rejected        int64 // requests refused after Close
}

// asyncSlot is an async key's place in its batch and the tag its
// answer is delivered under.
type asyncSlot struct {
	slot int
	tag  uint64
}

// cbatch is the set of point requests answered together: a leader's
// own key, or every key that queued up behind one probe. It is probed
// in windows of at most MaxBatch keys. Followers block on done (made
// when the first one joins) and read their slot afterwards, so a batch
// with followers is left to the GC; every other batch — a lone
// leader's, a pure-async one — is recycled, which keeps both the
// lone-requester and the open-loop hot paths allocation-free at steady
// state.
type cbatch struct {
	keys  []uint64
	vals  []uint64
	found []bool
	async []asyncSlot
	done  chan struct{}
	err   error
}

// maxFree caps the recycled batches kept for reuse.
const maxFree = 4

// Coalescer batches concurrent point requests with no timer: at most
// one probe is in flight, and keys that arrive while it runs queue up
// as the next batch, so batch size follows load. A Do that finds no
// probe in flight leads: it probes its own key at once, on its own
// goroutine. When any probe finishes, a queued batch goes to the one
// flusher goroutine, which probes it and repeats until nothing is
// queued; a leader never waits for later arrivals. This is the WAL's
// group-commit idiom (DESIGN.md §9).
type Coalescer struct {
	maxBatch int
	flush    FlushFunc
	sink     SinkFunc

	mu     sync.Mutex
	busy   bool    // a probe is in flight; implied by next != nil
	next   *cbatch // keys queued behind the probe in flight
	free   []*cbatch
	closed bool
	idle   sync.Cond     // broadcast when busy clears (Close waits on it)
	wake   chan struct{} // hands next to the flusher; closed by Close
	exited chan struct{} // closed when the flusher returns

	windows         atomic.Int64
	keys            atomic.Int64
	capacityFlushes atomic.Int64
	closeFlushes    atomic.Int64
	rejected        atomic.Int64
}

// NewCoalescer builds a coalescer over flush. maxBatch <= 1 probes
// every key in a window of its own (useful for deterministic tests).
// sink may be nil if EnqueueAsync is never used.
func NewCoalescer(maxBatch int, flush FlushFunc, sink SinkFunc) *Coalescer {
	c := &Coalescer{
		maxBatch: max(maxBatch, 1),
		flush:    flush,
		sink:     sink,
		wake:     make(chan struct{}, 1),
		exited:   make(chan struct{}),
	}
	c.idle.L = &c.mu
	go c.flusher()
	return c
}

// getLocked takes a recycled batch or allocates one. Callers hold mu.
func (c *Coalescer) getLocked() *cbatch {
	n := len(c.free)
	if n == 0 {
		return &cbatch{}
	}
	b := c.free[n-1]
	c.free = c.free[:n-1]
	return b
}

// putLocked recycles a batch no reader can still see. Callers hold mu.
func (c *Coalescer) putLocked(b *cbatch) {
	if len(c.free) < maxFree {
		b.keys, b.async, b.err = b.keys[:0], b.async[:0], nil
		c.free = append(c.free, b)
	}
}

// enqueueLocked appends key to the queued batch. Callers hold mu and
// have checked closed.
func (c *Coalescer) enqueueLocked(key uint64) (b *cbatch, slot int) {
	if c.next == nil {
		c.next = c.getLocked()
	}
	b = c.next
	b.keys = append(b.keys, key)
	return b, len(b.keys) - 1
}

// Do submits one point request and blocks until it is answered or ctx
// is cancelled. With no probe in flight the caller leads and probes
// its key itself; otherwise it follows, joining the queued batch. A
// cancelled follower simply abandons its slot: the batch still probes
// the key and nobody reads the answer, so cancellation can never
// corrupt the shared batch. After Close, Do fails fast with
// ErrShutdown.
func (c *Coalescer) Do(ctx context.Context, key uint64) (value uint64, found bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.rejected.Add(1)
		return 0, false, ErrShutdown
	}
	if !c.busy {
		c.busy = true
		b := c.getLocked()
		c.mu.Unlock()
		b.keys = append(b.keys, key)
		c.probe(b)
		value, found, err = b.vals[0], b.found[0], b.err
		c.mu.Lock()
		c.putLocked(b)
		if c.next != nil {
			// The flusher inherits busy. Sends happen only on handing it
			// busy, which it clears after taking the last token, so the
			// one-slot buffer is always empty here and the send never
			// blocks under mu.
			c.wake <- struct{}{}
		} else {
			c.busy = false
			c.idle.Broadcast()
		}
		c.mu.Unlock()
		return value, found, err
	}
	b, slot := c.enqueueLocked(key)
	if b.done == nil {
		b.done = make(chan struct{})
	}
	c.mu.Unlock()
	select {
	case <-b.done:
		if b.err != nil {
			return 0, false, b.err
		}
		return b.vals[slot], b.found[slot], nil
	case <-ctx.Done():
		return 0, false, ctx.Err()
	}
}

// EnqueueAsync submits one point request whose answer is delivered to
// the sink (with the given tag) by the flusher goroutine. It never
// probes inline and never blocks beyond the coalescer mutex.
func (c *Coalescer) EnqueueAsync(key, tag uint64) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.rejected.Add(1)
		return ErrShutdown
	}
	b, slot := c.enqueueLocked(key)
	b.async = append(b.async, asyncSlot{slot, tag})
	if !c.busy {
		c.busy = true
		c.wake <- struct{}{}
	}
	c.mu.Unlock()
	return nil
}

// probe sizes a batch's result slots and runs the backend flush over
// it, one window of at most MaxBatch keys at a time. The first error
// fails the whole batch.
func (c *Coalescer) probe(b *cbatch) {
	n := len(b.keys)
	if cap(b.vals) < n {
		b.vals = make([]uint64, n, cap(b.keys))
		b.found = make([]bool, n, cap(b.keys))
	}
	b.vals, b.found = b.vals[:n], b.found[:n]
	clear(b.vals)
	clear(b.found)
	for lo := 0; lo < n && b.err == nil; lo += c.maxBatch {
		hi := min(lo+c.maxBatch, n)
		b.err = c.flush(b.keys[lo:hi], b.vals[lo:hi], b.found[lo:hi])
		c.windows.Add(1)
		c.keys.Add(int64(hi - lo))
		if hi-lo == c.maxBatch {
			c.capacityFlushes.Add(1)
		}
	}
}

// flusher probes the queued batch each time it is handed over, and
// again for whatever queued meanwhile, clearing busy once nothing is
// queued. It wakes the followers, delivers the async answers, and
// recycles every batch no follower can still be reading. It exits
// when Close closes wake.
func (c *Coalescer) flusher() {
	defer close(c.exited)
	for range c.wake {
		c.mu.Lock()
		for c.next != nil {
			b := c.next
			c.next = nil
			closing := c.closed
			c.mu.Unlock()
			c.probe(b)
			if closing {
				c.closeFlushes.Add(1)
			}
			if b.done != nil {
				close(b.done)
			}
			for _, a := range b.async {
				c.sink(a.tag, b.vals[a.slot], b.found[a.slot], b.err)
			}
			c.mu.Lock()
			if b.done == nil {
				c.putLocked(b)
			}
		}
		c.busy = false
		c.idle.Broadcast()
		c.mu.Unlock()
	}
}

// Close rejects all later requests with ErrShutdown and returns once
// the probe in flight and the queued batch have been answered and the
// flusher has exited, so every request admitted before Close gets its
// real answer and no flush runs after Close returns. It is idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	first := !c.closed
	c.closed = true
	for c.busy {
		c.idle.Wait()
	}
	c.mu.Unlock()
	if first {
		close(c.wake)
	}
	<-c.exited
}

// Stats snapshots the counters.
func (c *Coalescer) Stats() CoalescerStats {
	return CoalescerStats{
		Windows:         c.windows.Load(),
		Keys:            c.keys.Load(),
		CapacityFlushes: c.capacityFlushes.Load(),
		CloseFlushes:    c.closeFlushes.Load(),
		Rejected:        c.rejected.Load(),
	}
}
