package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/server"
	"beyondbloom/internal/workload"
)

// runE21 measures the filter service end to end (§3.3, ROADMAP item 1):
// does coalescing concurrent point requests into hash-once/probe-many
// windows buy real capacity, and what does it cost in latency?
//
// The headline table is OPEN-LOOP: a Poisson arrival schedule is
// replayed against the engine at offered loads set relative to the
// measured scalar capacity, and each request's latency is measured
// from its *scheduled* arrival — so queueing delay counts, and a
// server that cannot keep up shows an exploding tail instead of a
// flattering throughput number. The scalar baseline is the same
// dispatcher paying one admission charge and one filter probe per
// request; the batched server is the engine's real coalescer
// (EnqueueAsync + sink). Batching raises the capacity ceiling, so past
// the scalar knee the batched tail can stay bounded where the scalar
// tail diverges (DESIGN.md §11 records when it does).
//
// The second table is CLOSED-LOOP with blocking requesters. A lone
// requester always finds no probe in flight and probes its own key at
// once, so it pays the coalescer's bookkeeping but never a wait; with
// more requesters, the keys that arrive during one probe form the next
// window, so batches grow with fan-in and followers pay goroutine
// wakeups.
func runE21(cfg Config) []*metrics.Table {
	n := cfg.n(4 << 20)
	filter, err := concurrent.NewShardedMutable(2, func(int) core.MutableFilter {
		return bloom.NewBlocked(n/4+1, 12)
	})
	if err != nil {
		panic(err)
	}
	present := workload.Keys(n, 21)
	for _, k := range present {
		if err := filter.Insert(k); err != nil {
			panic(err)
		}
	}
	absent := workload.DisjointKeys(n, 21)

	// The query stream is Zipfian (s=1.1) over a mixed universe: half
	// the draws hit present keys, half absent ones — hot keys repeat,
	// as service traffic does.
	q := cfg.n(250000)
	idx := workload.Zipf(q, n, 1.1, 210)
	stream := make([]uint64, q)
	for i, j := range idx {
		if i&1 == 0 {
			stream[i] = present[j]
		} else {
			stream[i] = absent[j]
		}
	}
	expect := make([]bool, q)
	core.ContainsBatch(filter, stream, expect)

	capTable, capScalar, capBatched := e21Capacity(filter, stream)
	return []*metrics.Table{
		capTable,
		e21OpenLoop(cfg, filter, stream, expect, capScalar, capBatched),
		e21ClosedLoop(cfg, filter, stream),
	}
}

// e21Capacity measures the two probe kernels' saturation throughput
// over the stream: one scalar Contains per request vs one ContainsBatch
// per chunk. Their ratio is the capacity headroom coalescing can
// unlock for the service.
func e21Capacity(filter core.Filter, stream []uint64) (*metrics.Table, float64, float64) {
	const rounds = 4

	start := time.Now()
	sink := false
	for r := 0; r < rounds; r++ {
		for _, k := range stream {
			sink = sink != filter.Contains(k)
		}
	}
	scalar := float64(rounds*len(stream)) / time.Since(start).Seconds()

	out := make([]bool, core.BatchChunk)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for off := 0; off < len(stream); off += core.BatchChunk {
			end := off + core.BatchChunk
			if end > len(stream) {
				end = len(stream)
			}
			core.ContainsBatch(filter, stream[off:end], out[:end-off])
		}
	}
	batched := float64(rounds*len(stream)) / time.Since(start).Seconds()
	_ = sink

	t := metrics.NewTable(
		fmt.Sprintf("E21: probe-engine capacity (stream=%d, GOMAXPROCS=%d)", len(stream), runtime.GOMAXPROCS(0)),
		"engine", "Mops_per_sec", "speedup_vs_scalar")
	t.AddRow("scalar", scalar/1e6, 1.0)
	t.AddRow("batched", batched/1e6, batched/scalar)
	return t, scalar, batched
}

// e21Server is one open-loop server shape: inject request i (nowNs is
// the dispatcher's cached clock; the return value refreshes the cache,
// so a server that reads the clock anyway shares the read with the
// pacer instead of paying twice).
type e21Server interface {
	inject(i int, key uint64, nowNs int64) int64
	drain() // block until every injected request has completed
	stats() server.CoalescerStats
}

// e21Replay paces the stream onto srv along arr (nanosecond offsets
// from start) and returns the wall-clock seconds the whole run took.
// When the dispatcher falls behind schedule it injects as fast as it
// can — open loop: the backlog becomes queueing latency, not a slower
// offered rate. Pacing spins (with Gosched, so the coalescer's
// flusher goroutine can run on one core) rather than sleeping, except
// far ahead of schedule: the sleeper's wake-up slack is milliseconds,
// which would inject phantom multi-ms tail latencies at low load.
func e21Replay(srv e21Server, stream []uint64, arr []int64, start time.Time) float64 {
	now := int64(0)
	for i, k := range stream {
		if now < arr[i] {
			for {
				now = time.Since(start).Nanoseconds()
				if now >= arr[i] {
					break
				}
				if ahead := arr[i] - now; ahead > 2_000_000 {
					time.Sleep(time.Duration(ahead - 1_000_000))
				} else {
					runtime.Gosched()
				}
			}
		}
		now = srv.inject(i, k, now)
	}
	srv.drain()
	return time.Since(start).Seconds()
}

// e21Scalar is the unbatched server: one synchronous probe per
// request, completion stored by request index (no locks on the hot
// path — every index is written once).
type e21Scalar struct {
	filter core.Filter
	lats   []int64
	arr    []int64
	expect []bool
	wrong  int64
	start  time.Time
}

func (s *e21Scalar) inject(i int, key uint64, _ int64) int64 {
	ok := s.filter.Contains(key)
	now := time.Since(s.start).Nanoseconds()
	if ok != s.expect[i] {
		s.wrong++
	}
	s.lats[i] = now - s.arr[i]
	return now
}

func (s *e21Scalar) drain()                       {}
func (s *e21Scalar) stats() server.CoalescerStats { return server.CoalescerStats{} }

// e21Batched is the engine's real coalescer driven through its async
// path; the sink stores completion latency against the scheduled
// arrival, indexed by tag (tags are unique, so concurrent flushers
// never write the same slot).
type e21Batched struct {
	engine *server.Engine
	st     server.CoalescerStats
}

func newE21Batched(filter core.Filter, arr []int64, expect []bool, lats []int64, start time.Time, wrong *atomic.Int64) *e21Batched {
	e, err := server.NewEngine(filter, nil, server.Config{
		MaxBatch: core.BatchChunk,
		Sink: func(tag, _ uint64, found bool, err error) {
			now := time.Since(start).Nanoseconds()
			if err != nil || found != expect[tag] {
				wrong.Add(1)
			}
			lats[tag] = now - arr[tag]
		},
	})
	if err != nil {
		panic(err)
	}
	return &e21Batched{engine: e}
}

func (b *e21Batched) inject(i int, key uint64, nowNs int64) int64 {
	if err := b.engine.ContainsAsync(key, uint64(i)); err != nil {
		panic(err)
	}
	return nowNs
}

// drain closes the engine: Close probes every queued window, so every
// outstanding sink callback has run when it returns.
func (b *e21Batched) drain() {
	b.engine.Close()
	b.st = b.engine.MembershipStats()
}

func (b *e21Batched) stats() server.CoalescerStats { return b.st }

// e21OpenLoop sweeps offered load across the scalar capacity knee and
// reports the latency distribution both server shapes deliver.
func e21OpenLoop(cfg Config, filter core.Filter, stream []uint64, expect []bool, capScalar, capBatched float64) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E21a: open-loop Poisson sweep (q=%d, maxbatch=%d; offered relative to scalar capacity %.1f Mops)",
			len(stream), core.BatchChunk, capScalar/1e6),
		"offered_x_cap", "mode", "offered_kops", "achieved_kops", "p50_us", "p99_us", "p999_us", "avg_batch", "wrong_results")
	for _, mult := range []float64{0.3, 0.6, 0.9, 1.1, 1.4} {
		rate := mult * capScalar
		arr := workload.PoissonArrivals(len(stream), rate, int64(2100+int(mult*100)))
		for _, mode := range []string{"scalar", "batched"} {
			lats := make([]int64, len(stream))
			var wrongAsync atomic.Int64
			var srv e21Server
			start := time.Now()
			if mode == "scalar" {
				srv = &e21Scalar{filter: filter, lats: lats, arr: arr, expect: expect, start: start}
			} else {
				srv = newE21Batched(filter, arr, expect, lats, start, &wrongAsync)
			}
			wall := e21Replay(srv, stream, arr, start)
			wrong := wrongAsync.Load()
			if s, ok := srv.(*e21Scalar); ok {
				wrong = s.wrong
			}
			st := srv.stats()
			avgBatch := 1.0
			if st.Windows > 0 {
				avgBatch = float64(st.Keys) / float64(st.Windows)
			}
			rec := workload.NewLatencyRecorder(0)
			rec.RecordAll(lats)
			t.AddRow(mult, mode,
				rate/1e3,
				float64(len(stream))/wall/1e3,
				float64(rec.Percentile(50))/1e3,
				float64(rec.Percentile(99))/1e3,
				float64(rec.Percentile(99.9))/1e3,
				avgBatch,
				wrong)
		}
	}
	return t
}

// e21ClosedLoop runs G blocking requesters through the coalescer and
// through the scalar path. This is the shape where coalescing is
// weakest: a lone requester gains nothing from batching and pays the
// coalescer's bookkeeping, and the table says so rather than hiding
// it.
func e21ClosedLoop(cfg Config, filter core.Filter, stream []uint64) *metrics.Table {
	opsTotal := cfg.n(20000)
	t := metrics.NewTable(
		fmt.Sprintf("E21b: closed-loop blocking requesters (ops=%d, GOMAXPROCS=%d)",
			opsTotal, runtime.GOMAXPROCS(0)),
		"goroutines", "mode", "kops_per_sec", "avg_batch")
	for _, g := range []int{1, 4, 16, 64} {
		opsEach := opsTotal / g
		if opsEach == 0 {
			opsEach = 1
		}
		// Scalar: every goroutine probes directly.
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var sink bool
				for i := 0; i < opsEach; i++ {
					sink = sink != filter.Contains(stream[(w*opsEach+i)%len(stream)])
				}
				_ = sink
			}(w)
		}
		wg.Wait()
		scalarKops := float64(g*opsEach) / time.Since(start).Seconds() / 1e3
		t.AddRow(g, "scalar", scalarKops, 1.0)

		// Coalesced: every goroutine blocks in Engine.Contains.
		e, err := server.NewEngine(filter, nil, server.Config{MaxBatch: core.BatchChunk})
		if err != nil {
			panic(err)
		}
		start = time.Now()
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := context.Background()
				for i := 0; i < opsEach; i++ {
					if _, err := e.Contains(ctx, stream[(w*opsEach+i)%len(stream)]); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		coalescedKops := float64(g*opsEach) / time.Since(start).Seconds() / 1e3
		st := e.MembershipStats()
		e.Close()
		avgBatch := 0.0
		if st.Windows > 0 {
			avgBatch = float64(st.Keys) / float64(st.Windows)
		}
		t.AddRow(g, "coalesced", coalescedKops, avgBatch)
	}
	return t
}
