package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/metrics"
	"beyondbloom/internal/server"
	"beyondbloom/internal/workload"
)

// runE21 measures the filter service end to end (§3.3, ROADMAP item 1):
// does answering concurrent point requests in hash-once/probe-many
// batches buy real capacity, and what does it cost in latency?
//
// The headline table is OPEN-LOOP: a Poisson arrival schedule is
// replayed against the engine at offered loads set relative to the
// measured scalar capacity, and each request's latency is measured
// from its *scheduled* arrival — so queueing delay counts, and a
// server that cannot keep up shows an exploding tail instead of a
// flattering throughput number. Both arms share one dispatcher. The
// scalar arm probes each request alone with the filter's Contains;
// the batched arm answers every arrival already due (up to one
// core.BatchChunk) with one Engine.ContainsBatch call, the call
// /v1/probe serves. That is natural batching on one thread: under
// light load a batch is a few keys, and a dispatcher behind schedule
// finds a full chunk due. Batching raises the capacity ceiling, so
// past the scalar knee the batched tail can stay bounded where the
// scalar tail diverges (DESIGN.md §11 records when it does).
//
// The second table is CLOSED-LOOP with blocking requesters: G
// goroutines each probe one key at a time, through the filter's
// Contains and through Engine.Contains, which adds the closed check,
// admission and the request counter.
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
// per chunk. Their ratio is the capacity headroom batching can
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

// e21Replay paces the stream along arr (nanosecond offsets from the
// start) and answers it with probe, storing each request's latency
// from its scheduled arrival in lats. Every arrival already due when
// the dispatcher gets to it, up to chunk of them, goes into one probe
// call. When the dispatcher falls behind schedule it probes as fast as
// it can — open loop: the backlog becomes queueing latency, not a
// slower offered rate. Pacing spins rather than sleeping, except far
// ahead of schedule: the sleeper's wake-up slack is milliseconds,
// which would inject phantom multi-ms tail latencies at low load. It
// returns the wall-clock seconds, the number of probe calls and the
// answers that differ from expect.
func e21Replay(stream []uint64, arr []int64, expect []bool, lats []int64, chunk int, probe func(keys []uint64, out []bool)) (wall float64, calls int, wrong int64) {
	out := make([]bool, chunk)
	start := time.Now()
	now := int64(0)
	for i := 0; i < len(stream); {
		for now < arr[i] {
			if ahead := arr[i] - now; ahead > 2_000_000 {
				time.Sleep(time.Duration(ahead - 1_000_000))
			}
			now = time.Since(start).Nanoseconds()
		}
		j := i + 1
		for j < len(stream) && j-i < chunk && arr[j] <= now {
			j++
		}
		probe(stream[i:j], out[:j-i])
		now = time.Since(start).Nanoseconds()
		for k := i; k < j; k++ {
			if out[k-i] != expect[k] {
				wrong++
			}
			lats[k] = now - arr[k]
		}
		calls++
		i = j
	}
	return time.Since(start).Seconds(), calls, wrong
}

// e21OpenLoop sweeps offered load across the scalar capacity knee and
// reports the latency distribution both server shapes deliver.
func e21OpenLoop(cfg Config, filter core.Filter, stream []uint64, expect []bool, capScalar, capBatched float64) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E21a: open-loop Poisson sweep (q=%d, maxbatch=%d; offered relative to scalar capacity %.1f Mops)",
			len(stream), core.BatchChunk, capScalar/1e6),
		"offered_x_cap", "mode", "offered_kops", "achieved_kops", "p50_us", "p99_us", "p999_us", "avg_batch", "wrong_results")
	e, err := server.NewEngine(filter, nil, server.Config{})
	if err != nil {
		panic(err)
	}
	defer e.Close()
	scalar := func(keys []uint64, out []bool) { out[0] = filter.Contains(keys[0]) }
	batched := func(keys []uint64, out []bool) {
		if err := e.ContainsBatch(keys, out); err != nil {
			panic(err)
		}
	}
	for _, mult := range []float64{0.3, 0.6, 0.9, 1.1, 1.4} {
		rate := mult * capScalar
		arr := workload.PoissonArrivals(len(stream), rate, int64(2100+int(mult*100)))
		for _, mode := range []string{"scalar", "batched"} {
			chunk, probe := 1, scalar
			if mode == "batched" {
				chunk, probe = core.BatchChunk, batched
			}
			lats := make([]int64, len(stream))
			wall, calls, wrong := e21Replay(stream, arr, expect, lats, chunk, probe)
			rec := workload.NewLatencyRecorder(0)
			rec.RecordAll(lats)
			t.AddRow(mult, mode,
				rate/1e3,
				float64(len(stream))/wall/1e3,
				float64(rec.Percentile(50))/1e3,
				float64(rec.Percentile(99))/1e3,
				float64(rec.Percentile(99.9))/1e3,
				float64(len(stream))/float64(calls),
				wrong)
		}
	}
	return t
}

// e21ClosedLoop runs G blocking requesters through the filter's scalar
// Contains and through Engine.Contains. A single-key request never
// waits for company, so the engine arm prices only the engine's own
// bookkeeping: the closed check, admission and the request counter.
func e21ClosedLoop(cfg Config, filter core.Filter, stream []uint64) *metrics.Table {
	opsTotal := cfg.n(20000)
	t := metrics.NewTable(
		fmt.Sprintf("E21b: closed-loop blocking requesters (ops=%d, GOMAXPROCS=%d)",
			opsTotal, runtime.GOMAXPROCS(0)),
		"goroutines", "mode", "kops_per_sec")
	e, err := server.NewEngine(filter, nil, server.Config{})
	if err != nil {
		panic(err)
	}
	defer e.Close()
	engine := func(key uint64) bool {
		found, err := e.Contains(key)
		if err != nil {
			panic(err)
		}
		return found
	}
	for _, g := range []int{1, 4, 16, 64} {
		opsEach := max(opsTotal/g, 1)
		for _, mode := range []string{"scalar", "engine"} {
			probe := filter.Contains
			if mode == "engine" {
				probe = engine
			}
			// One untimed pass over the keys first, so both arms are
			// timed on warm cache lines, not only the one that runs second.
			for i := 0; i < g*opsEach; i++ {
				probe(stream[i%len(stream)])
			}
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var sink bool
					for i := 0; i < opsEach; i++ {
						sink = sink != probe(stream[(w*opsEach+i)%len(stream)])
					}
					_ = sink
				}(w)
			}
			wg.Wait()
			t.AddRow(g, mode, float64(g*opsEach)/time.Since(start).Seconds()/1e3)
		}
	}
	return t
}
