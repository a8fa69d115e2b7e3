package experiments

import (
	"testing"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/server"
	"beyondbloom/internal/workload"
)

// TestE21ReplayBatchedAmortizedAllocs pins E21a's open-loop batched
// arm: when every arrival is already due, the dispatcher answers them
// in core.BatchChunk-key Engine.ContainsBatch calls, so per-request
// allocation at steady state is a small fraction of an allocation
// (the dispatcher's one answer buffer), not one-plus per request. It
// also checks that no answer differs from a direct batch probe.
func TestE21ReplayBatchedAmortizedAllocs(t *testing.T) {
	const n = 4096
	filter, err := concurrent.NewShardedMutable(2, func(int) core.MutableFilter {
		return bloom.NewBlocked(n/4+1, 12)
	})
	if err != nil {
		t.Fatal(err)
	}
	present := workload.Keys(n/2, 21)
	for _, k := range present {
		if err := filter.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	stream := append(append([]uint64(nil), present...), workload.DisjointKeys(n/2, 21)...)
	expect := make([]bool, len(stream))
	core.ContainsBatch(filter, stream, expect)

	e, err := server.NewEngine(filter, nil, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	batched := func(keys []uint64, out []bool) {
		if err := e.ContainsBatch(keys, out); err != nil {
			t.Fatal(err)
		}
	}
	arr := make([]int64, len(stream)) // all due at once: full chunks
	lats := make([]int64, len(stream))
	run := func() {
		_, calls, wrong := e21Replay(stream, arr, expect, lats, core.BatchChunk, batched)
		if wrong != 0 {
			t.Fatalf("batched replay gave %d wrong answers", wrong)
		}
		if want := len(stream) / core.BatchChunk; calls != want {
			t.Fatalf("batched replay made %d probe calls, want %d full chunks", calls, want)
		}
	}
	run()
	avg := testing.AllocsPerRun(20, run)
	if perReq := avg / float64(len(stream)); perReq > 0.05 {
		t.Fatalf("batched replay allocates %.3f per request at steady state (%.1f per run), want amortized ~0", perReq, avg)
	}
}
