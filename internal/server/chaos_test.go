package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondbloom/internal/fault"
	"beyondbloom/internal/lsm"
)

const (
	svcChaosUnwritten = int32(iota)
	svcChaosWritten
	svcChaosDeleted
)

func svcChaosValue(k uint64) uint64 { return k*2654435761 + 1 }

// TestServiceChaos is the service's -race chaos test, in the mold of
// the store's TestChaosConcurrentStore but through the Engine: point
// reads take the scalar path, batch reads the batch path, writes the
// admission-controlled Apply path — all while a reloader
// swaps the serving filter between two .bbf snapshots and the store's
// device and filter blocks fault on an injector schedule. Every
// operation with established ordering asserts its exact answer; the
// pass criterion is zero wrong results and zero hung requests.
func TestServiceChaos(t *testing.T) {
	const (
		writers       = 2
		keysPerWriter = 4000
		total         = writers * keysPerWriter
		deleteEvery   = 5
		// Membership keys live far above the KV keyspace and are present
		// in the initial filter and in both reload snapshots, so a
		// membership probe must find them no matter which generation
		// serves it.
		memBase  = uint64(1) << 32
		memCount = 512
	)

	store := lsm.New(lsm.Options{
		MemtableSize: 128,
		Background:   true,
		L0RunBudget:  6,
		DeviceFaults: fault.NewInjector(42, fault.Transient(0.05), fault.BitFlip(0.02)),
		FilterFaults: fault.NewInjector(43, fault.Transient(0.05)),
	})
	defer store.Close()

	memKeys := make([]uint64, memCount)
	for i := range memKeys {
		memKeys[i] = memBase + uint64(i)
	}
	filter := newTestFilter(t, 8192)
	for _, k := range memKeys {
		if err := filter.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	snaps := []string{
		saveFilterFile(t, dir, "gen-a.bbf", memKeys),
		saveFilterFile(t, dir, "gen-b.bbf", memKeys),
	}

	e, err := NewEngine(filter, store, Config{MaxInflightKeys: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close() // runs before store.Close, as in filterd
	ts := httptest.NewServer(New(e))
	defer ts.Close()

	state := make([]atomic.Int32, total)
	var wrong atomic.Int64
	fail := func(format string, args ...any) {
		wrong.Add(1)
		t.Errorf(format, args...)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * keysPerWriter
			for i := 0; i < keysPerWriter; i++ {
				k := uint64(base + i)
				for {
					err := e.Apply(lsm.Entry{Key: k, Value: svcChaosValue(k)})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrOverloaded) {
						fail("Apply(%d) = %v", k, err)
						return
					}
				}
				state[base+i].Store(svcChaosWritten)
				if i%deleteEvery == 0 {
					if err := e.Apply(lsm.Entry{Key: k, Tombstone: true}); err != nil {
						fail("Delete(%d) = %v", k, err)
						return
					}
					state[base+i].Store(svcChaosDeleted)
				}
			}
		}(w)
	}
	// The run ends when the writers have finished their fixed work AND
	// every reader loop has completed a minimum number of operations —
	// on one core the writers can otherwise outrun readers that never
	// got scheduled, leaving nothing actually tested.
	const (
		nLoops     = 6 // kv point, kv batch, mem point, mem batch, http, reloader
		minimumOps = 200
	)
	var loopOps [nLoops]atomic.Int64
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	done := make(chan struct{})
	go func() {
		<-writersDone
		for {
			all := true
			for i := range loopOps {
				if loopOps[i].Load() < minimumOps {
					all = false
				}
			}
			if all {
				close(done)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	deleteEligible := func(k uint64) bool { return (k%keysPerWriter)%deleteEvery == 0 }
	checkKV := func(k, v uint64, ok, observed bool, st int32) {
		switch {
		case observed && st == svcChaosWritten && !deleteEligible(k):
			if !ok {
				fail("false negative: key %d written but not found", k)
			} else if v != svcChaosValue(k) {
				fail("key %d = %d, want %d", k, v, svcChaosValue(k))
			}
		case observed && st == svcChaosDeleted:
			if ok {
				fail("key %d deleted but still found (=%d)", k, v)
			}
		default:
			if ok && v != svcChaosValue(k) {
				fail("key %d = %d, want %d", k, v, svcChaosValue(k))
			}
		}
	}

	var readers sync.WaitGroup

	// KV point reader: the scalar path must stay exact while its
	// backing store compacts, faults, and stalls.
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := uint64(1)
		for {
			select {
			case <-done:
				return
			default:
			}
			rng = rng*6364136223846793005 + 1442695040888963407
			k := rng % total
			st := state[k].Load() // observe BEFORE the read
			v, ok, err := e.Get(k)
			if err != nil {
				fail("Get(%d) = %v", k, err)
				return
			}
			checkKV(k, v, ok, st != svcChaosUnwritten, st)
			if loopOps[0].Add(1) >= minimumOps {
				time.Sleep(200 * time.Microsecond) // met quota: yield the core to straggler loops
			}
		}
	}()

	// KV batch reader.
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := uint64(2)
		keys := make([]uint64, 32)
		vals := make([]uint64, 32)
		found := make([]bool, 32)
		sts := make([]int32, 32)
		for {
			select {
			case <-done:
				return
			default:
			}
			for i := range keys {
				rng = rng*6364136223846793005 + 1442695040888963407
				keys[i] = rng % total
				sts[i] = state[keys[i]].Load()
			}
			if err := e.GetBatch(keys, vals, found); err != nil {
				fail("GetBatch = %v", err)
				return
			}
			for i := range keys {
				checkKV(keys[i], vals[i], found[i], sts[i] != svcChaosUnwritten, sts[i])
			}
			if loopOps[1].Add(1) >= minimumOps {
				time.Sleep(200 * time.Microsecond) // met quota: yield the core to straggler loops
			}
		}
	}()

	// Membership point reader: every membership key is in
	// every filter generation, so a false negative is a wrong result no
	// matter when the reload lands.
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := uint64(3)
		for {
			select {
			case <-done:
				return
			default:
			}
			rng = rng*6364136223846793005 + 1442695040888963407
			k := memKeys[rng%memCount]
			ok, err := e.Contains(k)
			if err != nil {
				fail("Contains(%d) = %v", k, err)
				return
			}
			if !ok {
				fail("membership key %d lost (filter gen %d)", k, e.Filter().Gen)
			}
			if loopOps[2].Add(1) >= minimumOps {
				time.Sleep(200 * time.Microsecond) // met quota: yield the core to straggler loops
			}
		}
	}()

	// Membership batch reader.
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := uint64(4)
		keys := make([]uint64, 64)
		out := make([]bool, 64)
		for {
			select {
			case <-done:
				return
			default:
			}
			for i := range keys {
				rng = rng*6364136223846793005 + 1442695040888963407
				keys[i] = memKeys[rng%memCount]
			}
			if err := e.ContainsBatch(keys, out); err != nil {
				fail("ContainsBatch = %v", err)
				return
			}
			for i, ok := range out {
				if !ok {
					fail("membership key %d lost in batch", keys[i])
				}
			}
			if loopOps[3].Add(1) >= minimumOps {
				time.Sleep(200 * time.Microsecond) // met quota: yield the core to straggler loops
			}
		}
	}()

	// HTTP prober: the same invariant through the full stack.
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := uint64(5)
		for {
			select {
			case <-done:
				return
			default:
			}
			rng = rng*6364136223846793005 + 1442695040888963407
			k := memKeys[rng%memCount]
			code, body := post(t, ts, "/v1/contains", "application/json",
				`{"key": `+itoa(k)+`}`)
			if code != http.StatusOK || !strings.Contains(body, `"found":true`) {
				fail("HTTP contains(%d): %d %s", k, code, strings.TrimSpace(body))
				return
			}
			if loopOps[4].Add(1) >= minimumOps {
				time.Sleep(200 * time.Microsecond) // met quota: yield the core to straggler loops
			}
		}
	}()

	// Reloader: swap the serving snapshot as fast as it will go.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := e.Reload(snaps[i%2]); err != nil {
				fail("Reload = %v", err)
				return
			}
			if loopOps[5].Add(1) >= minimumOps {
				time.Sleep(200 * time.Microsecond) // met quota: yield the core to straggler loops
			}
		}
	}()

	<-done
	readers.Wait()

	if n := wrong.Load(); n != 0 {
		t.Fatalf("chaos run produced %d wrong results, want 0", n)
	}
	reloads := loopOps[5].Load()
	if gen := e.Filter().Gen; gen < 2 {
		t.Fatalf("filter generation %d after %d reloads", gen, reloads)
	}
	if n := e.Metrics().ReqContains.Load(); n < minimumOps {
		t.Fatalf("single-key membership path served %d requests, want at least %d", n, minimumOps)
	}
	stats := store.Device().Counters()
	if stats.FailedReads+stats.FailedWrites == 0 {
		t.Fatal("device fault injector never fired — the chaos test is not testing chaos")
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
