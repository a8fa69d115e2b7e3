package server

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondbloom/internal/lsm"
	"beyondbloom/internal/persisttest"
)

// TestEngineCloseRace closes the engine while single-key Contains and
// Get requests arrive from many goroutines: every request must resolve
// to either a correct answer or ErrShutdown — never a hang, never a
// wrong answer — and every request after Close must be refused.
func TestEngineCloseRace(t *testing.T) {
	const goroutines, perG = 4, 50
	for round := 0; round < 20; round++ {
		e := newTestEngine(t, true, Config{})
		for g := 0; g < goroutines; g++ {
			for i := 0; i < perG; i += 2 {
				key := uint64(g*1000 + i)
				if err := e.Insert(key); err != nil {
					t.Fatal(err)
				}
				if err := e.Apply(lsm.Entry{Key: key, Value: key * 2}); err != nil {
					t.Fatal(err)
				}
			}
		}
		var wg sync.WaitGroup
		var wrong atomic.Int64
		check := func(ok bool, err error) {
			if err != nil && !errors.Is(err, ErrShutdown) || err == nil && !ok {
				wrong.Add(1)
			}
		}
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					key := uint64(g*1000 + i)
					present := i%2 == 0
					found, err := e.Contains(key)
					check(found || !present, err)
					value, found, err := e.Get(key)
					check(found == present && (!present || value == key*2), err)
				}
			}(g)
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		e.Close()
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
		if _, err := e.Contains(0); !errors.Is(err, ErrShutdown) {
			t.Fatalf("Contains after Close = %v, want ErrShutdown", err)
		}
		if _, _, err := e.Get(0); !errors.Is(err, ErrShutdown) {
			t.Fatalf("Get after Close = %v, want ErrShutdown", err)
		}
	}
}

// TestEngineConcurrentProbesEveryFilter serves every persisted filter
// image in the golden set, loaded read-only through LoadFilterFile,
// and probes it from several goroutines at once: scalar Contains calls
// with ContainsBatch calls mixed in. Single-key probes run in parallel
// on the caller's goroutines, so under -race this checks each filter's
// read path is safe to share. Every answer must equal a serial probe's.
func TestEngineConcurrentProbesEveryFilter(t *testing.T) {
	paths, err := filepath.Glob("../persisttest/testdata/*.bbf")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden filter images found")
	}
	// The golden images hold persisttest.Keys(256, 1); salt 2 adds as
	// many keys that were never inserted.
	present := persisttest.Keys(256, 1)
	keys := append(append([]uint64(nil), present...), persisttest.Keys(256, 2)...)
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := LoadFilterFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]bool, len(keys))
			for i, k := range keys {
				want[i] = f.Contains(k)
			}
			for i := range present {
				if !want[i] {
					t.Fatalf("key %#x lost by the loaded image", present[i])
				}
			}
			e, err := NewEngine(f, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			const goroutines, rounds, batch = 4, 3, 64
			var wg sync.WaitGroup
			var wrong atomic.Int64
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					out := make([]bool, batch)
					for r := 0; r < rounds; r++ {
						for i := range keys {
							j := (i + g*len(keys)/goroutines) % len(keys)
							if found, err := e.Contains(keys[j]); err != nil || found != want[j] {
								wrong.Add(1)
							}
							if j%batch == 0 && j+batch <= len(keys) {
								if err := e.ContainsBatch(keys[j:j+batch], out); err != nil {
									wrong.Add(1)
								}
								for k, found := range out {
									if found != want[j+k] {
										wrong.Add(1)
									}
								}
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if n := wrong.Load(); n != 0 {
				t.Fatalf("%d answers differ from the serial probe", n)
			}
		})
	}
}
