package lsm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"beyondbloom/internal/codec"
	"beyondbloom/internal/core"
	"beyondbloom/internal/surf"
	"beyondbloom/internal/workload"
)

// reopen saves s into a fresh directory and opens it again.
func reopen(t *testing.T, s *Store, opts Options) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return got
}

// TestReopenIdenticalAnswersAndIO is the durability acceptance check:
// a reopened store must give the same Get/GetBatch answers as the
// original AND pay the same I/O doing it — counters are persisted and
// every reloaded filter answers bit-identically, so the two stores'
// Device counters stay equal through an identical workload.
func TestReopenIdenticalAnswersAndIO(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"bloom-leveling", Options{Policy: PolicyBloom, MemtableSize: 256}},
		{"monkey-tiering", Options{Policy: PolicyMonkey, MemtableSize: 256, Compaction: Tiering}},
		{"maplet", Options{Policy: PolicyMaplet, MemtableSize: 256}},
		{"none-lazy", Options{Policy: PolicyNone, MemtableSize: 256, Compaction: LazyLeveling}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.opts)
			keys := fillStore(t, s, 20000, 7)
			for _, k := range keys[:500] {
				s.Delete(k)
			}
			// Leave the memtable partially full so its persistence is
			// exercised too.
			s.Put(123456789, 42)

			got := reopen(t, s, Options{RangeFilter: tc.opts.RangeFilter})
			if got.Levels() != s.Levels() || got.Runs() != s.Runs() {
				t.Fatalf("shape: got %d levels/%d runs, want %d/%d", got.Levels(), got.Runs(), s.Levels(), s.Runs())
			}
			if got.Device().Reads() != s.Device().Reads() || got.Device().Writes() != s.Device().Writes() {
				t.Fatalf("restored counters: got R=%d W=%d, want R=%d W=%d",
					got.Device().Reads(), got.Device().Writes(), s.Device().Reads(), s.Device().Writes())
			}
			if got.FilterMemoryBits() != s.FilterMemoryBits() {
				t.Fatalf("FilterMemoryBits: got %d, want %d", got.FilterMemoryBits(), s.FilterMemoryBits())
			}

			// Identical workload on both stores: answers and the exact I/O
			// trajectory must match.
			probe := append(append([]uint64{}, keys...), workload.DisjointKeys(5000, 7)...)
			for _, k := range probe {
				v1, ok1 := s.Get(k)
				v2, ok2 := got.Get(k)
				if v1 != v2 || ok1 != ok2 {
					t.Fatalf("Get(%d): original (%d,%v), reopened (%d,%v)", k, v1, ok1, v2, ok2)
				}
			}
			if got.Device().Reads() != s.Device().Reads() {
				t.Fatalf("scalar lookups diverged: %d reads vs %d", got.Device().Reads(), s.Device().Reads())
			}
			if got.FilterProbes() != s.FilterProbes() {
				t.Fatalf("filter probes diverged: %d vs %d", got.FilterProbes(), s.FilterProbes())
			}

			v1 := make([]uint64, len(probe))
			f1 := make([]bool, len(probe))
			v2 := make([]uint64, len(probe))
			f2 := make([]bool, len(probe))
			s.GetBatch(probe, v1, f1)
			got.GetBatch(probe, v2, f2)
			for i := range probe {
				if v1[i] != v2[i] || f1[i] != f2[i] {
					t.Fatalf("GetBatch(%d): original (%d,%v), reopened (%d,%v)", probe[i], v1[i], f1[i], v2[i], f2[i])
				}
			}
			if got.Device().Reads() != s.Device().Reads() {
				t.Fatalf("batched lookups diverged: %d reads vs %d", got.Device().Reads(), s.Device().Reads())
			}

			// The reopened store keeps working as a store: new writes flush
			// and compact with the restored id pool and level arithmetic.
			for i, k := range workload.Keys(5000, 11) {
				got.Put(k, uint64(i))
			}
			for i, k := range workload.Keys(5000, 11) {
				if v, ok := got.Get(k); !ok || v != uint64(i) {
					t.Fatalf("post-reopen Put/Get(%d) = (%d,%v)", k, v, ok)
				}
			}
		})
	}
}

// TestReopenWithRangeFilter verifies range filters are rebuilt from
// the reloaded keys and Scan still skips runs.
func TestReopenWithRangeFilter(t *testing.T) {
	builder := func(keys []uint64) core.RangeFilter {
		return surf.New(keys, surf.SuffixReal, 8)
	}
	s := New(Options{Policy: PolicyBloom, MemtableSize: 256, RangeFilter: builder})
	keys := fillStore(t, s, 8000, 5)
	got := reopen(t, s, Options{RangeFilter: builder})
	lo, hi := keys[17], keys[17]+1000
	want := s.Scan(lo, hi)
	have := got.Scan(lo, hi)
	if len(want) != len(have) {
		t.Fatalf("Scan: %d entries vs %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("Scan[%d]: %+v vs %+v", i, have[i], want[i])
		}
	}
	if s.Device().Reads() != got.Device().Reads() {
		t.Fatalf("scan I/O diverged: %d vs %d", got.Device().Reads(), s.Device().Reads())
	}

	// Reopening without the builder must fail loudly, not silently lose
	// the range filters.
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, Options{}); err == nil {
		t.Fatal("OpenStore without the saved store's RangeFilter builder should error")
	}
}

// TestOpenStoreRejectsMismatchedOptions checks structural overrides
// that disagree with the manifest are configuration errors.
func TestOpenStoreRejectsMismatchedOptions(t *testing.T) {
	s := New(Options{Policy: PolicyBloom, MemtableSize: 256, SizeRatio: 4})
	fillStore(t, s, 3000, 9)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Options{
		{MemtableSize: 512},
		{SizeRatio: 8},
		{Policy: PolicyMaplet},
		{BitsPerKey: 4},
		{Compaction: Tiering},
	} {
		if _, err := OpenStore(dir, bad); err == nil {
			t.Fatalf("OpenStore with mismatched %+v should error", bad)
		}
	}
	if _, err := OpenStore(dir, Options{}); err != nil {
		t.Fatalf("OpenStore with zero options: %v", err)
	}
}

// TestOpenStoreDetectsCorruption flips bytes in each saved file and
// requires OpenStore to fail rather than serve wrong answers.
func TestOpenStoreDetectsCorruption(t *testing.T) {
	s := New(Options{Policy: PolicyBloom, MemtableSize: 256})
	fillStore(t, s, 4000, 13)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected manifest plus run files, found %d files", len(files))
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mutated := append([]byte(nil), raw...)
		mutated[len(mutated)/2] ^= 0x10
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(dir, Options{}); err == nil {
			t.Fatalf("corrupting %s went undetected", filepath.Base(path))
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenStore(dir, Options{}); err != nil {
		t.Fatalf("restored files should open cleanly: %v", err)
	}
}

// TestOpenStoreRejectsForeignManifestKind: a MANIFEST holding some
// other frame kind — a run file, or one of the retired v1 and v2
// manifest layouts — fails with a kind error, not a misparse.
func TestOpenStoreRejectsForeignManifestKind(t *testing.T) {
	for _, kind := range []uint16{core.TypeLSMRun, core.TypeLSMManifest, core.TypeLSMManifestV2} {
		var buf bytes.Buffer
		if _, err := codec.WriteFrame(&buf, kind, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(dir, Options{}); !errors.Is(err, codec.ErrKind) {
			t.Fatalf("manifest kind %d: err = %v, want ErrKind", kind, err)
		}
	}
}
