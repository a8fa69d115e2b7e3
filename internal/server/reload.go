package server

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
)

// FilterSnapshot is one immutable generation of the serving filter.
// Probes grab the current snapshot once and use it for a whole batch,
// so a reload never splits a batch across two filters; old snapshots
// drain naturally as their in-flight probes finish.
type FilterSnapshot struct {
	Filter   core.Filter
	Gen      uint64 // monotonically increasing generation
	Path     string // source .bbf file ("" for the built-in filter)
	LoadedAt time.Time
	SizeBits int
}

// Mutable reports whether live inserts are allowed into this
// snapshot. Only the sharded wrapper is safe for concurrent
// Insert+Contains (each shard carries its own lock); a bare filter
// loaded from a .bbf serves read-only.
func (s *FilterSnapshot) Mutable() *concurrent.Sharded {
	sh, _ := s.Filter.(*concurrent.Sharded)
	return sh
}

// filterHandle hands the serving filter off atomically: readers Load a
// snapshot pointer, Reload publishes a new one. There is no lock on
// the read path.
type filterHandle struct {
	cur atomic.Pointer[FilterSnapshot]
}

func (h *filterHandle) load() *FilterSnapshot { return h.cur.Load() }

// install publishes f as the next generation and returns its snapshot.
func (h *filterHandle) install(f core.Filter, path string) *FilterSnapshot {
	gen := uint64(1)
	if prev := h.cur.Load(); prev != nil {
		gen = prev.Gen + 1
	}
	snap := &FilterSnapshot{
		Filter:   f,
		Gen:      gen,
		Path:     path,
		LoadedAt: time.Now(),
		SizeBits: f.SizeBits(),
	}
	h.cur.Store(snap)
	return snap
}

// LoadFilterFile reads exactly one persisted filter from a .bbf file
// via the core registry. Trailing bytes after the filter's encoding
// are rejected — a half-written or concatenated file must not load as
// a smaller valid filter.
func LoadFilterFile(path string) (core.Persistent, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	r := bufio.NewReader(file)
	f, err := core.Load(r)
	if err != nil {
		return nil, fmt.Errorf("server: loading %s: %w", path, err)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("server: %s has trailing bytes after the filter frame", path)
	}
	return f, nil
}
