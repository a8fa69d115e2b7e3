package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// oracle is kv_mixed's per-key model of every write the benchmark sent.
// Events are ordered by one logical clock: a write takes a stamp before
// it is sent and another once its acknowledgement is back; a read takes
// a stamp before it is sent and another once its reply is back. A read
// may return the value of the latest write acknowledged before the read
// was sent, or of any write still in flight while the read was; nothing
// else. Keys never written during the run hold their preloaded state.
type oracle struct {
	clock atomic.Uint64

	mu        sync.Mutex
	preloaded map[uint64]struct{} // preloaded keys; their value is the key
	hist      map[uint64][]version
	written   []uint64 // keys written so far: the preload, then acknowledged fresh puts
	acked     int64    // acknowledged writes
}

// version is one write of a key.
type version struct {
	val   uint64
	tomb  bool
	sent  uint64 // stamp taken before the write was sent
	acked uint64 // stamp taken after its acknowledgement; unacked while in flight or failed
}

// unacked marks a write with no acknowledgement. A failed write may
// still have been applied, so it stays a possible answer for good.
const unacked = math.MaxUint64

func newOracle(preload []uint64) *oracle {
	o := &oracle{
		preloaded: make(map[uint64]struct{}, len(preload)),
		hist:      map[uint64][]version{},
		written:   append([]uint64(nil), preload...),
	}
	for _, k := range preload {
		o.preloaded[k] = struct{}{}
	}
	return o
}

// stamp advances the logical clock.
func (o *oracle) stamp() uint64 { return o.clock.Add(1) }

// beginLocked records a write about to be sent and returns its index
// in the key's history. The caller holds o.mu.
func (o *oracle) beginLocked(key, val uint64, tomb bool) int {
	o.hist[key] = append(o.hist[key], version{val: val, tomb: tomb, sent: o.stamp(), acked: unacked})
	return len(o.hist[key]) - 1
}

// ack records the reply to write i of key. ok means it was
// acknowledged; fresh appends the key to the written set.
func (o *oracle) ack(key uint64, i int, ok, fresh bool) {
	at := o.stamp()
	o.mu.Lock()
	defer o.mu.Unlock()
	if !ok {
		return
	}
	o.hist[key][i].acked = at
	o.acked++
	if fresh {
		o.written = append(o.written, key)
	}
}

// check returns an error when a read of key sent at stamp sent and
// answered at stamp recv returned something no allowed state holds.
func (o *oracle) check(key uint64, found bool, val uint64, sent, recv uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, live := o.preloaded[key]
	base := version{val: key, tomb: !live}
	vs := o.hist[key]
	for _, v := range vs {
		if v.acked < sent {
			base = v
		}
	}
	if answers(base, found, val) {
		return nil
	}
	for _, v := range vs {
		if v.acked > sent && v.sent < recv && answers(v, found, val) {
			return nil
		}
	}
	if found {
		return fmt.Errorf("wrong answer: key %d read value %d; latest acknowledged state %s", key, val, base)
	}
	return fmt.Errorf("wrong answer: key %d read absent; latest acknowledged state %s", key, base)
}

func answers(v version, found bool, val uint64) bool {
	if v.tomb {
		return !found
	}
	return found && val == v.val
}

func (v version) String() string {
	if v.tomb {
		return "absent"
	}
	return fmt.Sprintf("value %d", v.val)
}

// live counts keys whose last write is a put: the preload minus keys
// whose history ends in a delete, plus fresh keys ending in a put.
func (o *oracle) live() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(o.preloaded)
	for k, vs := range o.hist {
		_, pre := o.preloaded[k]
		last := !vs[len(vs)-1].tomb
		switch {
		case pre && !last:
			n--
		case !pre && last:
			n++
		}
	}
	return n
}
