package main

import "testing"

// write sends one write of key and records its reply.
func write(o *oracle, key, val uint64, tomb, ok, fresh bool) {
	o.mu.Lock()
	i := o.beginLocked(key, val, tomb)
	o.mu.Unlock()
	o.ack(key, i, ok, fresh)
}

func TestOracleInitialState(t *testing.T) {
	o := newOracle([]uint64{10, 11})
	s, r := o.stamp(), o.stamp()
	if err := o.check(10, true, 10, s, r); err != nil {
		t.Errorf("preloaded key with its value: %v", err)
	}
	if o.check(10, false, 0, s, r) == nil {
		t.Error("preloaded key read absent was accepted")
	}
	if o.check(10, true, 99, s, r) == nil {
		t.Error("preloaded key read with a wrong value was accepted")
	}
	if err := o.check(12, false, 0, s, r); err != nil {
		t.Errorf("never-written key read absent: %v", err)
	}
	if o.check(12, true, 12, s, r) == nil {
		t.Error("never-written key read present was accepted")
	}
}

func TestOracleAcknowledgedWriteIsVisible(t *testing.T) {
	o := newOracle([]uint64{10})
	write(o, 10, 77, false, true, false)
	s, r := o.stamp(), o.stamp()
	if err := o.check(10, true, 77, s, r); err != nil {
		t.Errorf("read after acknowledged put: %v", err)
	}
	if o.check(10, true, 10, s, r) == nil {
		t.Error("stale preloaded value accepted after an acknowledged put")
	}
	write(o, 10, 0, true, true, false)
	s, r = o.stamp(), o.stamp()
	if err := o.check(10, false, 0, s, r); err != nil {
		t.Errorf("read after acknowledged delete: %v", err)
	}
	if o.check(10, true, 77, s, r) == nil {
		t.Error("deleted key returned its old value")
	}
}

func TestOracleInFlightWriteMayOrMayNotShow(t *testing.T) {
	o := newOracle([]uint64{10})
	readSent := o.stamp()
	o.mu.Lock()
	i := o.beginLocked(10, 55, false)
	o.mu.Unlock()
	readRecv := o.stamp()
	for _, v := range []uint64{10, 55} {
		if err := o.check(10, true, v, readSent, readRecv); err != nil {
			t.Errorf("value %d during an in-flight put: %v", v, err)
		}
	}
	o.ack(10, i, true, false)
	// A write sent after the read's reply came back cannot be visible.
	s, r := o.stamp(), o.stamp()
	write(o, 10, 66, false, true, false)
	if o.check(10, true, 66, s, r) == nil {
		t.Error("a write sent after the read completed was accepted")
	}
}

func TestOracleWriteSentBeforeReadButAckedAfter(t *testing.T) {
	o := newOracle(nil)
	o.mu.Lock()
	i := o.beginLocked(5, 1, false)
	o.mu.Unlock()
	s := o.stamp()
	o.ack(5, i, true, true)
	r := o.stamp()
	if err := o.check(5, false, 0, s, r); err != nil {
		t.Errorf("absent while the put was in flight: %v", err)
	}
	if err := o.check(5, true, 1, s, r); err != nil {
		t.Errorf("present while the put was in flight: %v", err)
	}
	if o.check(5, true, 2, s, r) == nil {
		t.Error("a value never written was accepted")
	}
}

func TestOracleFailedWriteStaysPossible(t *testing.T) {
	o := newOracle([]uint64{10})
	write(o, 10, 88, false, false, false)
	s, r := o.stamp(), o.stamp()
	for _, v := range []uint64{10, 88} {
		if err := o.check(10, true, v, s, r); err != nil {
			t.Errorf("value %d after a failed put: %v", v, err)
		}
	}
	if o.acked != 0 {
		t.Errorf("failed write counted as acknowledged: %d", o.acked)
	}
}

func TestOracleWrittenAndLive(t *testing.T) {
	o := newOracle([]uint64{1, 2, 3})
	write(o, 2, 0, true, true, false)   // delete a preloaded key
	write(o, 9, 90, false, true, true)  // fresh put
	write(o, 8, 80, false, false, true) // failed fresh put: not written
	write(o, 7, 70, false, true, true)
	write(o, 7, 0, true, true, false) // fresh key deleted again
	if got, want := len(o.written), 5; got != want {
		t.Errorf("written has %d keys, want %d", got, want)
	}
	// Live: 1, 3, 9 and the failed put of 8, which may have applied.
	if got := o.live(); got != 4 {
		t.Errorf("live = %d, want 4", got)
	}
}
