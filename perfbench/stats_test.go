package main

import (
	"math"
	"testing"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/workload"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{4, 1, 3, 2}
	median(xs)
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestLatencyReportsMedianAndTail(t *testing.T) {
	var s []sample
	for i := 1000; i >= 1; i-- {
		s = append(s, sample{at: int64(i), ns: int64(i) * 1000})
	}
	p50, p99, n := latency(s)
	if p50 != 500 || p99 != 990 || n != 1000 {
		t.Errorf("latency = %v, %v, %d; want 500, 990, 1000", p50, p99, n)
	}
}

func TestBlockedBloomFPRMatchesFilter(t *testing.T) {
	const n = 1 << 16
	f := bloom.NewBlocked(n+1, bitsPerKey)
	for _, k := range workload.Keys(n, 5) {
		f.Insert(k)
	}
	strangers := workload.DisjointKeys(1<<19, 5)
	fp := 0
	for _, k := range strangers {
		if f.Contains(k) {
			fp++
		}
	}
	got := float64(fp) / float64(len(strangers))
	want := blockedBloomFPR(n, f.SizeBits(), f.K())
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("measured FPR %.5f, analytic %.5f: more than 15%% apart", got, want)
	}
	if !fprWithinBound(int64(fp), int64(len(strangers)), want) {
		t.Errorf("an honest filter fails the accuracy guard: %d false positives of %d", fp, len(strangers))
	}
	if fprWithinBound(int64(2*fp), int64(len(strangers)), want) {
		t.Error("a doubled false-positive count passes the accuracy guard")
	}
}

func TestWindowedFiguresIgnoreOneBadWindow(t *testing.T) {
	var s []sample
	for w := 0; w < 5; w++ {
		lat := int64(100)
		if w == 2 {
			lat = 5000 // a stall in one window
		}
		n := 200
		if w == 2 {
			n = 20
		}
		for i := 0; i < n; i++ {
			s = append(s, sample{at: int64(w)*int64(window) + int64(i), ns: (lat + int64(i%10)) * 1000, keys: 4})
		}
	}
	if got := windowedRate(s); got != 800 {
		t.Errorf("windowedRate = %v, want 800 keys/s", got)
	}
	if got := windowedPercentile(s, 99); got != 109 {
		t.Errorf("windowed p99 = %v, want 109", got)
	}
	// Too few samples in every window to place a p99: fall back to all.
	few := []sample{{at: 0, ns: 1000}, {at: int64(window), ns: 2000}}
	if got := windowedPercentile(few, 99); got != 2 {
		t.Errorf("windowed p99 of two samples = %v, want 2", got)
	}
}
