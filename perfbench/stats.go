package main

import (
	"math"
	"sort"
	"time"

	"beyondbloom/internal/workload"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). An empty input yields NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty input.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does
// not exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// window is the sub-interval the measured phase is cut into: a run
// reports the median over its windows, so a stall or a burst of outside
// load that hits one or two windows does not move the run's figure.
const window = time.Second

// windows groups samples by the window they completed in.
func windows(s []sample) [][]sample {
	var out [][]sample
	for _, x := range s {
		w := int(x.at / int64(window))
		for len(out) <= w {
			out = append(out, nil)
		}
		out[w] = append(out[w], x)
	}
	return out
}

// windowedRate returns the median over windows of keys completed per
// second.
func windowedRate(s []sample) float64 {
	var rates []float64
	for _, w := range windows(s) {
		var keys int
		for _, x := range w {
			keys += x.keys
		}
		rates = append(rates, float64(keys)/window.Seconds())
	}
	return median(rates)
}

// windowedPercentile returns the median over windows of each window's
// p-th percentile latency (µs). Windows with fewer than 100/(100-p)
// samples cannot place the percentile and are left out; when none is
// left it falls back to the percentile over all samples.
func windowedPercentile(s []sample, p float64) float64 {
	minSamples := int(math.Ceil(100 / (100 - p)))
	var per []float64
	for _, w := range windows(s) {
		if len(w) >= minSamples {
			per = append(per, percentileUs(w, p))
		}
	}
	if len(per) == 0 {
		return percentileUs(s, p)
	}
	return median(per)
}

// percentileUs returns the nearest-rank p-th percentile latency of the
// samples in µs, or 0 for no samples.
func percentileUs(s []sample, p float64) float64 {
	ns := make([]int64, len(s))
	for i, x := range s {
		ns[i] = x.ns
	}
	return nsPercentileUs(ns, p)
}

// nsPercentileUs returns the nearest-rank p-th percentile of durations
// in ns, in µs, or 0 for no durations.
func nsPercentileUs(ns []int64, p float64) float64 {
	r := workload.NewLatencyRecorder(0)
	r.RecordAll(ns)
	return float64(r.Percentile(p)) / 1e3
}

// sample is one timed request: when it completed (ns since the start
// of the measured interval), how long it took (ns), and the keys it
// asked about.
type sample struct {
	at   int64
	ns   int64
	keys int
}
