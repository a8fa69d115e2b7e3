package server

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Metrics is the service's counter block: plain atomics bumped on the
// hot paths (no locks, no maps, no allocation) and rendered on demand
// at /metrics (Prometheus text format) and /debug/vars (JSON). Every
// counter is monotonic, so the rendered output for a fixed request
// sequence is deterministic — the golden test pins it.
type Metrics struct {
	ReqContains      atomic.Int64
	ReqContainsBatch atomic.Int64
	ReqGet           atomic.Int64
	ReqGetBatch      atomic.Int64
	ReqPut           atomic.Int64
	ReqDelete        atomic.Int64
	ReqInsert        atomic.Int64
	ReqProbeBinary   atomic.Int64
	ReqReload        atomic.Int64

	ErrMalformed  atomic.Int64
	ErrTooLarge   atomic.Int64
	ErrOverload   atomic.Int64
	ErrShutdown   atomic.Int64
	ErrInternal   atomic.Int64
	RejectedRead  atomic.Int64
	RejectedWrite atomic.Int64

	Reloads atomic.Int64
}

// metricPoint is one rendered sample: a name, optional label pair, and
// value. Both renderers iterate the same gather slice, so /metrics and
// /debug/vars can never disagree on a counter.
type metricPoint struct {
	name        string
	label, lval string
	value       int64
}

// gather lists the server-owned counters in render order.
func (m *Metrics) gather() []metricPoint {
	return []metricPoint{
		{"filterd_requests_total", "op", "contains", m.ReqContains.Load()},
		{"filterd_requests_total", "op", "contains_batch", m.ReqContainsBatch.Load()},
		{"filterd_requests_total", "op", "get", m.ReqGet.Load()},
		{"filterd_requests_total", "op", "get_batch", m.ReqGetBatch.Load()},
		{"filterd_requests_total", "op", "put", m.ReqPut.Load()},
		{"filterd_requests_total", "op", "delete", m.ReqDelete.Load()},
		{"filterd_requests_total", "op", "insert", m.ReqInsert.Load()},
		{"filterd_requests_total", "op", "probe_binary", m.ReqProbeBinary.Load()},
		{"filterd_requests_total", "op", "reload", m.ReqReload.Load()},
		{"filterd_errors_total", "kind", "malformed", m.ErrMalformed.Load()},
		{"filterd_errors_total", "kind", "too_large", m.ErrTooLarge.Load()},
		{"filterd_errors_total", "kind", "overloaded", m.ErrOverload.Load()},
		{"filterd_errors_total", "kind", "shutdown", m.ErrShutdown.Load()},
		{"filterd_errors_total", "kind", "internal", m.ErrInternal.Load()},
		{"filterd_admission_rejected_total", "class", "read", m.RejectedRead.Load()},
		{"filterd_admission_rejected_total", "class", "write", m.RejectedWrite.Load()},
		{"filterd_reloads_total", "", "", m.Reloads.Load()},
	}
}

// writeProm renders points in Prometheus text exposition format.
func writeProm(w io.Writer, points []metricPoint) {
	for _, p := range points {
		if p.label == "" {
			fmt.Fprintf(w, "%s %d\n", p.name, p.value)
		} else {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", p.name, p.label, p.lval, p.value)
		}
	}
}

// writeVars renders points as a flat JSON object, one
// "name.labelvalue" key per sample, matching expvar's spirit without
// its per-counter allocation. Points arrive in gather order, which is
// fixed, so the output is deterministic too.
func writeVars(w io.Writer, points []metricPoint, extra []metricPoint) {
	io.WriteString(w, "{")
	first := true
	emit := func(key string, v int64) {
		if !first {
			io.WriteString(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n  %q: %d", key, v)
	}
	for _, p := range append(points, extra...) {
		key := p.name
		if p.label != "" {
			key += "." + p.lval
		}
		emit(key, p.value)
	}
	io.WriteString(w, "\n}\n")
}
