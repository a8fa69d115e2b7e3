package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the benchmark's request id to the traced server's
// handler middleware, so server-side spans join their client span.
const reqHeader = "X-Bench-Req"

// op is one request a connection sends.
type op struct {
	write bool   // a put or delete (else a read)
	path  string // URL path
	ctype string // Content-Type
	body  []byte
	keys  int    // keys a read asks about (0 for writes)
	key0  uint64 // first key, used to join filter spans to requests
}

// loop is one connection's closed loop: it makes the next request and
// checks the reply. check returns a non-nil error only for a wrong
// answer; a refused or failed request is the driver's to count. status
// is 0 when the request failed in transport.
type loop interface {
	next() *op
	check(o *op, status int, body []byte) error
}

// conn is one keep-alive HTTP connection: its own transport, capped at
// one connection, so two conns are exactly two sockets.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(addr string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{hc: &http.Client{Transport: tr}, base: "http://" + addr}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends o and reads the whole reply. id < 0 sends no request id.
func (c *conn) do(ctx context.Context, o *op, id int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", o.ctype)
	if id >= 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// phaseConfig is one timed phase: warm up, then measure.
type phaseConfig struct {
	addr    string
	warmup  time.Duration
	measure time.Duration
	tr      *tracer // nil for an untraced phase
	record  int     // requests per connection kept for the rungs
	pid     int     // server process whose CPU time the phase samples
}

// recorded is one request kept for the rungs: what was sent and, for
// reads, the reply.
type recorded struct {
	o    *op
	resp []byte
}

// phaseResult is what the clients saw in the measured interval.
type phaseResult struct {
	reads, writes []sample
	readKeys      int64
	attempted     int64 // requests sent in the measured interval
	failed        int64 // of those: refusals, other non-2xx, transport errors
	seconds       float64
	total         int64 // requests completed in the whole phase, warm-up included
	allReadKeys   int64 // keys answered in the whole phase
	allWrites     int64 // writes acknowledged in the whole phase
	recorded      []recorded
	serverCPU     float64 // server CPU seconds in the measured interval
}

func (r *phaseResult) readKeysPerS() float64 { return float64(r.readKeys) / r.seconds }
func (r *phaseResult) writesPerS() float64   { return float64(len(r.writes)) / r.seconds }

// runPhase drives the two closed loops over two connections until the
// measured interval ends. Each connection sends its next request only
// after the previous reply. A wrong answer stops both loops and is
// returned as the error.
func runPhase(parent context.Context, cfg phaseConfig, loops [2]loop) (*phaseResult, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	start := time.Now()
	t0 := start.Add(cfg.warmup)
	t1 := t0.Add(cfg.measure)
	var nextID atomic.Int64
	cpu := make(chan float64, 1)
	go func() { cpu <- cpuBetween(ctx, cfg.pid, t0, t1) }()
	parts := make([]*phaseResult, len(loops))
	errs := make([]error, len(loops))
	var wg sync.WaitGroup
	for i := range loops {
		parts[i] = &phaseResult{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = drive(ctx, cfg, loops[i], parts[i], t0, t1, &nextID)
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	out := &phaseResult{seconds: cfg.measure.Seconds(), serverCPU: <-cpu}
	for _, p := range parts {
		out.reads = append(out.reads, p.reads...)
		out.writes = append(out.writes, p.writes...)
		out.readKeys += p.readKeys
		out.attempted += p.attempted
		out.failed += p.failed
		out.total += p.total
		out.allReadKeys += p.allReadKeys
		out.allWrites += p.allWrites
		out.recorded = append(out.recorded, p.recorded...)
	}
	if out.attempted == 0 {
		return nil, fmt.Errorf("no request completed in the measured interval")
	}
	return out, nil
}

// drive runs one connection's loop from the start of the phase to t1,
// timing requests sent at or after t0.
func drive(ctx context.Context, cfg phaseConfig, l loop, res *phaseResult, t0, t1 time.Time, nextID *atomic.Int64) error {
	c := newConn(cfg.addr)
	defer c.close()
	for ctx.Err() == nil && time.Now().Before(t1) {
		o := l.next()
		id := int64(-1)
		if cfg.tr != nil {
			id = nextID.Add(1)
		}
		sent := time.Now()
		status, body, err := c.do(ctx, o, id)
		done := time.Now()
		if ctx.Err() != nil {
			return nil // another connection failed the run
		}
		if err != nil {
			status = 0
		}
		if cerr := l.check(o, status, body); cerr != nil {
			return &wrongAnswer{err: cerr, attempted: res.attempted + 1, failed: res.failed}
		}
		if cfg.tr != nil {
			cfg.tr.client(id, o, sent, done)
		}
		res.total++
		if status == http.StatusOK {
			if o.write {
				res.allWrites++
			} else {
				res.allReadKeys += int64(o.keys)
			}
		}
		if len(res.recorded) < cfg.record && status == http.StatusOK {
			res.recorded = append(res.recorded, recorded{o: o, resp: append([]byte(nil), body...)})
		}
		if sent.Before(t0) || done.After(t1) {
			continue
		}
		res.attempted++
		if status != http.StatusOK {
			res.failed++
			continue
		}
		s := sample{at: done.Sub(t0).Nanoseconds(), ns: done.Sub(sent).Nanoseconds(), keys: o.keys}
		if o.write {
			res.writes = append(res.writes, s)
		} else {
			res.reads = append(res.reads, s)
			res.readKeys += int64(o.keys)
		}
	}
	return nil
}

// cpuBetween returns the CPU seconds process pid used between t0 and
// t1, sampled when each arrives. It returns 0 if ctx ends first or the
// process cannot be read.
func cpuBetween(ctx context.Context, pid int, t0, t1 time.Time) float64 {
	var at [2]float64
	for i, t := range []time.Time{t0, t1} {
		select {
		case <-time.After(time.Until(t)):
		case <-ctx.Done():
			return 0
		}
		at[i] = cpuSeconds(pid)
	}
	return at[1] - at[0]
}
