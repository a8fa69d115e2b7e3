package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"beyondbloom/internal/bloom"
	"beyondbloom/internal/concurrent"
	"beyondbloom/internal/core"
	"beyondbloom/internal/fault"
	"beyondbloom/internal/lsm"
	"beyondbloom/internal/server"
)

// recordPerConn is how many requests per connection the traced phase
// keeps for the rungs.
const recordPerConn = 2048

// hosted is the traced run's in-process filterd: the same public
// constructors cmd/filterd serve calls, with the filter and the store's
// filesystem wrapped in span recorders and the handler in a middleware.
type hosted struct {
	addr   string
	engine *server.Engine
	store  *lsm.Store
	fs     *spanFS
	srv    *http.Server
	served chan error
}

// hostTraced serves path (a .bbf filter or a store directory) the way
// filterd serve does with default flags.
func hostTraced(s spec, path string, tr *tracer) (*hosted, error) {
	h := &hosted{fs: &spanFS{FS: fault.Disk, t: tr}}
	var filter core.Filter
	if s.kv {
		// filterd serve -store without -filter serves a fresh mutable
		// sharded filter at its default -n 1048576 -bits 12 -log-shards 2.
		const n, logShards = 1 << 20, 2
		sh, err := concurrent.NewShardedMutable(logShards, func(int) core.MutableFilter {
			return bloom.NewBlocked(n>>logShards+1, bitsPerKey)
		})
		if err != nil {
			return nil, err
		}
		filter = sh
		h.store, err = lsm.OpenStore(path, lsm.Options{Background: true, Durability: lsm.DurabilityGroup, FS: h.fs})
		if err != nil {
			return nil, err
		}
	} else {
		f, err := server.LoadFilterFile(path)
		if err != nil {
			return nil, err
		}
		filter = f
	}
	var err error
	h.engine, err = server.NewEngine(&spanFilter{f: filter, t: tr}, h.store, server.Config{})
	if err != nil {
		h.closeStore()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.engine.Close()
		h.closeStore()
		return nil, err
	}
	h.addr = ln.Addr().String()
	h.srv = &http.Server{Handler: tr.middleware(server.New(h.engine))}
	h.served = make(chan error, 1)
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

func (h *hosted) closeStore() error {
	if h.store == nil {
		return nil
	}
	return h.store.Close()
}

// close shuts down in filterd's order: HTTP, then the engine, then the
// store.
func (h *hosted) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	h.engine.Close()
	return errors.Join(err, h.closeStore())
}

// runTraced builds the workload once, runs it untraced against the
// filterd binary, then traced against the in-process server, then
// prices each layer with direct calls on the recorded requests.
func runTraced(ctx context.Context, o options, s spec, in *inputs, work string) (*result, error) {
	buildDir := filepath.Join(work, "build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	args, image := s.buildArgs(buildDir, o.seed)
	buildDur, err := runBuild(ctx, o.filterd, args, filepath.Join(buildDir, "build.log"))
	if err != nil {
		return nil, err
	}
	// Each server gets its own copy of the store image, since serving
	// writes to it; the filter file is only read.
	binPath, tracedPath, rungPath := image, image, image
	if s.kv {
		binPath, tracedPath, rungPath = filepath.Join(work, "kv-binary"), filepath.Join(work, "kv-traced"), filepath.Join(work, "kv-rung")
		for _, dst := range []string{binPath, tracedPath, rungPath} {
			if err := copyDir(image, dst); err != nil {
				return nil, err
			}
		}
	}

	p, openDur, err := startServe(ctx, o.filterd, s.serveArgs(binPath), buildDir)
	if err != nil {
		return nil, err
	}
	loops, _ := in.loops()
	plain, err := runPhase(ctx, phaseConfig{addr: p.addr, warmup: o.warmup, measure: o.seconds}, loops)
	if serr := p.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	h, err := hostTraced(s, tracedPath, tr)
	if err != nil {
		return nil, err
	}
	tp, err := tracedPhase(ctx, o, in, h, tr)
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rg, err := runRungs(s, image, rungPath, tp.ph.recorded)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, o.seed))); err != nil {
		return nil, err
	}
	res, err := traceLayers(tr, tp, rg, s.kv)
	if err != nil {
		return nil, err
	}
	res.layer("filterd.build_s", "s", buildDur.Seconds(), 1)
	res.layer("filterd.open_s", "s", openDur.Seconds(), 1)
	res.layer("trace.overhead", "ratio", tp.ph.readKeysPerS()/plain.readKeysPerS(), len(plain.reads))
	res.extra("untraced.read_keys_per_s", "1/s", plain.readKeysPerS(), len(plain.reads))
	res.extra("traced.read_keys_per_s", "1/s", tp.ph.readKeysPerS(), len(tp.ph.reads))
	res.attempted, res.failed = tp.ph.attempted, tp.ph.failed
	res.sortLayers()
	return res, nil
}

// tracedRun is what the traced phase leaves for the layer metrics.
type tracedRun struct {
	ph                 *phaseResult
	counters           map[string]float64
	walBefore, walNow  walCounters
	fsBytes            int64
	runsEnd, levelsEnd int
}

type walCounters struct{ syncs, bytes, ops uint64 }

func walStats(st *lsm.Store) walCounters {
	if st == nil || st.WAL() == nil {
		return walCounters{}
	}
	s := st.WAL().Stats()
	return walCounters{syncs: s.Syncs, bytes: s.BytesLogged, ops: s.Ops}
}

func tracedPhase(ctx context.Context, o options, in *inputs, h *hosted, tr *tracer) (*tracedRun, error) {
	before, err := scrape(h.addr)
	if err != nil {
		return nil, err
	}
	t := &tracedRun{walBefore: walStats(h.store)}
	fsBefore := h.fs.written.Load()
	loops, _ := in.loops()
	t.ph, err = runPhase(ctx, phaseConfig{addr: h.addr, warmup: o.warmup, measure: o.seconds, tr: tr, record: recordPerConn}, loops)
	if err != nil {
		return nil, err
	}
	after, err := scrape(h.addr)
	if err != nil {
		return nil, err
	}
	t.counters = counterLayers(before, after, t.ph)
	t.walNow = walStats(h.store)
	t.fsBytes = h.fs.written.Load() - fsBefore
	if h.store != nil {
		t.runsEnd, t.levelsEnd = h.store.Runs(), h.store.Levels()
	}
	return t, nil
}

// rungPrices are the direct-call prices of single layers on the
// recorded requests.
type rungPrices struct {
	decodeNsPerKey   float64 // wire decode of read requests
	encodeNsPerKey   float64 // response encode of read replies
	kernelNsPerKey   float64 // core.ContainsBatch on the loaded filter
	engineNsPerKey   float64 // Engine.ContainsBatch / Engine.GetBatch
	getBatchNsPerKey float64 // Store.GetBatch
	writeDecodeUs    float64 // JSON decode of one write request
	allocsPerRequest float64 // heap allocations of server.New's handler per request
	allocRequests    int     // requests the allocation rung replayed
}

// rungTime is the least time one rung runs, in whole passes over the
// recorded requests.
const rungTime = 150 * time.Millisecond

// timeRung calls pass until rungTime has elapsed and returns ns per
// unit, where pass returns the units it processed.
func timeRung(pass func() int) float64 {
	var units int
	start := time.Now()
	for units == 0 || time.Since(start) < rungTime {
		units += pass()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(units)
}

// readInput is one recorded read decoded for replay: its keys and the
// reply the server gave.
type readInput struct {
	body   []byte
	binary bool
	keys   []uint64
	resp   server.Response
}

func runRungs(s spec, image, rungPath string, rec []recorded) (rungPrices, error) {
	var rp rungPrices
	var reads []*readInput
	var writes [][]byte
	for _, r := range rec {
		if r.o.write {
			writes = append(writes, r.o.body)
			continue
		}
		ri := &readInput{body: r.o.body, binary: r.o.ctype == server.BinaryContentType}
		var req server.Request
		if err := server.DecodeRequest(r.o.ctype, server.OpContains, r.o.body, &req); err != nil {
			return rp, err
		}
		ri.keys = req.Keys
		if ri.binary {
			if err := server.DecodeBinaryResponse(r.resp, &ri.resp); err != nil {
				return rp, err
			}
		} else {
			ri.resp.Found = []bool{string(r.resp) == string(jsonFound)}
		}
		reads = append(reads, ri)
	}
	if len(reads) == 0 {
		return rp, errors.New("traced phase recorded no reads")
	}
	var req server.Request
	rp.decodeNsPerKey = timeRung(func() (keys int) {
		for _, r := range reads {
			if r.binary {
				server.DecodeBinaryRequest(r.body, &req)
			} else {
				server.DecodeJSONKeys(server.OpContains, r.body, &req)
			}
			keys += len(req.Keys)
		}
		return keys
	})
	var buf []byte
	rp.encodeNsPerKey = timeRung(func() (keys int) {
		for _, r := range reads {
			if r.binary {
				buf = server.AppendBinaryResponse(buf[:0], r.resp.Op, r.resp.Found, r.resp.Values)
			} else {
				// The JSON handlers answer through json.Encoder.
				json.NewEncoder(io.Discard).Encode(map[string]bool{"found": r.resp.Found[0]})
			}
			keys += len(r.keys)
		}
		return keys
	})
	if len(writes) > 0 {
		// handlePut decodes into its own struct; DecodeJSONKeys parses
		// the same body shape and prices the same json.Unmarshal.
		rp.writeDecodeUs = timeRung(func() int {
			for _, b := range writes {
				server.DecodeJSONKeys(server.OpGet, b, &req)
			}
			return len(writes)
		}) / 1e3
	}
	maxKeys := 0
	for _, r := range reads {
		maxKeys = max(maxKeys, len(r.keys))
	}
	out := make([]bool, maxKeys)
	vals := make([]uint64, maxKeys)
	if !s.kv {
		f, err := server.LoadFilterFile(image)
		if err != nil {
			return rp, err
		}
		rp.kernelNsPerKey = timeRung(func() (keys int) {
			for _, r := range reads {
				core.ContainsBatch(f, r.keys, out)
				keys += len(r.keys)
			}
			return keys
		})
		e, err := server.NewEngine(f, nil, server.Config{})
		if err != nil {
			return rp, err
		}
		defer e.Close()
		rp.engineNsPerKey = timeRung(func() (keys int) {
			for _, r := range reads {
				e.ContainsBatch(r.keys, out)
				keys += len(r.keys)
			}
			return keys
		})
		rp.allocsPerRequest, rp.allocRequests = handlerAllocs(server.New(e), rec)
		return rp, nil
	}
	st, err := lsm.OpenStore(rungPath, lsm.Options{Background: true, Durability: lsm.DurabilityGroup})
	if err != nil {
		return rp, err
	}
	rp.getBatchNsPerKey = timeRung(func() (keys int) {
		for _, r := range reads {
			st.GetBatch(r.keys, vals[:len(r.keys)], out[:len(r.keys)])
			keys += len(r.keys)
		}
		return keys
	})
	e, err := server.NewEngine(bloom.NewBlocked(1024, bitsPerKey), st, server.Config{})
	if err != nil {
		st.Close()
		return rp, err
	}
	rp.engineNsPerKey = timeRung(func() (keys int) {
		for _, r := range reads {
			e.GetBatch(r.keys, vals, out)
			keys += len(r.keys)
		}
		return keys
	})
	// The store is a copy, so replaying the recorded writes is harmless.
	rp.allocsPerRequest, rp.allocRequests = handlerAllocs(server.New(e), rec)
	e.Close()
	return rp, st.Close()
}

// allocSample is how many recorded reads and how many recorded writes
// the allocation rung replays. Point reads wait out a coalescer window
// each and writes an fsync, so the sample is kept small.
const allocSample = 256

// handlerAllocs replays up to allocSample recorded reads and as many
// writes through h from one goroutine, after one warm-up pass over the
// reads that fills the server's pools, and returns heap allocations per
// request and the requests replayed. Only the handler runs, so the
// count leaves out the load generator, the tracer and net/http's
// connection serving.
func handlerAllocs(h http.Handler, rec []recorded) (float64, int) {
	var reads, writes []recorded
	for _, r := range rec {
		switch {
		case r.o.write && len(writes) < allocSample:
			writes = append(writes, r)
		case !r.o.write && len(reads) < allocSample:
			reads = append(reads, r)
		}
	}
	serve := func(reqs []*http.Request) {
		w := &discardWriter{h: http.Header{}}
		for _, r := range reqs {
			clear(w.h)
			h.ServeHTTP(w, r)
		}
	}
	serve(httpRequests(reads))
	reqs := httpRequests(append(reads, writes...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve(reqs)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(reqs)), len(reqs)
}

// httpRequests builds the recorded requests as server-side requests.
func httpRequests(rec []recorded) []*http.Request {
	out := make([]*http.Request, len(rec))
	for i, r := range rec {
		out[i] = httptest.NewRequest(http.MethodPost, r.o.path, bytes.NewReader(r.o.body))
		out[i].Header.Set("Content-Type", r.o.ctype)
	}
	return out
}

// discardWriter is a ResponseWriter that drops the reply.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// ledgerParts is one request's blocking path, priced layer by layer
// from measurements made apart from its client span: the net/http
// share from the handler and body spans, the filter and WAL spans
// recorded inside the layers, the coalescer's wait up to its window's
// probe, and the rung prices of decode and encode. What the parts leave
// of the client latency is time no layer accounts for: admission,
// waking a coalesced waiter, memtable insert and write stalls. All
// values are ns.
type ledgerParts struct {
	http, decode, wait, probe, store, wal, encode float64
}

func (p ledgerParts) sum() float64 {
	return p.http + p.decode + p.wait + p.probe + p.store + p.wal + p.encode
}

// price returns r's ledger. kv says reads go to the store. The store
// has no span on the read path, and its quiet rung does not price it:
// under the traced load a get frame spends about twice the rung's price
// in the store (lsm.getbatch_served_ns_per_key against
// lsm.getbatch_ns_per_key). A kv read's store share is therefore what
// its handler span leaves after the body, decode and encode, so kv
// reads close the ledger by construction and on kv_mixed the check
// bites on the writes.
func (rg rungPrices) price(r *request, kv bool) ledgerParts {
	c := r.costs()
	p := ledgerParts{http: float64(c.http + c.body), probe: float64(c.bloom), wal: float64(c.wal)}
	if r.client.write {
		p.decode = rg.writeDecodeUs * 1e3
		return p
	}
	keys := float64(r.client.N)
	p.decode = rg.decodeNsPerKey * keys
	p.encode = rg.encodeNsPerKey * keys
	if kv {
		p.store = max(float64(c.handler-c.body)-p.decode-p.encode, 0)
	}
	if isPoint(r) && c.toProbe > 0 {
		// Read, decoded and queued, the request waits for its window
		// to seal.
		p.wait = max(float64(c.toProbe-c.body)-p.decode, 0)
	}
	return p
}

// isPoint reports whether r is a single-key JSON membership request,
// which the coalescer answers.
func isPoint(r *request) bool {
	return !r.client.write && r.handler.Route == "/v1/contains" && r.client.N == 1
}

// maxLedgerGap is how far the priced layers may miss the traced mean
// client latency, as a share of it: ROADMAP aim 1's "layer costs must
// add up".
const maxLedgerGap = 0.1

// errLedger fails a traced run whose priced layers miss the client
// latency by more than maxLedgerGap.
var errLedger = errors.New("trace: layer costs do not add up")

// ledgerGap returns the share of the requests' total client latency
// that their ledgers leave unexplained (negative when the parts
// over-explain it), and the mean client and priced latency in ns.
func ledgerGap(reqs []*request, rg rungPrices, kv bool) (gap, clientNs, pricedNs float64) {
	for _, r := range reqs {
		clientNs += float64(r.client.dur())
		pricedNs += rg.price(r, kv).sum()
	}
	if len(reqs) == 0 {
		return 0, 0, 0
	}
	n := float64(len(reqs))
	return (clientNs - pricedNs) / clientNs, clientNs / n, pricedNs / n
}

// traceLayers joins the spans into requests and derives the span-based
// layer metrics, the ledger check and the rung prices.
func traceLayers(tr *tracer, tp *tracedRun, rg rungPrices, kv bool) (*result, error) {
	reqs, unmatched := tr.join()
	if len(reqs) == 0 || unmatched > len(reqs)/100 {
		return nil, fmt.Errorf("trace: %d requests without a handler span, %d with", unmatched, len(reqs))
	}
	gap, clientNs, pricedNs := ledgerGap(reqs, rg, kv)
	var reads, writes []*request
	for _, r := range reqs {
		if r.client.write {
			writes = append(writes, r)
		} else {
			reads = append(reads, r)
		}
	}
	readGap, readClient, readPriced := ledgerGap(reads, rg, kv)
	writeGap, writeClient, writePriced := ledgerGap(writes, rg, kv)
	if math.Abs(gap) > maxLedgerGap {
		return nil, fmt.Errorf("%w: priced layers sum to %.1f µs, traced mean client latency is %.1f µs (gap %.3f, limit %.1f; "+
			"reads %.1f of %.1f µs, writes %.1f of %.1f µs)",
			errLedger, pricedNs/1e3, clientNs/1e3, gap, maxLedgerGap, readPriced/1e3, readClient/1e3, writePriced/1e3, writeClient/1e3)
	}
	var httpNs, handlerSelfNs, bloomNs, walNs, handlerNs float64
	var parts ledgerParts
	var readKeys int
	var coalesce []float64
	var applySelf []int64
	byRoute := map[string][]float64{}
	for _, r := range reqs {
		c := r.costs()
		httpNs += float64(c.http)
		handlerSelfNs += float64(c.handlerSelf)
		bloomNs += float64(c.bloom)
		walNs += float64(c.wal)
		handlerNs += float64(c.handler)
		p := rg.price(r, kv)
		parts.wait += p.wait
		parts.store += p.store
		if kv && !r.client.write {
			readKeys += r.client.N
		}
		hd := float64(c.handler)
		byRoute[r.handler.Route] = append(byRoute[r.handler.Route], hd/1e3)
		switch {
		case r.client.write:
			applySelf = append(applySelf, c.handler-c.wal-int64(rg.writeDecodeUs*1e3))
		case isPoint(r):
			// A point request: what is left after decode, encode and
			// the window's probe is the wait for the window to seal.
			coalesce = append(coalesce, (hd-float64(c.bloom)-rg.decodeNsPerKey-rg.encodeNsPerKey)/1e3)
		}
	}
	n := float64(len(reqs))
	res := &result{correct: true}
	res.layer("trace.ledger_gap", "ratio", math.Abs(gap), len(reqs))
	res.extra("trace.client_us", "us", clientNs/1e3, len(reqs))
	res.extra("trace.priced_us", "us", pricedNs/1e3, len(reqs))
	res.extra("trace.unexplained_us", "us", (clientNs-pricedNs)/1e3, len(reqs))
	res.extra("trace.ledger_gap_reads", "ratio", readGap, len(reads))
	res.extra("trace.ledger_gap_writes", "ratio", writeGap, len(writes))
	res.extra("trace.handler_self_us", "us", handlerSelfNs/n/1e3, len(reqs))
	res.extra("trace.bloom_us", "us", bloomNs/n/1e3, len(reqs))
	res.extra("trace.wal_us", "us", walNs/n/1e3, len(reqs))
	res.extra("trace.window_wait_us", "us", parts.wait/n/1e3, len(reqs))
	res.layer("server.http_self_us", "us", httpNs/n/1e3, len(reqs))
	res.layer("server.handler_us", "us", handlerNs/n/1e3, len(reqs))
	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		res.extra("server.handler_us"+r, "us", mean(byRoute[r]), len(byRoute[r]))
	}
	res.layer("server.decode_ns_per_key", "ns", rg.decodeNsPerKey, len(tp.ph.recorded))
	res.layer("server.encode_ns_per_key", "ns", rg.encodeNsPerKey, len(tp.ph.recorded))
	res.layer("server.engine_ns_per_key", "ns", rg.engineNsPerKey, len(tp.ph.recorded))
	res.layer("server.coalesce_wait_us", "us", mean(coalesce), len(coalesce))
	res.layer("server.allocs_per_request", "count", rg.allocsPerRequest, rg.allocRequests)
	for _, name := range []string{"server.keys_per_window", "server.deadline_flush_share", "server.rejected_share",
		"lsm.device_reads_per_key", "lsm.maplet_fallbacks", "lsm.write_amp"} {
		res.layer(name, counterUnits[name], tp.counters[name], int(tp.ph.total))
	}

	var probeNs, probeKeys float64
	var fsyncs []int64
	for i := range tr.spans {
		sp := &tr.spans[i]
		switch sp.Name {
		case "bloom":
			probeNs += float64(sp.dur())
			probeKeys += float64(sp.N)
		case "wal.sync":
			fsyncs = append(fsyncs, sp.dur())
		}
	}
	res.layer("bloom.probe_ns_per_key", "ns", ratio(probeNs, probeKeys), int(probeKeys))
	res.layer("bloom.kernel_ns_per_key", "ns", rg.kernelNsPerKey, len(tp.ph.recorded))
	res.layer("bloom.probe_share", "ratio", ratio(bloomNs, handlerNs), len(reqs))

	res.layer("lsm.getbatch_ns_per_key", "ns", rg.getBatchNsPerKey, len(tp.ph.recorded))
	res.layer("lsm.getbatch_served_ns_per_key", "ns", ratio(parts.store, float64(readKeys)), readKeys)
	res.layer("lsm.apply_self_us_p50", "us", nsPercentileUs(applySelf, 50), len(applySelf))
	res.layer("lsm.apply_self_us_p99", "us", nsPercentileUs(applySelf, 99), len(applySelf))
	res.layer("lsm.runs_end", "count", float64(tp.runsEnd), 1)
	res.layer("lsm.levels_end", "count", float64(tp.levelsEnd), 1)

	res.layer("wal.fsync_us_p50", "us", nsPercentileUs(fsyncs, 50), len(fsyncs))
	res.layer("wal.fsync_us_p99", "us", nsPercentileUs(fsyncs, 99), len(fsyncs))
	acked := float64(tp.ph.allWrites)
	res.layer("wal.syncs_per_write", "ratio", ratio(float64(tp.walNow.syncs-tp.walBefore.syncs), acked), int(acked))
	res.layer("wal.bytes_per_write", "B", ratio(float64(tp.walNow.bytes-tp.walBefore.bytes), float64(tp.walNow.ops-tp.walBefore.ops)), int(acked))
	res.layer("wal.fs_bytes_per_user_byte", "ratio", ratio(float64(tp.fsBytes), acked*16), int(acked))
	return res, nil
}

// counterUnits are the units of the layer metrics read from /metrics.
var counterUnits = map[string]string{
	"server.keys_per_window":      "count",
	"server.deadline_flush_share": "ratio",
	"server.rejected_share":       "ratio",
	"lsm.device_reads_per_key":    "count",
	"lsm.maplet_fallbacks":        "count",
	"lsm.write_amp":               "ratio",
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
