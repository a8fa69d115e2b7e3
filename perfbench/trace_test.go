package main

import "testing"

func TestCoveredAndSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		covered  int64
	}{
		{"none", nil, 0},
		{"one inside", []interval{{120, 150}}, 30},
		{"two disjoint", []interval{{110, 120}, {150, 170}}, 30},
		{"overlapping counted once", []interval{{110, 150}, {140, 160}}, 50},
		{"nested counted once", []interval{{110, 190}, {120, 130}}, 80},
		{"adjacent", []interval{{110, 120}, {120, 130}}, 20},
		{"clipped to the parent", []interval{{50, 120}, {190, 250}}, 30},
		{"outside the parent", []interval{{0, 50}, {300, 400}}, 0},
		{"covers the parent", []interval{{0, 400}}, 100},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 30},
	} {
		if got := covered(p, tc.children); got != tc.covered {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.covered)
		}
		if got := selfTime(p, tc.children); got != 100-tc.covered {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, 100-tc.covered)
		}
	}
}

// tracerWith returns a tracer holding spans, ids assigned in order.
func tracerWith(spans ...span) *tracer {
	t := newTracer()
	for _, s := range spans {
		if s.Parent == 0 {
			s.Parent = -1
		}
		t.add(s)
	}
	return t
}

func TestJoinAndLedger(t *testing.T) {
	tr := tracerWith(
		// Request 1: a point read whose window also answers request 2.
		span{Name: "client", Req: 1, Start: 0, End: 1000, N: 1, keys: []uint64{11}},
		span{Name: "handler", Req: 1, Route: "/v1/contains", Start: 100, End: 900},
		// Request 2 overlaps request 1 on the other connection.
		span{Name: "client", Req: 2, Start: 50, End: 1100, N: 1, keys: []uint64{22}},
		span{Name: "handler", Req: 2, Route: "/v1/contains", Start: 150, End: 1000},
		span{Name: "bloom", Req: -1, Start: 700, End: 800, N: 2, keys: []uint64{11, 22}},
		// A probe inside both handlers for neither request's key.
		span{Name: "bloom", Req: -1, Start: 300, End: 310, N: 1, keys: []uint64{33}},
		// Request 3: a write with a log append and fsync, and a run-file
		// write from background flushing at the same time.
		span{Name: "client", Req: 3, Start: 2000, End: 3000, write: true, keys: []uint64{44}},
		span{Name: "handler", Req: 3, Route: "/v1/put", Start: 2100, End: 2900},
		span{Name: "wal.write", Req: -1, Start: 2200, End: 2300},
		span{Name: "wal.sync", Req: -1, Start: 2300, End: 2700},
		span{Name: "fs.write", Req: -1, Start: 2400, End: 2600},
		// Request 4 never reached the handler middleware.
		span{Name: "client", Req: 4, Start: 4000, End: 4100, keys: []uint64{55}},
		// The handlers of requests 1 and 3 read their bodies.
		span{Name: "http.body", Req: 1, Start: 110, End: 130},
		span{Name: "http.body", Req: 3, Start: 2110, End: 2150},
	)
	reqs, unmatched := tr.join()
	if len(reqs) != 3 || unmatched != 1 {
		t.Fatalf("join: %d requests, %d unmatched; want 3, 1", len(reqs), unmatched)
	}
	for _, r := range reqs {
		if r.handler.Parent != r.client.ID {
			t.Errorf("request %d: handler parent %d, want client %d", r.client.Req, r.handler.Parent, r.client.ID)
		}
	}
	for i, w := range []spanCosts{
		{http: 200, handler: 800, body: 20, handlerSelf: 680, bloom: 100, toProbe: 600},
		{http: 200, handler: 850, handlerSelf: 750, bloom: 100, toProbe: 550},
		{http: 200, handler: 800, body: 40, handlerSelf: 260, wal: 500},
	} {
		r := reqs[i]
		if got := r.costs(); got != w {
			t.Errorf("request %d span costs = %+v, want %+v", r.client.Req, got, w)
		}
	}
	if fs := tr.spans[10]; fs.Parent != -1 {
		t.Errorf("background run-file write joined span %d", fs.Parent)
	}
	if stray := tr.spans[5]; stray.Parent != -1 {
		t.Errorf("probe for another key joined span %d", stray.Parent)
	}

	// The ledger prices each request from its spans and the rungs. The
	// point reads leave 50 and 150 ns unexplained (waking the waiter
	// after the probe), the write 160 ns (handler time outside the body
	// and WAL spans and the decode rung).
	rg := rungPrices{decodeNsPerKey: 50, encodeNsPerKey: 50, writeDecodeUs: 0.1}
	for i, w := range []ledgerParts{
		{http: 220, decode: 50, wait: 530, probe: 100, encode: 50},
		{http: 200, decode: 50, wait: 500, probe: 100, encode: 50},
		{http: 240, decode: 100, wal: 500},
	} {
		if got := rg.price(reqs[i], false); got != w {
			t.Errorf("request %d ledger = %+v, want %+v", reqs[i].client.Req, got, w)
		}
	}
	gap, client, priced := ledgerGap(reqs, rg, false)
	if client != 3050.0/3 || priced != 2690.0/3 || gap != 360.0/3050 {
		t.Errorf("ledgerGap = %v, %v, %v; want %v, %v, %v", gap, client, priced, 360.0/3050, 3050.0/3, 2690.0/3)
	}
	if body := tr.spans[12]; body.Parent != reqs[0].handler.ID {
		t.Errorf("body span parent %d, want handler %d", body.Parent, reqs[0].handler.ID)
	}
}

// TestLedgerCatchesUnpricedTime prices one binary frame whose layers
// account for all of its latency, then the same frame with handler
// time no layer accounts for, which the ledger check must reject.
func TestLedgerCatchesUnpricedTime(t *testing.T) {
	rg := rungPrices{decodeNsPerKey: 25, encodeNsPerKey: 25}
	frame := func(clientEnd, handlerEnd int64) []*request {
		tr := tracerWith(
			span{Name: "client", Req: 1, Route: "/v1/probe", Start: 0, End: clientEnd, N: 2, keys: []uint64{7}},
			span{Name: "handler", Req: 1, Route: "/v1/probe", Start: 100, End: handlerEnd},
			span{Name: "bloom", Req: -1, Start: 150, End: 900, N: 2, keys: []uint64{7}},
		)
		reqs, _ := tr.join()
		return reqs
	}
	if gap, _, _ := ledgerGap(frame(1000, 950), rg, false); gap != 0 {
		t.Errorf("fully priced frame: gap %v, want 0", gap)
	}
	gap, _, _ := ledgerGap(frame(1300, 1250), rg, false)
	if gap != 300.0/1300 || gap <= maxLedgerGap {
		t.Errorf("frame with 300 ns unpriced: gap %v, want %v (over %v)", gap, 300.0/1300, maxLedgerGap)
	}
	// A kv frame has no filter span; the store gets what the handler
	// span leaves after decode and encode.
	kv := frame(1000, 950)
	kv[0].bloom = nil
	if got, want := rg.price(kv[0], true), (ledgerParts{http: 150, decode: 50, store: 750, encode: 50}); got != want {
		t.Errorf("kv frame ledger = %+v, want %+v", got, want)
	}
}
