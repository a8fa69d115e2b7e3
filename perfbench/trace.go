package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beyondbloom/internal/core"
	"beyondbloom/internal/fault"
)

// span is one timed interval the traced run records at a layer
// boundary. Spans live in memory until the run ends.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"` // client, handler, http.body, bloom, wal.write, wal.sync, fs.write, fs.sync, fs.syncdir
	Route  string `json:"route,omitempty"`
	Req    int64  `json:"req"`    // request id; -1 when recorded outside any one request
	Parent int    `json:"parent"` // parent span id; -1 for roots and background work
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // keys asked or probed, or bytes written

	write bool     // client spans: a put or delete
	keys  []uint64 // client: first key; bloom: window keys (first key only for frames)
}

func (s *span) dur() int64         { return s.End - s.Start }
func (s *span) interval() interval { return interval{s.Start, s.End} }
func (s *span) has(key uint64) bool {
	for _, k := range s.keys {
		if k == key {
			return true
		}
	}
	return false
}

// maxWindowKeys bounds the keys a bloom span keeps: every key of a
// coalescer window (two connections put at most two in one), and only
// the first key of a larger frame, which identifies it.
const maxWindowKeys = 16

// tracer collects spans from the benchmark's four recording points: the
// client, the handler middleware, the filter wrapper and the FS wrapper.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// client records one request as seen by the load generator.
func (t *tracer) client(id int64, o *op, sent, done time.Time) {
	t.add(span{Name: "client", Route: o.path, Req: id, Parent: -1,
		Start: int64(sent.Sub(t.epoch)), End: int64(done.Sub(t.epoch)),
		N: o.keys, write: o.write, keys: []uint64{o.key0}})
}

// middleware wraps the server's handler with a span per request,
// joined to its client span by the request id header, and a span from
// the handler's first read of the request body to its last.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			id = -1
		}
		body := &spanBody{ReadCloser: r.Body, t: t, first: -1}
		r.Body = body
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		if body.first >= 0 {
			t.add(span{Name: "http.body", Req: id, Parent: -1, Start: body.first, End: body.last})
		}
		t.add(span{Name: "handler", Route: r.URL.Path, Req: id, Parent: -1, Start: start, End: end})
	})
}

// spanBody times the handler's reads of the request body: the body
// arrives from the socket while the handler reads it.
type spanBody struct {
	io.ReadCloser
	t           *tracer
	first, last int64
}

func (b *spanBody) Read(p []byte) (int, error) {
	start := b.t.now()
	n, err := b.ReadCloser.Read(p)
	if b.first < 0 {
		b.first = start
	}
	b.last = b.t.now()
	return n, err
}

// spanFilter wraps the serving filter with a span per probe call.
type spanFilter struct {
	f core.Filter
	t *tracer
}

func (s *spanFilter) SizeBits() int { return s.f.SizeBits() }

func (s *spanFilter) Contains(key uint64) bool {
	start := s.t.now()
	found := s.f.Contains(key)
	s.t.add(span{Name: "bloom", Req: -1, Parent: -1, Start: start, End: s.t.now(), N: 1, keys: []uint64{key}})
	return found
}

func (s *spanFilter) ContainsBatch(keys []uint64, out []bool) {
	start := s.t.now()
	core.ContainsBatch(s.f, keys, out)
	end := s.t.now()
	kept := keys
	if len(kept) > maxWindowKeys {
		kept = kept[:1]
	}
	s.t.add(span{Name: "bloom", Req: -1, Parent: -1, Start: start, End: end, N: len(keys),
		keys: append([]uint64(nil), kept...)})
}

// spanFS wraps the store's filesystem with spans around writes, file
// syncs and directory syncs, and counts every byte written through it.
type spanFS struct {
	fault.FS
	t       *tracer
	written atomic.Int64
}

func (s *spanFS) Create(name string) (fault.File, error) { return s.wrap(name, s.FS.Create) }
func (s *spanFS) Append(name string) (fault.File, error) { return s.wrap(name, s.FS.Append) }

func (s *spanFS) wrap(name string, open func(string) (fault.File, error)) (fault.File, error) {
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	prefix := "fs"
	if base := filepath.Base(name); strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".bbl") {
		prefix = "wal"
	}
	return &spanFile{File: f, fs: s, prefix: prefix}, nil
}

func (s *spanFS) SyncDir(dir string) error {
	start := s.t.now()
	err := s.FS.SyncDir(dir)
	s.t.add(span{Name: "fs.syncdir", Req: -1, Parent: -1, Start: start, End: s.t.now()})
	return err
}

type spanFile struct {
	fault.File
	fs     *spanFS
	prefix string // "wal" for log segments, "fs" for run files and manifests
}

func (f *spanFile) Write(p []byte) (int, error) {
	start := f.fs.t.now()
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	f.fs.t.add(span{Name: f.prefix + ".write", Req: -1, Parent: -1, Start: start, End: f.fs.t.now(), N: n})
	return n, err
}

func (f *spanFile) Sync() error {
	start := f.fs.t.now()
	err := f.File.Sync()
	f.fs.t.add(span{Name: f.prefix + ".sync", Req: -1, Parent: -1, Start: start, End: f.fs.t.now()})
	return err
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// covered returns the length of the union of children, each clipped to
// parent.
func covered(parent interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var total int64
	cur := interval{-1, -1}
	for _, c := range cs {
		if c.start > cur.end {
			total += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// request is one client request with the spans on its blocking path.
type request struct {
	client, handler *span
	body            *span // nil when the handler read no body
	bloom, wal      []*span
}

// spanCosts are the parts of a request's latency that spans measure.
type spanCosts struct {
	http        int64 // client span minus handler span: socket and net/http
	handler     int64 // handler span
	body        int64 // reading the request body inside the handler
	handlerSelf int64 // handler span minus the body, filter and WAL spans in it
	bloom       int64 // filter probes inside the handler
	wal         int64 // log appends and fsyncs inside the handler
	toProbe     int64 // handler start to the start of its first filter probe; 0 without one
}

func (r *request) costs() spanCosts {
	h := r.handler.interval()
	var b, w []interval
	toProbe := int64(-1)
	for _, s := range r.bloom {
		b = append(b, s.interval())
		if d := s.Start - h.start; toProbe < 0 || d < toProbe {
			toProbe = d
		}
	}
	for _, s := range r.wal {
		w = append(w, s.interval())
	}
	var body []interval
	if r.body != nil {
		body = []interval{r.body.interval()}
	}
	return spanCosts{
		http:        selfTime(r.client.interval(), []interval{h}),
		handler:     r.handler.dur(),
		body:        covered(h, body),
		handlerSelf: selfTime(h, append(append(append([]interval(nil), b...), w...), body...)),
		bloom:       covered(h, b),
		wal:         covered(h, w),
		toProbe:     max(toProbe, 0),
	}
}

// join links the recorded spans into requests: each handler span and
// body span to its client span by request id; each filter span to the handler spans that
// contain it and whose request asked for one of its keys (a coalescer
// window answers every request waiting in it); each WAL span to the
// write handler that contains it (one connection writes, so at most one
// write is in flight). Spans that join no request are background work.
// It returns the requests with a handler span and the number without.
func (t *tracer) join() (reqs []*request, unmatched int) {
	byID := map[int64]*request{}
	var handlers []*request
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "client" {
			continue
		}
		r := &request{client: s}
		byID[s.Req] = r
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "handler" {
			continue
		}
		if r, ok := byID[s.Req]; ok && r.handler == nil {
			r.handler = s
			s.Parent = r.client.ID
			handlers = append(handlers, r)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if r, ok := byID[s.Req]; ok && s.Name == "http.body" && r.handler != nil && r.body == nil {
			r.body = s
			s.Parent = r.handler.ID
		}
	}
	sort.Slice(handlers, func(i, j int) bool { return handlers[i].handler.Start < handlers[j].handler.Start })
	var longest int64
	for _, r := range handlers {
		longest = max(longest, r.handler.dur())
	}
	// containing calls fn for each request whose handler span contains s.
	containing := func(s *span, fn func(r *request)) {
		i := sort.Search(len(handlers), func(i int) bool { return handlers[i].handler.Start > s.Start })
		for i--; i >= 0 && handlers[i].handler.Start >= s.Start-longest; i-- {
			if h := handlers[i].handler; h.End >= s.End {
				fn(handlers[i])
			}
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "bloom":
			containing(s, func(r *request) {
				if !r.client.write && s.has(r.client.keys[0]) {
					r.bloom = append(r.bloom, s)
					if s.Parent < 0 {
						s.Parent = r.handler.ID
					}
				}
			})
		case "wal.write", "wal.sync":
			containing(s, func(r *request) {
				if r.client.write {
					r.wal = append(r.wal, s)
					s.Parent = r.handler.ID
				}
			})
		}
	}
	for _, r := range byID {
		if r.handler == nil {
			unmatched++
			continue
		}
		reqs = append(reqs, r)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].client.Start < reqs[j].client.Start })
	return reqs, unmatched
}

// write saves every span, one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
