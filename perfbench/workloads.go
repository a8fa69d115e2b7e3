package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"beyondbloom/internal/server"
	"beyondbloom/internal/workload"
)

// spec is one workload: what filterd builds and serves, and how the two
// connections read and write it.
type spec struct {
	name   string
	n      int  // keys filterd build writes
	kv     bool // serve a durable KV store (else a read-only .bbf filter)
	frame  int  // keys per binary read frame; 0 sends single-key JSON
	setups int  // set-ups per untraced run; setup_s is their median
}

// Key counts at full size. point_contains' 2^22-key filter (6 MiB) is
// larger than a per-core L2 and fits an L3; bulk_probe's 2^25-key
// filter (48 MiB) misses the cache on most probes; kv_mixed preloads
// 2^16 keys, four levels at the default memtable of 1024 and T=4.
//
// Set-ups per run: a point_contains set-up takes under a second, so its
// runs take the median of nine. A bulk_probe set-up takes 5-12 s and a
// kv_mixed one 25-100 s, nearly all of it the maplet build, whose time
// also depends on the seed's keys (one seed builds in twice the time of
// another); one set-up is all their runs have room for. Three bulk_probe
// set-ups did not narrow its spread, which the host's drift dominates.
var specs = []spec{
	{name: "point_contains", n: 1 << 22, frame: 0, setups: 9},
	{name: "bulk_probe", n: 1 << 25, frame: server.MaxWireBatch, setups: 1},
	{name: "kv_mixed", n: 1 << 16, kv: true, frame: 64, setups: 1},
}

// specFor returns the named workload with its key count divided by
// 2^shift (the smoke test's small sizes).
func specFor(name string, shift uint) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			s.n >>= shift
			if s.n < 1024 {
				s.n = 1024
			}
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (want point_contains, bulk_probe or kv_mixed)", name)
}

// buildArgs returns the filterd build arguments that write the
// workload's data under dir, and the path filterd serve then loads.
func (s spec) buildArgs(dir string, seed uint64) (args []string, served string) {
	n := strconv.Itoa(s.n)
	sd := strconv.FormatUint(seed, 10)
	if s.kv {
		served = filepath.Join(dir, "kv")
		return []string{"build", "-store", served, "-policy", "maplet", "-n", n, "-seed", sd}, served
	}
	served = filepath.Join(dir, s.name+".bbf")
	return []string{"build", "-o", served, "-n", n, "-bits", strconv.Itoa(bitsPerKey), "-seed", sd}, served
}

// bitsPerKey is the filter budget both filter workloads build with.
const bitsPerKey = 12

// serveArgs returns the filterd serve arguments for the built data.
func (s spec) serveArgs(served string) []string {
	if s.kv {
		return []string{"-store", served, "-durability", "group"}
	}
	return []string{"-filter", served}
}

// Seeded streams derived from the workload seed. Every one is a pure
// function of the seed, so the same seed sends the same requests.
const (
	filterPoolPoint = 1 << 16 // single-key requests in point_contains' pool
	filterPoolBulk  = 128     // frames in bulk_probe's pool
	kvFreshKeys     = 1 << 17 // fresh keys the writer may add
	kvAbsentKeys    = 1 << 12 // never-written keys readers ask for
	kvZipfS         = 1.1     // Zipf skew of reads, overwrites and deletes
	zipfStream      = 1 << 20 // Zipf samples, cycled
)

// inputs are the generated requests of one workload and seed, made
// before any timing starts.
type inputs struct {
	spec spec
	seed uint64

	pool []*filterReq // filter workloads: requests, cycled

	preload []uint64 // kv: keys filterd build wrote (value = key)
	fresh   []uint64 // kv: keys only the writer adds
	absent  []uint64 // kv: keys never written
	zipfR   []int    // kv: reader ranks over written keys
	zipfW   []int    // kv: writer ranks over written keys
}

// filterReq is one membership request and which of its keys were built.
type filterReq struct {
	op    op
	keys  []uint64
	built []bool
}

func prepare(s spec, seed uint64) *inputs {
	in := &inputs{spec: s, seed: seed}
	rng := rand.New(rand.NewSource(int64(seed)))
	if s.kv {
		in.preload = workload.Keys(s.n, seed)
		in.fresh = workload.DisjointKeys(kvFreshKeys, seed)
		in.absent = workload.DisjointKeys(kvAbsentKeys, seed+1)
		universe := s.n + kvFreshKeys
		in.zipfR = workload.Zipf(zipfStream, universe, kvZipfS, int64(seed))
		in.zipfW = workload.Zipf(zipfStream/4, universe, kvZipfS, int64(seed)+1)
		return in
	}
	built := workload.Keys(s.n, seed)
	perReq, reqs := 1, filterPoolPoint
	if s.frame > 0 {
		perReq, reqs = s.frame, filterPoolBulk
	}
	never := workload.DisjointKeys(perReq*reqs/2, seed)
	for r := 0; r < reqs; r++ {
		fr := &filterReq{keys: make([]uint64, perReq), built: make([]bool, perReq)}
		for i := range fr.keys {
			// Even slots of the whole stream are built keys, odd ones
			// never built; the shuffle below mixes them within a frame.
			if (r*perReq+i)%2 == 0 {
				fr.keys[i], fr.built[i] = built[rng.Intn(len(built))], true
			} else {
				fr.keys[i] = never[(r*perReq+i)/2]
			}
		}
		rng.Shuffle(perReq, func(i, j int) {
			fr.keys[i], fr.keys[j] = fr.keys[j], fr.keys[i]
			fr.built[i], fr.built[j] = fr.built[j], fr.built[i]
		})
		if s.frame > 0 {
			fr.op = op{path: "/v1/probe", ctype: server.BinaryContentType,
				body: server.AppendBinaryRequest(nil, server.OpContains, fr.keys)}
		} else {
			fr.op = op{path: "/v1/contains", ctype: "application/json",
				body: fmt.Appendf(nil, `{"key": %d}`, fr.keys[0])}
		}
		fr.op.keys, fr.op.key0 = perReq, fr.keys[0]
		in.pool = append(in.pool, fr)
	}
	return in
}

// phaseState is what a phase's loops share and leave behind for the
// metrics: the membership tally or the KV oracle.
type phaseState struct {
	tally *filterTally
	orc   *oracle
}

// loops returns fresh closed loops for one phase. Filter workloads run
// the same loop on both connections, half a pool apart; kv_mixed runs a
// reader on connection A and a writer on connection B over one oracle.
func (in *inputs) loops() ([2]loop, *phaseState) {
	st := &phaseState{}
	if in.spec.kv {
		st.orc = newOracle(in.preload)
		return [2]loop{
			&kvReader{in: in, orc: st.orc, rng: rand.New(rand.NewSource(int64(in.seed) + 2))},
			&kvWriter{in: in, orc: st.orc, rng: rand.New(rand.NewSource(int64(in.seed) + 3))},
		}, st
	}
	st.tally = &filterTally{}
	return [2]loop{
		&filterLoop{pool: in.pool, t: st.tally, json: in.spec.frame == 0},
		&filterLoop{pool: in.pool, t: st.tally, json: in.spec.frame == 0, i: len(in.pool) / 2},
	}, st
}

// filterTally counts never-built keys answered and how many of them the
// filter reported present.
type filterTally struct {
	negatives, falsePositives atomic.Int64
}

func (t *filterTally) rate() float64 {
	return ratio(float64(t.falsePositives.Load()), float64(t.negatives.Load()))
}

var (
	jsonFound  = []byte("{\"found\":true}\n")
	jsonAbsent = []byte("{\"found\":false}\n")
	jsonOK     = []byte("{\"ok\":true}\n")
)

// filterLoop sends membership requests from the pool in order.
type filterLoop struct {
	pool  []*filterReq
	i     int
	cur   *filterReq
	t     *filterTally
	json  bool
	resp  server.Response
	found []bool
}

func (l *filterLoop) next() *op {
	l.cur = l.pool[l.i]
	l.i = (l.i + 1) % len(l.pool)
	return &l.cur.op
}

// check fails the run on a false negative or a malformed reply and
// tallies false positives on never-built keys.
func (l *filterLoop) check(o *op, status int, body []byte) error {
	if status != 200 {
		return nil
	}
	r := l.cur
	if l.json {
		switch {
		case bytes.Equal(body, jsonFound):
			l.found = append(l.found[:0], true)
		case bytes.Equal(body, jsonAbsent):
			l.found = append(l.found[:0], false)
		default:
			return fmt.Errorf("malformed contains reply %q", body)
		}
	} else {
		if err := server.DecodeBinaryResponse(body, &l.resp); err != nil {
			return fmt.Errorf("malformed probe reply: %w", err)
		}
		if l.resp.Op != server.OpContains || len(l.resp.Found) != len(r.keys) {
			return fmt.Errorf("probe reply op %d with %d answers for %d keys", l.resp.Op, len(l.resp.Found), len(r.keys))
		}
		l.found = l.resp.Found
	}
	for i, k := range r.keys {
		if r.built[i] {
			if !l.found[i] {
				return fmt.Errorf("false negative: built key %d reported absent", k)
			}
			continue
		}
		l.t.negatives.Add(1)
		if l.found[i] {
			l.t.falsePositives.Add(1)
		}
	}
	return nil
}

// blockedBloomFPR is the analytic false-positive rate of a blocked Bloom
// filter with 512-bit blocks and k probe bits per key, holding n keys in
// sizeBits bits: block loads are Poisson with mean n*512/sizeBits, and
// a block holding j keys answers a stranger "present" with probability
// (1-(1-1/512)^(k*j))^k.
func blockedBloomFPR(n, sizeBits int, k uint) float64 {
	lambda := float64(n) * 512 / float64(sizeBits)
	var fpr float64
	for j := 0; j < int(lambda*4)+64; j++ {
		lp := float64(j)*math.Log(lambda) - lambda
		lg, _ := math.Lgamma(float64(j + 1))
		p := math.Exp(lp - lg)
		fpr += p * math.Pow(1-math.Pow(1-1.0/512, float64(k)*float64(j)), float64(k))
	}
	return fpr
}

// fprWithinBound reports whether fp false positives among neg
// never-built keys stay within the accuracy guard: 1.5 times the
// analytic count plus six binomial standard deviations. A filter that
// buys speed by answering "present" more often fails it; chance does
// not.
func fprWithinBound(fp, neg int64, analytic float64) bool {
	want := analytic * float64(neg)
	return float64(fp) <= 1.5*want+6*math.Sqrt(want)+5
}

// kvReader sends binary get frames: Zipf-ranked keys written so far
// plus one in ten never-written keys.
type kvReader struct {
	in   *inputs
	orc  *oracle
	rng  *rand.Rand
	zi   int
	ai   int
	keys []uint64
	sent uint64
	resp server.Response
}

func (r *kvReader) next() *op {
	keys := make([]uint64, 0, r.in.spec.frame)
	r.orc.mu.Lock()
	for len(keys) < r.in.spec.frame {
		if r.rng.Intn(10) == 0 {
			keys = append(keys, r.in.absent[r.ai%len(r.in.absent)])
			r.ai++
			continue
		}
		rank := r.in.zipfR[r.zi%len(r.in.zipfR)]
		r.zi++
		if rank < len(r.orc.written) {
			keys = append(keys, r.orc.written[rank])
		}
	}
	r.orc.mu.Unlock()
	r.keys = keys
	r.sent = r.orc.stamp()
	return &op{path: "/v1/probe", ctype: server.BinaryContentType,
		body: server.AppendBinaryRequest(nil, server.OpGet, keys), keys: len(keys), key0: keys[0]}
}

func (r *kvReader) check(o *op, status int, body []byte) error {
	recv := r.orc.stamp()
	if status != 200 {
		return nil
	}
	if err := server.DecodeBinaryResponse(body, &r.resp); err != nil {
		return fmt.Errorf("malformed get reply: %w", err)
	}
	if r.resp.Op != server.OpGet || len(r.resp.Found) != len(r.keys) {
		return fmt.Errorf("get reply op %d with %d answers for %d keys", r.resp.Op, len(r.resp.Found), len(r.keys))
	}
	for i, k := range r.keys {
		if err := r.orc.check(k, r.resp.Found[i], r.resp.Values[i], r.sent, recv); err != nil {
			return err
		}
	}
	return nil
}

// kvWriteRate caps the writer's rate. fsync speed on a shared host
// swings several-fold from one minute to the next, and with it an
// unpaced writer's rate and the flush and compaction work that the
// reads compete with. The writer stays a closed loop: it waits for each
// reply, and before a write that would run ahead of this rate it waits
// for the write's slot, outside the timed request.
const kvWriteRate = 300

// kvWriter sends single-key writes: 45% overwrites of written keys
// (Zipf), 45% puts of fresh keys, 10% deletes of written keys (Zipf).
type kvWriter struct {
	in    *inputs
	orc   *oracle
	rng   *rand.Rand
	zi    int
	fi    int
	key   uint64
	idx   int
	fresh bool
	start time.Time // when the first write was sent
	sent  int       // writes sent
}

func (w *kvWriter) next() *op {
	if w.sent == 0 {
		w.start = time.Now()
	} else if wait := time.Until(w.start.Add(time.Duration(w.sent) * time.Second / kvWriteRate)); wait > 0 {
		time.Sleep(wait)
	}
	w.sent++
	p := w.rng.Intn(100)
	val := w.rng.Uint64()
	w.orc.mu.Lock()
	w.fresh = p >= 45 && p < 90
	if w.fresh {
		w.key = w.in.fresh[w.fi%len(w.in.fresh)]
		w.fi++
	} else {
		for {
			rank := w.in.zipfW[w.zi%len(w.in.zipfW)]
			w.zi++
			if rank < len(w.orc.written) {
				w.key = w.orc.written[rank]
				break
			}
		}
	}
	del := p >= 90
	w.idx = w.orc.beginLocked(w.key, val, del)
	w.orc.mu.Unlock()
	if del {
		return &op{write: true, path: "/v1/delete", ctype: "application/json",
			body: fmt.Appendf(nil, `{"key": %d}`, w.key)}
	}
	return &op{write: true, path: "/v1/put", ctype: "application/json",
		body: fmt.Appendf(nil, `{"key": %d, "value": %d}`, w.key, val)}
}

func (w *kvWriter) check(o *op, status int, body []byte) error {
	ok := status == 200
	if ok && !bytes.Equal(body, jsonOK) {
		return fmt.Errorf("malformed write reply %q", body)
	}
	w.orc.ack(w.key, w.idx, ok, ok && w.fresh)
	return nil
}
