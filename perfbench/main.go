// Command perfbench is the repository's benchmark. It builds data with
// the real cmd/filterd binary, serves it with filterd serve, drives it
// over loopback HTTP from two keep-alive connections in closed loops,
// checks every answer, and prints the end-to-end metrics a client sees.
// With -trace 1 it instead runs the same workload traced: the server is
// hosted in-process from the constructors filterd uses, spans are
// recorded around client requests, the HTTP handler, the filter and the
// store's filesystem, and direct calls into each layer on the recorded
// requests price the layers one by one.
//
// Run it from the repository root through perfbench/run.sh, which
// builds filterd and this command first:
//
//	bash perfbench/run.sh --workload point_contains --seed 1 --seconds 10 --trace 0
//
// Workloads: point_contains, bulk_probe, kv_mixed (see workloads.go).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"beyondbloom/internal/server"
)

// runBudget bounds one run, set-up included.
const runBudget = 170 * time.Second

// maxWarmup caps the unmeasured warm-up before each measured phase,
// which is a fifth of the measured seconds.
const maxWarmup = time.Second

// generatorProcs is the load generator's GOMAXPROCS: one per connection.
const generatorProcs = 2

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	warmup   time.Duration // derived from seconds
	trace    bool
	root     string
	filterd  string
	outDir   string
	shift    uint
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var seconds, trace int
	fl.StringVar(&o.workload, "workload", "", "point_contains, bulk_probe or kv_mixed")
	fl.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fl.IntVar(&seconds, "seconds", 10, "measured seconds per phase")
	fl.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	fl.StringVar(&o.root, "root", ".", "repository root")
	fl.StringVar(&o.filterd, "filterd", ".bench_build/filterd", "filterd binary")
	fl.UintVar(&o.shift, "shift", 0, "divide every workload's key count by 2^shift (smoke runs)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.seconds, o.trace = time.Duration(seconds)*time.Second, trace == 1
	o.warmup = min(maxWarmup, o.seconds/5)
	s, err := specFor(o.workload, o.shift)
	if err != nil || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad flags: workload %q seconds %d trace %d: %v\n", o.workload, seconds, trace, err)
		return 2
	}
	o.outDir = filepath.Join(o.root, ".bench_build", "out")
	runtime.GOMAXPROCS(generatorProcs)
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	res, env, err := measure(ctx, o, s)
	var wrong *wrongAnswer
	if errors.As(err, &wrong) {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.name, err)
		line, _ := json.Marshal(map[string]any{"correct": false, "attempted": wrong.attempted, "failed": wrong.failed, "metrics": map[string]any{}})
		fmt.Fprintln(stdout, string(line))
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.name, err)
		return 1
	}
	res.print(stdout, env)
	if err := res.save(filepath.Join(o.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", s.name, o.seed, trace)), env); err != nil {
		fmt.Fprintf(stderr, "perfbench: saving result: %v\n", err)
		return 1
	}
	metrics := map[string]any{}
	for _, m := range res.gated(o.trace) {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure prepares the workload's inputs, then runs it untraced or
// traced in a scratch directory under the build directory.
func measure(ctx context.Context, o options, s spec) (*result, environment, error) {
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, environment{}, err
	}
	work, err := os.MkdirTemp(build, "work-"+s.name+"-")
	if err != nil {
		return nil, environment{}, err
	}
	defer os.RemoveAll(work)
	env := collectEnv(o.root, work, o.seed, s.name, o.trace)
	if _, err := os.Stat(o.filterd); err != nil {
		return nil, env, fmt.Errorf("filterd binary: %w", err)
	}
	in := prepare(s, o.seed)
	// Sampling bulk_probe's built keys materialises all 2^25 of them;
	// hand that memory back before filterd runs beside this process.
	debug.FreeOSMemory()
	if o.trace {
		res, err := runTraced(ctx, o, s, in, work)
		return res, env, err
	}
	res, err := runUntraced(ctx, o, s, in, work)
	return res, env, err
}

// wrongAnswer is an answer the benchmark's checks reject. It fails the
// run and is never folded into a metric.
type wrongAnswer struct {
	err               error
	attempted, failed int64
}

func (w *wrongAnswer) Error() string { return w.err.Error() }
func (w *wrongAnswer) Unwrap() error { return w.err }

// runUntraced sets the workload up s.setups times (set-up time is their
// median), then drives the last filterd serve for the measured phase.
func runUntraced(ctx context.Context, o options, s spec, in *inputs, work string) (*result, error) {
	var setups, builds, opens []float64
	var p *serveProc
	var served string
	defer func() {
		if p != nil {
			p.kill()
		}
	}()
	for i := 0; i < s.setups; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		args, path := s.buildArgs(dir, o.seed)
		build, err := runBuild(ctx, o.filterd, args, filepath.Join(dir, "build.log"))
		if err != nil {
			return nil, err
		}
		sp, open, err := startServe(ctx, o.filterd, s.serveArgs(path), dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		builds, opens = append(builds, build.Seconds()), append(opens, open.Seconds())
		if i == s.setups-1 {
			p, served = sp, path
			break
		}
		if err := sp.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	before, err := scrape(p.addr)
	if err != nil {
		return nil, err
	}
	loops, st := in.loops()
	stop := make(chan struct{})
	space := make(chan []float64, 1)
	go func() {
		if s.kv {
			space <- sampleSpace(served, st.orc, stop)
			return
		}
		space <- nil
	}()
	ph, err := runPhase(ctx, phaseConfig{addr: p.addr, warmup: o.warmup, measure: o.seconds, pid: p.cmd.Process.Pid}, loops)
	close(stop)
	spaceSamples := <-space
	if err != nil {
		return nil, err
	}
	after, err := scrape(p.addr)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(p.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	sp := p
	p = nil
	if err := sp.stop(); err != nil {
		return nil, err
	}

	res := &result{correct: true, attempted: ph.attempted, failed: ph.failed}
	p50, p99, n := latency(ph.reads)
	res.e2e("setup_s", "s", median(setups), len(setups))
	res.extra("setup_build_s", "s", median(builds), len(builds))
	res.extra("setup_open_s", "s", median(opens), len(opens))
	res.extra("read_keys_per_s", "1/s", windowedRate(ph.reads), len(ph.reads))
	res.e2e("read_p50_us", "us", p50, n)
	res.extra("read_p90_us", "us", windowedPercentile(ph.reads, 90), n)
	res.extra("read_p99_us", "us", p99, n)
	res.extra("server_cpu_ns_per_key", "ns", ph.serverCPU*1e9/float64(ph.readKeys+int64(len(ph.writes))), n)
	res.extra("server_rss_mb", "MB", rss, 1)
	res.extra("failed_ratio", "ratio", float64(ph.failed)/float64(ph.attempted), int(ph.attempted))
	if s.kv {
		final, err := spaceRatio(served, st.orc)
		if err != nil {
			return nil, err
		}
		res.e2e("disk_bytes_per_user_byte", "ratio", median(append(spaceSamples, final)), len(spaceSamples)+1)
		res.extra("disk_bytes_per_user_byte_shutdown", "ratio", final, 1)
		wp50, wp99, wn := latency(ph.writes)
		res.extra("write_ops_per_s", "1/s", ph.writesPerS(), wn)
		res.extra("write_p50_us", "us", wp50, wn)
		res.extra("write_p99_us", "us", wp99, wn)
	} else {
		info, err := os.Stat(served)
		if err != nil {
			return nil, err
		}
		res.e2e("disk_bytes_per_user_byte", "ratio", float64(info.Size())/(float64(s.n)*8), s.n)
		if err := checkFPR(res, st.tally, served, s.n, ph.attempted, ph.failed); err != nil {
			return nil, err
		}
	}
	for name, v := range counterLayers(before, after, ph) {
		res.extra(name, counterUnits[name], v, int(ph.total))
	}
	res.sortLayers()
	return res, nil
}

// sampleSpace samples the store's bytes per live user byte once per
// window until stop closes. Compaction makes the store's size a saw
// tooth; the median of the samples does not depend on where in a
// compaction cycle the run happens to end.
func sampleSpace(dir string, orc *oracle, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(window)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			if r, err := spaceRatio(dir, orc); err == nil {
				out = append(out, r)
			}
		}
	}
}

// spaceRatio is the store directory's bytes over its live user data:
// live keys times 16 bytes of key and value.
func spaceRatio(dir string, orc *oracle) (float64, error) {
	b, err := dirBytes(dir)
	return float64(b) / (float64(orc.live()) * 16), err
}

// checkFPR reports the false-positive rate on never-built keys next to
// the blocked Bloom filter's analytic rate, and fails the run when the
// measured rate breaks the accuracy guard.
func checkFPR(res *result, t *filterTally, path string, n int, attempted, failed int64) error {
	f, err := server.LoadFilterFile(path)
	if err != nil {
		return err
	}
	bf, ok := f.(interface{ K() uint })
	if !ok {
		return fmt.Errorf("%s holds a %T, not a blocked Bloom filter", path, f)
	}
	analytic := blockedBloomFPR(n, f.SizeBits(), bf.K())
	neg := t.negatives.Load()
	res.extra("false_positive_rate", "ratio", t.rate(), int(neg))
	res.extra("false_positive_rate_analytic", "ratio", analytic, 0)
	if !fprWithinBound(t.falsePositives.Load(), neg, analytic) {
		return &wrongAnswer{err: fmt.Errorf("false-positive rate %.5f on %d never-built keys is beyond the guard for the analytic %.5f",
			t.rate(), neg, analytic), attempted: attempted, failed: failed}
	}
	return nil
}

// latency returns the median over the measured phase's windows of the
// median and 99th-percentile latency (µs), and the sample count.
// An empty input yields zeros.
func latency(s []sample) (p50, p99 float64, n int) {
	if len(s) == 0 {
		return 0, 0, 0
	}
	return windowedPercentile(s, 50), windowedPercentile(s, 99), len(s)
}

// named is one reported number.
type named struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// result holds a run's metrics: the end-to-end ones (gated with
// -trace 0), the per-layer ones (gated with -trace 1), and extra
// numbers that are printed and saved but not gated.
type result struct {
	correct           bool
	attempted, failed int64
	endToEnd, layers  []named
	extras            []named
}

func (r *result) e2e(name, unit string, v float64, n int) {
	r.endToEnd = append(r.endToEnd, named{name, unit, v, n})
}
func (r *result) layer(name, unit string, v float64, n int) {
	r.layers = append(r.layers, named{name, unit, v, n})
}
func (r *result) extra(name, unit string, v float64, n int) {
	r.extras = append(r.extras, named{name, unit, v, n})
}

func (r *result) sortLayers() {
	for _, xs := range [][]named{r.layers, r.extras} {
		sort.Slice(xs, func(i, j int) bool { return xs[i].Name < xs[j].Name })
	}
}

// gated returns the metrics the final JSON line carries.
func (r *result) gated(trace bool) []named {
	if trace {
		return r.layers
	}
	return r.endToEnd
}

// print writes the human-readable report: environment, then every
// metric with its unit and sample count.
func (r *result) print(w io.Writer, env environment) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v commit=%s source=%s go=%s gomaxprocs_generator=%d gomaxprocs_filterd=%d nproc=%d cpu=%q store_fs=%s\n",
		env.Workload, env.Seed, env.Trace, env.Commit, env.SourceSHA256, env.GoVersion, env.GOMAXPROCSGen,
		env.GOMAXPROCSFilterd, env.NProc, env.CPU, env.StoreFS)
	for _, group := range []struct {
		tag string
		ms  []named
	}{{"end_to_end", r.endToEnd}, {"per_layer", r.layers}, {"extra", r.extras}} {
		for _, m := range group.ms {
			fmt.Fprintf(w, "%-10s %-36s %14.6g %-6s n=%d\n", group.tag, m.Name, m.Value, m.Unit, m.Samples)
		}
	}
	fmt.Fprintf(w, "requests attempted=%d failed=%d\n", r.attempted, r.failed)
}

// save writes the full result with its environment as JSON.
func (r *result) save(path string, env environment) error {
	b, err := json.MarshalIndent(map[string]any{
		"environment": env, "correct": r.correct, "attempted": r.attempted, "failed": r.failed,
		"end_to_end": r.endToEnd, "per_layer": r.layers, "extra": r.extras,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
