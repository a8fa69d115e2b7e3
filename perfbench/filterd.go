package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// filterdGOMAXPROCS is the GOMAXPROCS the filterd process runs with.
const filterdGOMAXPROCS = 2

// runBuild runs filterd build with args and returns its wall time.
func runBuild(ctx context.Context, bin string, args []string, logPath string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(filterdGOMAXPROCS))
	out, err := cmd.CombinedOutput()
	d := time.Since(start)
	if werr := os.WriteFile(logPath, out, 0o644); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return d, fmt.Errorf("filterd %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(out))
	}
	return d, nil
}

// serveProc is a running filterd serve process.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan error
}

// startServe starts filterd serve on a loopback port and returns once
// /healthz answers 200, with the time that took.
func startServe(ctx context.Context, bin string, args []string, dir string) (*serveProc, time.Duration, error) {
	start := time.Now()
	portfile := filepath.Join(dir, "port")
	os.Remove(portfile)
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, 0, err
	}
	all := append([]string{"serve", "-addr", "127.0.0.1:0", "-portfile", portfile}, args...)
	cmd := exec.Command(bin, all...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(filterdGOMAXPROCS))
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself die, the kernel kills filterd too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &serveProc{cmd: cmd, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	if err := s.awaitHealthy(ctx, portfile); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

func (s *serveProc) awaitHealthy(ctx context.Context, portfile string) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("filterd serve exited before becoming healthy: %v (see %s)", err, s.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if s.addr == "" {
			if b, err := os.ReadFile(portfile); err == nil && len(b) > 0 {
				s.addr = string(b)
			}
		}
		if s.addr != "" {
			if resp, err := hc.Get("http://" + s.addr + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and waits for a clean exit.
func (s *serveProc) stop() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("filterd serve exited uncleanly: %v (see %s)", err, s.log.Name())
		}
		return nil
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("filterd serve did not exit within 30s of SIGTERM")
	}
}

// kill stops the process without waiting for a clean shutdown.
func (s *serveProc) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.log.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds returns the user plus system CPU time of process pid, all
// threads, from /proc/<pid>/stat; 0 if it cannot be read.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// clockTicks is the kernel's USER_HZ, the unit of /proc CPU times.
const clockTicks = 100

// promSnapshot is one scrape of /metrics: series (name plus labels) to
// value.
type promSnapshot map[string]float64

func scrape(addr string) (promSnapshot, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm parses Prometheus text exposition lines "series value".
func parseProm(r io.Reader) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// counterLayers derives the layer metrics filterd already counts from
// two /metrics scrapes around a phase: coalescer windows, admission
// refusals, device reads and writes, and maplet fallbacks.
func counterLayers(before, after promSnapshot, res *phaseResult) map[string]float64 {
	d := func(series string) float64 { return after[series] - before[series] }
	windows := d(`filterd_coalesce_windows_total{role="membership"}`)
	return map[string]float64{
		"server.keys_per_window":      ratio(d(`filterd_coalesce_keys_total{role="membership"}`), windows),
		"server.deadline_flush_share": ratio(d(`filterd_coalesce_deadline_flushes_total{role="membership"}`), windows),
		"server.rejected_share":       ratio(d(`filterd_errors_total{kind="overloaded"}`), float64(res.total)),
		"lsm.device_reads_per_key":    ratio(d(`filterd_store_device_reads_total`), float64(res.allReadKeys)),
		"lsm.maplet_fallbacks":        d(`filterd_store_maplet_fallbacks_total`),
		"lsm.write_amp":               ratio(d(`filterd_store_device_writes_total`)*entriesPerBlock, float64(res.allWrites)),
	}
}

// entriesPerBlock is the LSM's simulated block size in entries.
const entriesPerBlock = 128

// dirBytes sums the sizes of the regular files under dir. Files removed
// while it walks (a store retiring runs) are skipped.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if p != dir && errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// environment is recorded with every result.
type environment struct {
	Commit            string `json:"commit"`
	SourceSHA256      string `json:"source_sha256"`
	GoVersion         string `json:"go_version"`
	GOMAXPROCSGen     int    `json:"gomaxprocs_generator"`
	GOMAXPROCSFilterd int    `json:"gomaxprocs_filterd"`
	NProc             int    `json:"nproc"`
	CPU               string `json:"cpu"`
	StoreFS           string `json:"store_fs"`
	Seed              uint64 `json:"seed"`
	Workload          string `json:"workload"`
	Trace             bool   `json:"trace"`
}

func collectEnv(root, workDir string, seed uint64, name string, trace bool) environment {
	return environment{
		Commit:            gitCommit(root),
		SourceSHA256:      sourceDigest(root),
		GoVersion:         runtime.Version(),
		GOMAXPROCSGen:     runtime.GOMAXPROCS(0),
		GOMAXPROCSFilterd: filterdGOMAXPROCS,
		NProc:             runtime.NumCPU(),
		CPU:               cpuModel(),
		StoreFS:           fsType(workDir),
		Seed:              seed,
		Workload:          name,
		Trace:             trace,
	}
}

// gitCommit returns HEAD's hash, or "unknown" outside a git checkout.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file of the program (cmd/
// and internal/), so results from checkouts without git history still
// name the code they measured.
func sourceDigest(root string) string {
	var files []string
	for _, sub := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, sub), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
