package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeAllWorkloads runs every workload untraced and traced at
// small sizes against a freshly built filterd and checks that the last
// output line carries exactly the metrics BENCHMARK.json names.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds filterd and runs every workload")
	}
	bf := readBenchmarkFile(t)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "filterd")
	if out, err := exec.Command("go", "build", "-o", bin, "beyondbloom/cmd/filterd").CombinedOutput(); err != nil {
		t.Fatalf("building filterd: %v\n%s", err, out)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := []string{"bulk_probe", "kv_mixed", "point_contains"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, w := range names {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w, "-seed", "3", "-seconds", "1", "-trace", trace,
				"-root", tmp, "-filterd", bin, "-shift", "6"}, &stdout, &stderr)
			if code != 0 && raceEnabled && strings.Contains(stderr.String(), errLedger.Error()) {
				t.Logf("%s trace %s: ledger check failed under the race detector: %s", w, trace, stderr.String())
				continue
			}
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", w, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    *int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed == nil {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%v", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace == "1" {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if trace == "0" && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongAnswerFailsThePhase serves a filter that reports every key
// absent: the first built key asked for is a false negative.
func TestWrongAnswerFailsThePhase(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(jsonAbsent)
	}))
	defer srv.Close()
	s, err := specFor("point_contains", 12)
	if err != nil {
		t.Fatal(err)
	}
	loops, _ := prepare(s, 1).loops()
	_, err = runPhase(context.Background(), phaseConfig{addr: strings.TrimPrefix(srv.URL, "http://"), measure: time.Second}, loops)
	var wrong *wrongAnswer
	if !errors.As(err, &wrong) || !strings.Contains(err.Error(), "false negative") {
		t.Fatalf("runPhase error = %v, want a false negative", err)
	}
}
