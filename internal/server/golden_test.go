package server

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beyondbloom/internal/lsm"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestMetricsGolden pins the full /metrics page for a fixed request
// sequence. Every piece is deterministic by construction: the filter
// seeds are fixed, the store is synchronous (bit-identical I/O replay),
// and the requests run one at a time. Any change to a counter name, label,
// render order, or to which requests bump which counters shows up as a
// diff here.
func TestMetricsGolden(t *testing.T) {
	store, err := lsm.NewStore(lsm.Options{MemtableSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	e, err := NewEngine(newTestFilter(t, 4096), store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ts := httptest.NewServer(New(e))
	defer ts.Close()

	reloadPath := saveFilterFile(t, t.TempDir(), "gen2.bbf", []uint64{500, 501})

	// The pinned sequence. Status codes are asserted so a behavior
	// change cannot silently re-pin the golden to different semantics.
	steps := []struct {
		path, contentType, body string
		wantStatus              int
	}{
		{"/v1/insert", "application/json", `{"keys": [10, 11, 12]}`, 200},
		{"/v1/contains", "application/json", `{"key": 10}`, 200},
		{"/v1/contains", "application/json", `{"key": 999}`, 200},
		{"/v1/contains", "application/json", `{"keys": [10, 11, 999]}`, 200},
		{"/v1/put", "application/json", `{"key": 1, "value": 100}`, 200},
		{"/v1/put", "application/json", `{"entries": [{"key": 2, "value": 200}, {"key": 3, "value": 300}, {"key": 4, "value": 400}, {"key": 5, "value": 500}, {"key": 6, "value": 600}]}`, 200},
		{"/v1/get", "application/json", `{"key": 1}`, 200},
		{"/v1/get", "application/json", `{"keys": [1, 2, 999]}`, 200},
		{"/v1/delete", "application/json", `{"key": 2}`, 200},
		{"/v1/probe", BinaryContentType, string(AppendBinaryRequest(nil, OpContains, []uint64{10, 999})), 200},
		{"/v1/probe", BinaryContentType, string(AppendBinaryRequest(nil, OpGet, []uint64{1, 2})), 200},
		{"/admin/reload", "application/json", `{"path": "` + reloadPath + `"}`, 200},
		{"/v1/contains", "application/json", `{"key": 500}`, 200},
		{"/v1/contains", "application/json", `not json`, 400},
		{"/v1/probe", BinaryContentType, "BQ", 400},
	}
	for i, st := range steps {
		code, body := post(t, ts, st.path, st.contentType, st.body)
		if code != st.wantStatus {
			t.Fatalf("step %d (%s): status %d (%s), want %d", i, st.path, code, strings.TrimSpace(body), st.wantStatus)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	checkGolden(t, "metrics.golden", buf.Bytes())
}

// TestWireFormatGolden pins the binary wire format byte for byte. If
// these goldens ever need -update, the format changed and every client
// breaks: bump wireVersion instead.
func TestWireFormatGolden(t *testing.T) {
	reqContains := AppendBinaryRequest(nil, OpContains, []uint64{1, 2, 1 << 40})
	checkGolden(t, "wire_request_contains.golden", reqContains)
	reqGet := AppendBinaryRequest(nil, OpGet, []uint64{7})
	checkGolden(t, "wire_request_get.golden", reqGet)
	respContains := AppendBinaryResponse(nil, OpContains, []bool{true, false, true, true, false, false, false, false, true}, nil)
	checkGolden(t, "wire_response_contains.golden", respContains)
	respGet := AppendBinaryResponse(nil, OpGet, []bool{true, false}, []uint64{0xdeadbeef, 0})
	checkGolden(t, "wire_response_get.golden", respGet)
}
