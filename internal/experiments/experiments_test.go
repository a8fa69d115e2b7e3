package experiments

import (
	"strings"
	"testing"
)

// small runs every experiment at reduced scale: primarily a smoke test
// that each regenerates its tables, with shape assertions on the ones
// whose claims are deterministic enough to check cheaply.
const smallScale = 0.05

func TestAllRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 29 { // E1-E23 plus ablations A1-A6
		t.Fatalf("registry has %d experiments, want 29", len(exps))
	}
	for i, e := range exps[:20] {
		if e.ID != "E"+itoa(i+1) {
			t.Errorf("experiment %d has ID %s", i, e.ID)
		}
	}
	for _, e := range exps {
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if _, ok := ByID("E7"); !ok {
		t.Error("ByID(E7) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) should fail")
	}
}

func runOne(t *testing.T, id string) string {
	t.Helper()
	return runAt(t, id, smallScale)
}

// runAt runs experiment id at the given scale and renders its tables.
func runAt(t *testing.T, id string, scale float64) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("missing %s", id)
	}
	tables := e.Run(Config{Scale: scale})
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	var sb strings.Builder
	for _, tb := range tables {
		tb.Render(&sb)
		if !strings.Contains(sb.String(), "--") {
			t.Fatalf("%s produced an empty table", id)
		}
	}
	return sb.String()
}

func TestE1SpaceShape(t *testing.T) {
	out := runOne(t, "E1")
	for _, name := range []string{"bloom", "quotient", "cuckoo", "xor", "ribbon", "prefix"} {
		if !strings.Contains(out, name) {
			t.Errorf("E1 missing filter %s:\n%s", name, out)
		}
	}
}

func TestE2Runs(t *testing.T)  { runOne(t, "E2") }
func TestE3Runs(t *testing.T)  { runOne(t, "E3") }
func TestE4Runs(t *testing.T)  { runOne(t, "E4") }
func TestE5Runs(t *testing.T)  { runOne(t, "E5") }
func TestE6Runs(t *testing.T)  { runOne(t, "E6") }
func TestE7Runs(t *testing.T)  { runOne(t, "E7") }
func TestE8Runs(t *testing.T)  { runOne(t, "E8") }
func TestE9Runs(t *testing.T)  { runOne(t, "E9") }
func TestE10Runs(t *testing.T) { runOne(t, "E10") }
func TestE11Runs(t *testing.T) { runOne(t, "E11") }
func TestE12Runs(t *testing.T) { runOne(t, "E12") }
func TestE13Runs(t *testing.T) { runOne(t, "E13") }

// TestE13TinyScale pins E13's query window to its genome length: at
// -scale 0.01 the genomes are shorter than the scale-1 window.
func TestE13TinyScale(t *testing.T) { runAt(t, "E13", 0.01) }

func TestE14Runs(t *testing.T) { runOne(t, "E14") }
func TestE15Runs(t *testing.T) { runOne(t, "E15") }

// TestE16FaultExperiment checks the acceptance claims of the fault
// experiment: under 20% transient remote errors the adaptive loop still
// converges with zero false negatives, and the LSM store answers every
// query correctly at strictly higher I/O than the healthy run.
func TestE16FaultExperiment(t *testing.T) {
	out := runOne(t, "E16")
	if !strings.Contains(out, "err20%_retry4") || !strings.Contains(out, "dev_err20%") {
		t.Fatalf("E16 missing fault scenarios:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		// Every E16a row ends with its false-negative count; every E16b
		// row with its wrong-answer count. Both must be zero everywhere.
		switch fields[0] {
		case "healthy", "err20%_no_retry", "err20%_retry4", "outage_then_recover",
			"dev_err20%", "filter_corrupt20%", "dev_err20%+perm2%+filter10%":
			if fields[len(fields)-1] != "0" {
				t.Errorf("scenario %s reports wrong answers / false negatives:\n%s", fields[0], line)
			}
		}
		if fields[0] == "err20%_retry4" && fields[2] == "never" {
			t.Errorf("20%% transient errors with retry must still converge:\n%s", line)
		}
	}
}

// TestE17PersistExperiment checks the persistence experiment's shape:
// all filter types appear in the throughput table and both comparison
// tables report a reload/reopen row with a speedup column.
func TestE17PersistExperiment(t *testing.T) {
	out := runOne(t, "E17")
	for _, name := range []string{"bloom", "blocked", "cuckoo", "quotient", "xor", "sharded",
		"rebuild_from_keys", "reload_from_file", "rebuild_with_puts", "reopen_from_disk"} {
		if !strings.Contains(out, name) {
			t.Errorf("E17 missing row %s:\n%s", name, out)
		}
	}
}

// TestE18ConcurrentExperiment checks the concurrency experiment's
// invariant: every read-scaling row reports zero wrong results, with
// and without the churn writer.
func TestE18ConcurrentExperiment(t *testing.T) {
	out := runOne(t, "E18")
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || (fields[1] != "none" && fields[1] != "churn") {
			continue
		}
		rows++
		if fields[len(fields)-1] != "0" {
			t.Errorf("E18 row reports wrong results:\n%s", line)
		}
	}
	if rows != 8 {
		t.Errorf("E18 produced %d read-scaling rows, want 8:\n%s", rows, out)
	}
	for _, name := range []string{"sync_inline", "bg_budget=2", "bg_budget=16"} {
		if !strings.Contains(out, name) {
			t.Errorf("E18b missing mode %s:\n%s", name, out)
		}
	}
}

// TestE19DurableExperiment checks the durability experiment's
// invariant: the crash sweep reports zero lost acknowledged writes and
// zero invented writes in every mode, and the latency ablation covers
// all four durability modes.
func TestE19DurableExperiment(t *testing.T) {
	out := runOne(t, "E19")
	sweep, _, _ := strings.Cut(out, "E19b")
	rows := 0
	for _, line := range strings.Split(sweep, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 6 {
			continue
		}
		switch fields[0] {
		case "group", "always", "buffered":
			rows++
			if fields[3] != "0" || fields[4] != "0" {
				t.Errorf("E19a crash sweep lost or invented writes:\n%s", line)
			}
		}
	}
	if rows != 3 {
		t.Errorf("E19a produced %d sweep rows, want 3:\n%s", rows, out)
	}
	for _, name := range []string{"no_wal", "buffered", "group_commit", "fsync_per_op"} {
		if !strings.Contains(out, name) {
			t.Errorf("E19b missing mode %s:\n%s", name, out)
		}
	}
}

// TestE20FrontierExperiment checks the Bloom-variant frontier's shape:
// all three variants appear at every bits/key budget, and the overfill
// table covers both blocked variants.
func TestE20FrontierExperiment(t *testing.T) {
	out := runOne(t, "E20")
	rows := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		switch fields[1] {
		case "bloom", "blocked", "choices":
			rows[fields[1]]++
		}
	}
	// 6 bits/key budgets in the frontier table; blocked and choices also
	// appear in 4 overfill rows each.
	if rows["bloom"] != 6 || rows["blocked"] != 10 || rows["choices"] != 10 {
		t.Errorf("E20 row counts bloom=%d blocked=%d choices=%d, want 6/10/10:\n%s",
			rows["bloom"], rows["blocked"], rows["choices"], out)
	}
}

// TestE22MapletFirstExperiment checks the maplet-first experiment's
// invariant: every shape×policy cell answers with zero wrong results
// against the exact model, all three policies appear in all three tree
// shapes, and the batch table covers the sweep.
func TestE22MapletFirstExperiment(t *testing.T) {
	out := runOne(t, "E22")
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 7 {
			continue
		}
		switch fields[0] {
		case "uniform_leveling", "uniform_tiering", "churn_lazy_leveling":
			rows++
			if fields[6] != "0" {
				t.Errorf("E22 cell reports wrong results:\n%s", line)
			}
		}
	}
	if rows != 9 {
		t.Errorf("E22 produced %d point-read rows, want 9:\n%s", rows, out)
	}
	for _, name := range []string{"bloom_uniform", "monkey", "maplet_first", "E22b"} {
		if !strings.Contains(out, name) {
			t.Errorf("E22 missing %s:\n%s", name, out)
		}
	}
}

func TestA1Runs(t *testing.T) { runOne(t, "A1") }
func TestA2Runs(t *testing.T) { runOne(t, "A2") }
func TestA3Runs(t *testing.T) { runOne(t, "A3") }
func TestA4Runs(t *testing.T) { runOne(t, "A4") }
func TestA5Runs(t *testing.T) { runOne(t, "A5") }
func TestA6Runs(t *testing.T) { runOne(t, "A6") }
