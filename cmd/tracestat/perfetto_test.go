package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resilientos"
	"resilientos/internal/obs"
	"resilientos/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// fixture builds a small two-component trace with a crash-orphaned span,
// a retry link, and a matched IPC send/recv pair.
func fixture() []obs.Event {
	at := func(t int64, k obs.Kind, comp, aux string, v1, tr, sp, pa int64) obs.Event {
		return obs.Event{T: sim.Time(t), Kind: k, Comp: comp, Aux: aux, V1: v1, Trace: tr, Span: sp, Parent: pa}
	}
	return []obs.Event{
		at(1000, obs.KindSpanBegin, "vfs", "vfs.read", 0, 1, 1, 0),
		at(1500, obs.KindSpanBegin, "mfs", "bdev.read", 0, 1, 2, 1),
		at(1600, obs.KindIPCSend, "mfs", "disk", 0, 1, 2, 0),
		at(1700, obs.KindIPCRecv, "disk", "mfs", 0, 1, 2, 0),
		at(2000, obs.KindDefect, "rs", "exception(MMU)", 0, 0, 0, 0),
		at(2100, obs.KindSpanOrphan, "mfs", "crash:disk", 0, 1, 2, 0),
		at(3000, obs.KindSpanBegin, "mfs", "bdev.read", 0, 1, 3, 1),
		at(3000, obs.KindSpanLink, "mfs", "retry-of", 0, 1, 3, 2),
		at(3500, obs.KindSpanEnd, "mfs", "", 0, 1, 3, 0),
		at(4000, obs.KindSpanEnd, "vfs", "", 0, 1, 1, 0),
	}
}

func TestExportIsValidJSON(t *testing.T) {
	out := perfettoJSON(fixture())
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, out)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var metas, slices, instants, flows int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			metas++
		case "X":
			slices++
		case "i":
			instants++
		case "s", "f":
			flows++
		}
	}
	// Tracks: vfs, mfs, disk (IPC recv side has no span, so no track) —
	// disk owns no span and no instant, rs owns the defect instant. Plus
	// the process_name meta for the single segment.
	if metas != 4 { // process + mfs, rs, vfs
		t.Fatalf("metas = %d, want 4", metas)
	}
	if slices != 3 {
		t.Fatalf("slices = %d, want 3", slices)
	}
	if instants != 1 {
		t.Fatalf("instants = %d, want 1", instants)
	}
	// One retry-of link = 2 halves; the IPC pair's recv comp ("disk") has
	// no track, so it is skipped.
	if flows != 2 {
		t.Fatalf("flow halves = %d, want 2", flows)
	}
	if !strings.Contains(string(out), `"orphaned":"crash:disk"`) {
		t.Fatalf("orphaned span not annotated:\n%s", out)
	}
}

// TestExportSegmentsPerRun feeds two mark-delimited runs whose span IDs
// collide (each experiment run boots a fresh recorder) and checks each
// run becomes its own Perfetto process instead of being merged.
func TestExportSegmentsPerRun(t *testing.T) {
	mark := func(aux string) obs.Event {
		return obs.Event{Kind: obs.KindMark, Comp: "run", Aux: aux}
	}
	var events []obs.Event
	events = append(events, mark("run interval=0"))
	events = append(events, fixture()...)
	events = append(events, mark("run interval=1s"))
	events = append(events, fixture()...)

	out := perfettoJSON(events)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	slicesByPid := map[float64]int{}
	procNames := map[float64]string{}
	for _, e := range doc.TraceEvents {
		pid, _ := e["pid"].(float64)
		switch {
		case e["ph"] == "X":
			slicesByPid[pid]++
		case e["name"] == "process_name":
			args := e["args"].(map[string]any)
			procNames[pid] = args["name"].(string)
		}
	}
	if slicesByPid[1] != 3 || slicesByPid[2] != 3 {
		t.Fatalf("slices per process = %v, want 3 in each of pid 1 and 2", slicesByPid)
	}
	if procNames[1] != "run interval=0" || procNames[2] != "run interval=1s" {
		t.Fatalf("process names = %v", procNames)
	}
}

func TestExportDeterministic(t *testing.T) {
	a := perfettoJSON(fixture())
	b := perfettoJSON(fixture())
	if !bytes.Equal(a, b) {
		t.Fatal("two exports of the same events differ")
	}
}

func TestMicrosFraction(t *testing.T) {
	got := string(appendMicros(nil, sim.Time(1234567)))
	if got != "1234.567" {
		t.Fatalf("appendMicros(1234567ns) = %q, want 1234.567", got)
	}
	if got := string(appendMicros(nil, sim.Time(5000))); got != "5" {
		t.Fatalf("appendMicros(5000ns) = %q, want 5", got)
	}
}

// causalTrace runs a small fixed network workload under periodic driver
// kills with the full causal trace (spans, links, IPC edges) captured in
// memory, and returns the event stream.
func causalTrace(t *testing.T) []obs.Event {
	t.Helper()
	const seed, size = 11, 1 << 20
	sink := &obs.SliceSink{}
	sys := resilientos.New(resilientos.Config{
		Seed:        seed,
		DisableDisk: true,
		DisableChar: true,
		Obs:         obs.NewRecorder(sink),
	})
	defer sys.Close()
	sys.Run(3 * time.Second)
	sys.ServeFile(80, seed, size)
	var w resilientos.WgetResult
	sys.Wget(resilientos.DriverRTL8139, 80, seed, size, &w)
	sys.Every(400*time.Millisecond, func() {
		if w.Duration == 0 && w.Err == nil {
			sys.KillDriver(resilientos.DriverRTL8139)
		}
	})
	sys.Run(2 * time.Minute)
	if !w.OK {
		t.Fatalf("wget failed under kills: %d bytes err=%v", w.Bytes, w.Err)
	}
	return sink.Events()
}

// TestPerfettoExportGolden pins the export of a fixed seed+workload
// byte-for-byte against a committed golden file. Any change to span
// emission, ID allocation, or the export encoding shows up as a diff
// here. Regenerate with: go test ./cmd/tracestat -run PerfettoExportGolden -update
func TestPerfettoExportGolden(t *testing.T) {
	got := perfettoJSON(causalTrace(t))
	golden := filepath.Join("testdata", "perfetto_fig7_seed11.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("perfetto export differs from %s (%d vs %d bytes); "+
			"if the change is intentional, regenerate with -update",
			golden, len(got), len(want))
	}
}

// TestPerfettoExportRunToRun reruns the golden workload from scratch and
// demands a byte-identical document — the acceptance property that makes
// exports diffable across commits and machines.
func TestPerfettoExportRunToRun(t *testing.T) {
	a := perfettoJSON(causalTrace(t))
	b := perfettoJSON(causalTrace(t))
	if !bytes.Equal(a, b) {
		t.Fatalf("perfetto export not reproducible across runs: %d vs %d bytes", len(a), len(b))
	}
}

// TestSweepExport drives -perfetto on a real two-interval sweep capture
// read back from JSONL: each run's mark-delimited segment becomes its own
// Perfetto process, named by its mark.
func TestSweepExport(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	var runs []resilientos.FigureConfig
	for _, iv := range []time.Duration{0, time.Second, 2 * time.Second} {
		runs = append(runs, resilientos.FigureConfig{Fig: 8, Size: 64 << 20, Interval: iv, Trace: sink})
	}
	points := resilientos.RunFigures(runs)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "sweep.jsonl", buf.Bytes())
	out := filepath.Join(t.TempDir(), "sweep.json")
	tracestat(t, "-top", "0", "-perfetto", out, path)
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	procs := 0
	for _, e := range doc.TraceEvents {
		if e["name"] == "process_name" {
			procs++
		}
	}
	if procs != len(points) {
		t.Errorf("%d Perfetto processes for %d runs", procs, len(points))
	}
}
