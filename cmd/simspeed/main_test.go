package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"resilientos/internal/bench"
)

var update = flag.Bool("update", false, "regenerate testdata/BENCH_simspeed_seed1.json")

const golden = "testdata/BENCH_simspeed_seed1.json"

// The document holds nothing the host can move, so two batteries must
// agree byte for byte with no flag at all — and with the committed
// seed-1 document, the exact-count drift gate: the same code at the same
// seed executes the same events, and a PR that moves one says why.
func TestBatteryTwiceIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	var docs [2][]byte
	for i := range docs {
		path := filepath.Join(dir, "doc.json")
		if code, err := run([]string{"-seed", "1", "-bench-json", path}); code != 0 || err != nil {
			t.Fatalf("battery: code=%d err=%v", code, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = b
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatalf("documents differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", docs[0], docs[1])
	}
	if *update {
		if err := os.WriteFile(golden, docs[0], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(docs[0], want) {
		t.Errorf("exact counts drifted from %s: diff it against `go run ./cmd/simspeed -seed 1 -bench-json`; "+
			"if the change is intentional, regenerate with -update and say why in the PR", golden)
	}
}

// The counts must be the ones the profiler's regions define: every
// scheduler event is one step-region entry; attaching the obs stack
// emits trace events and schedules work of its own, so the instrumented
// fig7 run executes different events from the bare one (which is why
// both are pinned); and the live checker runs once per step.
func TestBatteryExactCounts(t *testing.T) {
	doc, folded := battery(options{seed: 1})
	value := func(name string) float64 {
		v, ok := doc.Value(name)
		if !ok {
			t.Fatalf("document lacks %q", name)
		}
		return v
	}
	for _, sc := range []string{"fig7", "fleet", "campaign"} {
		events := value(sc + "/events")
		if events == 0 || value(sc+"/bare_events") == 0 {
			t.Errorf("%s: zero event counts", sc)
		}
		if step := value(sc + "/region/step/entries"); step != events {
			t.Errorf("%s: step region entered %v times for %v events", sc, step, events)
		}
	}
	if value("fig7/obs_events") == 0 {
		t.Error("instrumented fig7 run emitted no obs events")
	}
	if inst, bare := value("fig7/events"), value("fig7/bare_events"); inst == bare {
		t.Errorf("instrumented and bare fig7 both executed %v events; sampler/checker scheduling missing", inst)
	}
	if value("fig7/region/check/entries") == 0 {
		t.Error("invariant checker region never entered")
	}
	if value("fleet/region/barrier/entries") == 0 {
		t.Error("fleet barrier region never entered")
	}
	if !bytes.Contains(folded, []byte("wall:")) {
		t.Error("fig7 folded stacks lack the wall-clock plane")
	}
}

func TestRenderAndFlags(t *testing.T) {
	if code, err := run([]string{"-badflag"}); code != 2 || err != nil {
		t.Fatalf("bad flag: code=%d err=%v", code, err)
	}
	if code, err := run([]string{"positional"}); code != 2 || err == nil {
		t.Fatalf("positional arg: code=%d err=%v", code, err)
	}
	dir := t.TempDir()
	code, err := run([]string{
		"-scenario", "fleet",
		"-bench-json", dir + "/BENCH_simspeed.json",
		"-folded", dir + "/simspeed.folded"})
	if code != 0 || err != nil {
		t.Fatalf("fleet-only run: code=%d err=%v", code, err)
	}
	doc, err := bench.ReadFile(dir + "/BENCH_simspeed.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Value("fleet/events"); !ok {
		t.Fatal("scenario filter dropped the fleet scenario")
	}
	if _, ok := doc.Value("fig7/events"); ok {
		t.Fatal("scenario filter kept fig7")
	}
	// -scenario fleet produces no fig7 folded stacks: file is written
	// but empty.
	if fb, err := os.ReadFile(dir + "/simspeed.folded"); err != nil || len(fb) != 0 {
		t.Fatalf("folded without fig7: err=%v len=%d", err, len(fb))
	}
}
