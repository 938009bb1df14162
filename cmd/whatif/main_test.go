package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientos/internal/campaign"
)

// The grammar itself (round trip, rejections, overrides, the backoff
// script) is tested where it lives, in internal/campaign.

// baselineSpecFull is baselineSpec with every default spelled out.
const baselineSpecFull = "seed=11,victims=eth.rtl8139,faults=bit-flip,per-cell=10,hb=500ms,misses=3,budget=0,backoff=1s,policy=on,mech=respawn,hw=off"

func TestBaselineSpec(t *testing.T) {
	base, err := campaign.ParseSpec(baselineSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Spec(); got != baselineSpecFull {
		t.Fatalf("baseline spec = %q, want %q", got, baselineSpecFull)
	}
}

func TestEncodeRecordingHeader(t *testing.T) {
	base, err := campaign.ParseSpec(baselineSpec)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeRecording(base, nil)
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("empty log encodes to %d lines", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"mark"`) ||
		!strings.Contains(lines[0], `"svc":"whatif"`) ||
		!strings.Contains(lines[0], base.Spec()) {
		t.Fatalf("header line %q missing mark/spec", lines[0])
	}
}

// A mistyped victim, an unknown key or an empty override must stop the
// sweep before anything runs, not print an all-zero table.
func TestBadSpecsAreRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-matrix", "victims=bogus"},
		{"-matrix", "victim=eth.dp8390"},
		{"-override", ""},
		{"-override", "warp=9"},
	} {
		if err := run(append(args, "-q"), io.Discard); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}

// One counterfactual of the committed sweep, in-process: the table
// renders, every metric line of the bench document is a line of the
// committed golden (same baseline, one of its overrides), and a replay of
// the recorded baseline reproduces its decision log byte for byte.
func TestSweepRecordReplay(t *testing.T) {
	dir := t.TempDir()
	rec, doc := filepath.Join(dir, "base.jsonl"), filepath.Join(dir, "BENCH_decisions.json")
	var out strings.Builder
	if err := run([]string{"-q", "-override", "hb=250ms", "-record", rec, "-bench-json", doc}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{
		"counterfactual sweep: " + baselineSpecFull,
		"baseline                       1         1      0    84.615         -    1120.0    1120.0         -",
		"hb=250ms                       1         1      0    84.615    +0.000    1120.0    1120.0      +0.0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
	got, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "BENCH_decisions.json"))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(string(got), "\n") {
		if !strings.Contains(line, `"name":`) {
			continue
		}
		lines++
		if !strings.Contains(string(golden), strings.TrimSuffix(line, ",")) {
			t.Errorf("metric line not in the golden: %s", line)
		}
	}
	if lines == 0 {
		t.Fatalf("bench document has no metrics:\n%s", got)
	}

	out.Reset()
	if err := run([]string{"-q", "-replay", rec, "-override", "budget=1"}, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replay: "+rec+" reproduced byte-for-byte") {
		t.Errorf("replay output:\n%s", out.String())
	}
}
