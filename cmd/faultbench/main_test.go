package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientos/internal/campaign"
)

// The grammar itself (round trip, rejections, overrides, the backoff
// script) is tested where it lives, in internal/campaign.

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

// A mistyped victim must fail the run, not print an all-zero table and
// exit 0.
func TestMistypedVictimIsAnError(t *testing.T) {
	if err := run([]string{"-matrix", "victims=bogus,per-cell=1", "-q"}, io.Discard); err == nil {
		t.Fatal("run(victims=bogus) succeeded")
	}
}

// A bad spec or flag combination must stop the run before anything runs,
// with an error naming what is wrong.
func TestBadSpecsAreRejected(t *testing.T) {
	rec := filepath.Join(t.TempDir(), "base.jsonl")
	if err := os.WriteFile(rec, encodeRecording(campaign.Config{}, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-matrix", "victims=bogus"}, "-matrix"},
		{[]string{"-matrix", "victim=eth.dp8390"}, "-matrix"},
		{[]string{"-override", ""}, "-override"},
		{[]string{"-override", "warp=9"}, "-override"},
		{[]string{"-override", "hb=250ms", "-override", "budget=x"}, "-override"},
		{[]string{"-record", rec, "-replay", rec}, "mutually exclusive"},
		// The recording names its campaign: a -matrix beside it would
		// run another one and report the difference as a replay mismatch.
		{[]string{"-replay", rec, "-matrix", "seed=3"}, "-matrix and -replay"},
		{[]string{"-replay", filepath.Join(t.TempDir(), "missing.jsonl")}, "missing.jsonl"},
		{[]string{"seeds=2"}, "unexpected arguments"},
	} {
		err := run(append(tc.args, "-q"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

func TestEncodeRecordingHeader(t *testing.T) {
	base, err := campaign.ParseSpec("seed=11,victims=eth.rtl8139")
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
	path := filepath.Join(t.TempDir(), "base.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, log, err := readRecording(path)
	if err != nil || got.Spec() != base.Spec() || len(log) != 0 {
		t.Fatalf("readRecording = %q, %d events, %v; want %q", got.Spec(), len(log), err, base.Spec())
	}
}

// goldenRun runs faultbench in-process with -bench-json and checks the
// document byte for byte against the committed golden of the same name.
func goldenRun(t *testing.T, golden string, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), golden)
	var out strings.Builder
	if err := run(append(args, "-q", "-bench-json", path), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if want := "perf baseline written to " + path; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bench document differs from testdata/%s:\n%s", golden, got)
	}
	return out.String()
}

// The paper's §7.2 run for seeds 1..12, in-process: the report renders,
// every invariant holds, and the bench document is byte-identical to the
// committed golden that CI also compares.
func TestPaperGolden(t *testing.T) {
	t.Parallel()
	out := goldenRun(t, "BENCH_paper_seeds12.json",
		"-matrix", "seeds=12,victims=eth.dp8390,faults=random,per-cell=12500", "-invariants")
	for _, want := range []string{"invariants: all held", "recovery latency, random:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// The committed counterfactual sweep, in-process: six overrides of the
// Fig. 7 victim under bit-flip injection render as a table after the
// report, the bench document is the committed golden, and a replay of
// the recorded baseline reproduces its decision log byte for byte.
func TestSweepRecordReplay(t *testing.T) {
	t.Parallel()
	const spec = "seed=11,victims=eth.rtl8139,faults=bit-flip,per-cell=10,hb=500ms,misses=3,budget=0,backoff=1s,policy=on,mech=respawn,hw=off"
	rec := filepath.Join(t.TempDir(), "base.jsonl")
	out := goldenRun(t, "BENCH_decisions.json", "-matrix", spec, "-invariants", "-record", rec,
		"-override", "hb=250ms", "-override", "backoff=4s", "-override", "budget=1",
		"-override", "policy=off", "-override", "mech=microreboot", "-override", "mech=standby")
	for _, want := range []string{
		"invariants: all held\n\ncounterfactual sweep: " + spec,
		"baseline                       1         1      0    84.615         -    1120.0    1120.0         -",
		"hb=250ms                       1         1      0    84.615    +0.000    1120.0    1120.0      +0.0",
		"policy=off                     1         1      0   100.000   +15.385     120.0     120.0   -1000.0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	var replay strings.Builder
	if err := run([]string{"-q", "-replay", rec}, &replay); err != nil {
		t.Fatalf("replay: %v\n%s", err, replay.String())
	}
	if !strings.Contains(replay.String(), "replay: "+rec+" reproduced byte-for-byte") {
		t.Errorf("replay output:\n%s", replay.String())
	}
}

// EXPERIMENTS.md's budget example: both capped cells give their victim
// up, which pins give-up accounting (a given-up driver is down to the end
// of its cell).
func TestBudgetGolden(t *testing.T) {
	t.Parallel()
	out := goldenRun(t, "BENCH_decisions_budget.json",
		"-matrix", "seed=3;7,victims=eth.dp8390,faults=bit-flip,per-cell=25,backoff=1s",
		"-override", "hb=250ms,budget=1")
	if want := "hb=250ms,budget=1              4         2      2     1.367   -25.393"; !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}
