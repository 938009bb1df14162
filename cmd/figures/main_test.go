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
	"time"

	"resilientos"
	"resilientos/internal/bench"
)

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

// A kill interval (or window) that is not a number of seconds is an
// error naming the item, never a silent uninterrupted run.
func TestParseIntervals(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []time.Duration // nil = rejected
		bad  string          // the item the error names
	}{
		{"2", []time.Duration{2 * time.Second}, ""},
		{"0", []time.Duration{0}, ""},
		{"1, 0.5,15", []time.Duration{time.Second, 500 * time.Millisecond, 15 * time.Second}, ""},
		{"0.128", []time.Duration{128 * time.Millisecond}, ""},
		{"1e-9", []time.Duration{time.Nanosecond}, ""},
		{"NaN", nil, `"NaN"`},
		{"1,-3", nil, `"-3"`},
		{"+Inf,1", nil, `"+Inf"`},
		{"-Inf", nil, `"-Inf"`},
		{"1,,2", nil, `""`},
		{"", nil, `""`},
		{"1,2,", nil, `""`},
		{"1s", nil, `"1s"`},
		{"1e-12", nil, `"1e-12"`}, // rounds to zero nanoseconds
		{"1e300", nil, `"1e300"`}, // overflows a Duration
	} {
		got, err := parseIntervals(tc.list)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.bad) {
				t.Errorf("parseIntervals(%q) = %v, %v; want an error naming %s", tc.list, got, err, tc.bad)
			}
			continue
		}
		if err != nil || len(got) != len(tc.want) {
			t.Errorf("parseIntervals(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseIntervals(%q)[%d] = %v, want %v", tc.list, i, got[i], tc.want[i])
			}
		}
	}
	for _, args := range [][]string{{"-interval", "NaN"}, {"-window", "NaN"}, {"-window", "-1"}, {"-window", "1,2"}} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("run(%v) = %v, want an error naming %s", args, err, args[0])
		}
	}
}

// A kill interval below the victim's recovery time (the disk's 600 ms
// reset never completes under a kill every 128 ms) stops at the runner's
// horizon, and the error says so instead of blaming the checksum.
func TestIntervalBelowRecoveryTime(t *testing.T) {
	err := run([]string{"-fig", "8", "-size", "4", "-interval", "0.128", "-out", t.TempDir()}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "did not complete within the horizon") {
		t.Fatalf("run = %v, want the horizon error", err)
	}
}

// sameFile fails the test unless the two files hold the same bytes.
func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s differs from %s:\n%s", got, want, g)
	}
}

// The kill-interval sweep, in-process: one table row per run with the
// same columns as a comparison, a curve per run, and the throughput
// document CI compares with its committed golden.
func TestSweepMatchesGolden(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-fig", "8", "-size", "64", "-interval", "1,4", "-bench", "-out", dir}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{
		"fig8: 64 MB via disk.sata, seed 1",
		"run                       every     MB/s  kills loss/kill  depth %  Δdepth  width ms   Δwidth  recov %  p50 ms  p95 ms    ok",
		"baseline                      -    32.70      0        0s      0.0       -       0.0        -    100.0       -       -  true",
		"interval=1s                  1s    17.40      3     601ms     63.9   +63.9     966.7   +966.7      0.0   600.0   600.0  true",
		"    dip 2: kill at 3s, depth 71.5%, width 900ms, truncated",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, run := range []string{"baseline", "interval=1s", "interval=4s"} {
		if _, err := os.Stat(filepath.Join(dir, "fig8_seed1_"+run+".csv")); err != nil {
			t.Errorf("sweep wrote no curve for %s: %v", run, err)
		}
	}
	sameFile(t, filepath.Join(dir, "BENCH_throughput.json"), filepath.Join("..", "..", "testdata", "BENCH_throughput_fig8.json"))
}

// A variant that reads other bytes than its baseline fails the command
// even though its own transfer completed: here the variant's disk holds
// other contents (another disk seed) under the same file.
func TestVariantWithOtherBytesFails(t *testing.T) {
	cfg := resilientos.FigureConfig{Fig: 8, Size: 4 << 20, System: resilientos.Config{Seed: 3}}
	var l runList
	l.add("baseline", "baseline", cfg)
	cfg.System.Machine.DiskSeed = 4
	l.add("disk=4", "disk/4", cfg)
	err := l.run(io.Discard, t.TempDir(), false)
	if err == nil || !strings.Contains(err.Error(), "fig8 disk=4: transfer received other bytes than the baseline") {
		t.Fatalf("run = %v, want the variant refused for its bytes", err)
	}
}

// The recovery-mechanism comparison, in-process: the respawn baseline
// and one run per mechanism override, each curve and the comparison
// document byte-identical to its golden.
func TestMechanismsMatchGoldens(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	args := []string{"-seed", "11", "-size", "32", "-interval", "1", "-bench", "-out", dir,
		"-override", "mech=microreboot", "-override", "mech=standby"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "baseline: hb=500ms,misses=3,budget=0,policy=off,mech=respawn,hw=off") {
		t.Errorf("output lacks the baseline's spec:\n%s", out.String())
	}
	golden := filepath.Join("..", "..", "testdata")
	sameFile(t, filepath.Join(dir, "BENCH_recovery.json"), filepath.Join(golden, "BENCH_recovery_seed11.json"))
	for run, mech := range map[string]string{"baseline": "respawn", "mech=microreboot": "microreboot", "mech=standby": "standby"} {
		sameFile(t, filepath.Join(dir, "fig7_seed11_"+run+".csv"), filepath.Join(golden, "fig7_seed11_"+mech+".csv"))
	}

	// The headline claims: a warm standby's dip is shallower than a
	// respawn's, a microreboot's narrower.
	doc, err := bench.ReadFile(filepath.Join(dir, "BENCH_recovery.json"))
	if err != nil {
		t.Fatal(err)
	}
	value := func(name string) float64 {
		v, ok := doc.Value(name)
		if !ok {
			t.Fatalf("bench document lacks %q", name)
		}
		return v
	}
	if s, r := value("override/mech=standby/mean_dip_depth_pct"), value("baseline/mean_dip_depth_pct"); s >= r {
		t.Errorf("standby dip depth %.1f%% not shallower than respawn's %.1f%%", s, r)
	}
	if m, r := value("override/mech=microreboot/mean_dip_width_ms"), value("baseline/mean_dip_width_ms"); m >= r {
		t.Errorf("microreboot dip width %.1fms not narrower than respawn's %.1fms", m, r)
	}
}

// A comparison that cannot run as asked is refused before any run, with
// an error naming the problem; without -bench it writes no document.
func TestOverrideFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-override", "mech=standby", "-interval", "1,2"}, "-override takes a single -interval"},
		{[]string{"-override", ""}, "spec: empty"},
		{[]string{"-override", " , "}, "spec: empty"},
		{[]string{"-override", "seeds=2"}, `unknown key "seeds"`},
		{[]string{"-override", "mech=warp"}, "bad mech=warp"},
	} {
		err := run(append(tc.args, "-out", t.TempDir()), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "-override") {
			t.Errorf("run(%q) = %v, want an -override error naming %q", tc.args, err, tc.want)
		}
	}

	dir := t.TempDir()
	if err := run([]string{"-fig", "8", "-size", "4", "-interval", "1", "-override", "budget=1", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig8_seed1_baseline.csv", "fig8_seed1_budget=1.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("comparison did not write %s: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_recovery.json")); !os.IsNotExist(err) {
		t.Errorf("comparison without -bench wrote BENCH_recovery.json (%v)", err)
	}
}
