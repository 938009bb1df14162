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

// The kill-interval sweep, in-process: it prints the throughput and
// latency tables and writes the throughput document CI compares with its
// committed golden.
func TestSweepMatchesGolden(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-fig", "8", "-size", "64", "-interval", "1,4", "-bench", "-out", dir}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{
		"Fig. 8: dd 64 MB | sha1sum",
		"interval_s  throughput_MBps  relative_loss",
		"recovery latency (defect -> reintegration, virtual time)",
		"/kill lost, ok=true)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	sameFile(t, filepath.Join(dir, "BENCH_throughput.json"), filepath.Join("..", "..", "testdata", "BENCH_throughput_fig8.json"))
}

// The recovery-mechanism comparison, in-process: one curve per mechanism
// and the comparison document, each byte-identical to its golden.
func TestMechanismsMatchGoldens(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-mechanisms", "-seed", "11", "-size", "32", "-interval", "1", "-out", dir}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "standby depth gain:") {
		t.Errorf("output lacks the gains line:\n%s", out.String())
	}
	golden := filepath.Join("..", "..", "testdata")
	sameFile(t, filepath.Join(dir, "BENCH_recovery.json"), filepath.Join(golden, "BENCH_recovery_seed11.json"))
	for _, m := range []string{"respawn", "microreboot", "standby"} {
		name := "fig7_seed11_" + m + ".csv"
		sameFile(t, filepath.Join(dir, name), filepath.Join(golden, name))
	}
	if err := run([]string{"-mechanisms", "-interval", "1,2"}, io.Discard); err == nil {
		t.Error("-mechanisms with a sweep: no error")
	}
}
