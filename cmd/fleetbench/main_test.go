package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden trace and campaign outputs in testdata/")

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

func TestBadFlags(t *testing.T) {
	badSpec := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badSpec, []byte(`{"horizon":"1s","classes":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	badTrace := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(badTrace, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown policy", []string{"-policy", "bogus", "-horizon", "1s"}, "policy"},
		{"unknown storm", []string{"-storm", "hail:everything"}, "storm"},
		{"unknown flag", []string{"-wrokload", "x.json"}, "flag"},
		{"mistyped storm victim", []string{"-storm", "correlated:eth.bogus,every=300ms", "-horizon", "2s"}, `-storm correlated:eth.bogus`},
		{"mistyped storm victim under compare", []string{"-compare", "-storm", "poisson:eth.bogus", "-horizon", "1s"}, `-storm poisson:eth.bogus`},
		{"storm interval below a millisecond", []string{"-storm", "correlated:eth.rtl8139,every=1ns", "-horizon", "1s"}, "-storm correlated:eth.rtl8139,every=1ns"},
		{"nodes zero", []string{"-nodes", "0", "-horizon", "1s"}, "-nodes 0"},
		{"nodes negative", []string{"-nodes", "-3", "-horizon", "1s"}, "-nodes -3"},
		{"rps NaN", []string{"-rps", "NaN", "-horizon", "1s"}, "-rps NaN"},
		{"rps +Inf", []string{"-rps", "+Inf", "-horizon", "1s"}, "-rps +Inf"},
		{"rps zero", []string{"-rps", "0", "-horizon", "1s"}, "-rps 0"},
		{"rps negative", []string{"-rps", "-5", "-horizon", "1s"}, "-rps -5"},
		{"rps below one request per horizon", []string{"-rps", "1e-12", "-horizon", "1s"}, "no arrivals"},
		{"compare plus csv", []string{"-compare", "-csv", "x.csv"}, "cannot take -csv"},
		{"compare plus json", []string{"-compare", "-json", "x.json"}, "cannot take -json"},
		{"compare plus policy", []string{"-compare", "-policy", "bogus"}, "cannot take -policy"},
		{"replay plus workload", []string{"-replay", "t.jsonl", "-workload", "w.json"}, "-replay is exclusive"},
		{"replay plus record", []string{"-replay", "t.jsonl", "-record", "u.jsonl"}, "-replay is exclusive"},
		{"missing spec file", []string{"-workload", filepath.Join(t.TempDir(), "absent.json")}, "no such file"},
		{"invalid spec", []string{"-workload", badSpec}, "at least one class"},
		{"missing trace file", []string{"-replay", filepath.Join(t.TempDir(), "absent.jsonl")}, "no such file"},
		{"malformed trace", []string{"-replay", badTrace}, "bad header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// goldenArgs are the campaign flags every golden run shares; only the
// workload source and the number of CPUs (GOMAXPROCS, which is the worker
// count) vary.
func goldenArgs(dir string) []string {
	return []string{
		"-nodes", "3", "-seed", "11",
		"-storm", "correlated:eth.rtl8139,k=1,every=1500ms",
		"-window", "200ms",
		"-csv", filepath.Join(dir, "fleet.csv"),
		"-bench-json", filepath.Join(dir, "BENCH_fleet.json"),
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenReplay is the pinned-campaign regression test: the seed-11
// mixed-class spec records a golden trace, the recording run's outputs
// match the checked-in goldens, and replaying the golden trace on 1, 2,
// and 8 CPUs reproduces them byte for byte. Run with -update
// to regenerate testdata after an intentional change.
func TestGoldenReplay(t *testing.T) {
	const (
		goldenTrace = "testdata/trace_seed11.jsonl"
		goldenCSV   = "testdata/fleet_seed11.csv"
		goldenBench = "testdata/BENCH_fleet_seed11.json"
	)

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	args := append(goldenArgs(dir),
		"-workload", "testdata/workload_seed11.json", "-record", tracePath)
	if err := run(args); err != nil {
		t.Fatalf("record run: %v", err)
	}

	if *update {
		for _, cp := range [][2]string{
			{tracePath, goldenTrace},
			{filepath.Join(dir, "fleet.csv"), goldenCSV},
			{filepath.Join(dir, "BENCH_fleet.json"), goldenBench},
		} {
			if err := os.WriteFile(cp[1], readFile(t, cp[0]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("goldens regenerated")
	}

	if !bytes.Equal(readFile(t, tracePath), readFile(t, goldenTrace)) {
		t.Error("recorded trace differs from golden (rerun with -update if intentional)")
	}
	wantCSV := readFile(t, goldenCSV)
	wantBench := readFile(t, goldenBench)
	if !bytes.Equal(readFile(t, filepath.Join(dir, "fleet.csv")), wantCSV) {
		t.Error("recording run CSV differs from golden")
	}
	if !bytes.Equal(readFile(t, filepath.Join(dir, "BENCH_fleet.json")), wantBench) {
		t.Error("recording run bench doc differs from golden")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		rdir := t.TempDir()
		args := append(goldenArgs(rdir), "-replay", goldenTrace)
		if err := run(args); err != nil {
			t.Fatalf("replay GOMAXPROCS=%d: %v", procs, err)
		}
		if !bytes.Equal(readFile(t, filepath.Join(rdir, "fleet.csv")), wantCSV) {
			t.Errorf("replay GOMAXPROCS=%d: CSV differs from golden", procs)
		}
		if !bytes.Equal(readFile(t, filepath.Join(rdir, "BENCH_fleet.json")), wantBench) {
			t.Errorf("replay GOMAXPROCS=%d: bench doc differs from golden", procs)
		}
	}
}

// smokeArgs is CI's fleet-smoke campaign: the built-in classic workload
// on 4 nodes under a correlated NIC-kill storm.
var smokeArgs = []string{"-nodes", "4", "-seed", "11", "-storm", "correlated:eth.rtl8139,k=2,every=1s"}

// checkGolden byte-compares the file a run wrote with a committed golden
// (-update rewrites the golden first).
func checkGolden(t *testing.T, got, golden string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, readFile(t, got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(readFile(t, got), readFile(t, golden)) {
		t.Errorf("%s differs from %s (diff them; -update if intentional)", filepath.Base(got), golden)
	}
}

// TestFleetSmokeGolden runs CI's fleet-smoke campaign through the CLI,
// byte-compares the bench document it writes with the committed golden,
// and holds -record to its contract on the built-in workload: replaying
// the recording on another number of CPUs reproduces every output.
func TestFleetSmokeGolden(t *testing.T) {
	outputs := func(dir string) []string {
		return []string{
			"-csv", filepath.Join(dir, "fleet.csv"),
			"-json", filepath.Join(dir, "fleet.json"),
			"-bench-json", filepath.Join(dir, "BENCH_fleet.json"),
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir, rdir := t.TempDir(), t.TempDir()
	trace := filepath.Join(dir, "classic.jsonl")
	args := append(append([]string{"-horizon", "6s", "-policy", "failure-aware", "-record", trace}, smokeArgs...), outputs(dir)...)
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, filepath.Join(dir, "BENCH_fleet.json"), "testdata/BENCH_fleet_storm_seed11.json")

	// The trace carries the horizon and the load; storm, fleet and policy
	// are campaign flags a replay repeats.
	runtime.GOMAXPROCS(4)
	args = append(append([]string{"-replay", trace}, smokeArgs...), outputs(rdir)...)
	if err := run(args); err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, name := range []string{"fleet.csv", "fleet.json", "BENCH_fleet.json"} {
		want := readFile(t, filepath.Join(dir, name))
		if len(want) == 0 {
			t.Fatalf("%s not written", name)
		}
		if !bytes.Equal(readFile(t, filepath.Join(rdir, name)), want) {
			t.Errorf("replay at GOMAXPROCS=4: %s differs from the recording run's", name)
		}
	}
}

// TestCompareGolden pins the seed-11 policy comparison (EXPERIMENTS.md
// renders its table from this document): -compare -bench-json holds one
// policy/<name>/ group per policy.
func TestCompareGolden(t *testing.T) {
	got := filepath.Join(t.TempDir(), "BENCH_fleet_compare.json")
	if err := run(append([]string{"-compare", "-bench-json", got}, smokeArgs...)); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, got, "testdata/BENCH_fleet_compare_seed11.json")
}
