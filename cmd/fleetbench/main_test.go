package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden campaign outputs in testdata/")

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

func TestBadFlags(t *testing.T) {
	badSpec := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badSpec, []byte(`{"horizon":"1s","classes":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown policy", []string{"-policy", "bogus", "-horizon", "1s"}, "policy"},
		{"unknown storm", []string{"-storm", "hail:everything"}, "storm"},
		{"storm fault mode", []string{"-storm", "poisson:eth.rtl8139,mode=inject"}, `unknown storm key "mode"`},
		{"unknown flag", []string{"-wrokload", "x.json"}, "flag"},
		{"replay is not a flag", []string{"-replay", "x"}, "flag provided but not defined: -replay"},
		{"record is not a flag", []string{"-record", "x"}, "flag provided but not defined: -record"},
		{"mistyped storm victim", []string{"-storm", "correlated:eth.bogus,every=300ms", "-horizon", "2s"}, `-storm correlated:eth.bogus`},
		{"mistyped storm victim under compare", []string{"-compare", "-storm", "poisson:eth.bogus", "-horizon", "1s"}, `-storm poisson:eth.bogus`},
		{"storm interval below a millisecond", []string{"-storm", "correlated:eth.rtl8139,every=1ns", "-horizon", "1s"}, "-storm correlated:eth.rtl8139,every=1ns"},
		{"nodes zero", []string{"-nodes", "0", "-horizon", "1s"}, "-nodes 0"},
		{"nodes negative", []string{"-nodes", "-3", "-horizon", "1s"}, "-nodes -3"},
		{"window zero", []string{"-window", "0s", "-horizon", "1s"}, "-window 0s"},
		{"window negative", []string{"-window", "-1s", "-horizon", "1s"}, "-window -1s"},
		{"rps NaN", []string{"-rps", "NaN", "-horizon", "1s"}, "-rps NaN"},
		{"rps +Inf", []string{"-rps", "+Inf", "-horizon", "1s"}, "-rps +Inf"},
		{"rps zero", []string{"-rps", "0", "-horizon", "1s"}, "-rps 0"},
		{"rps negative", []string{"-rps", "-5", "-horizon", "1s"}, "-rps -5"},
		{"rps below one request per horizon", []string{"-rps", "1e-12", "-horizon", "1s"}, "no arrivals"},
		{"rps above the arrival cap", []string{"-rps", "1e9", "-horizon", "1h"}, "-rps 1e+09 over -horizon 1h0m0s: workload: spec \"classic\": up to 3600000000000 arrivals over its 1h0m0s horizon, more than the cap of 10000000"},
		{"compare plus csv", []string{"-compare", "-csv", "x.csv"}, "cannot take -csv"},
		{"compare plus json", []string{"-compare", "-json", "x.json"}, "cannot take -json"},
		{"compare plus policy", []string{"-compare", "-policy", "bogus"}, "cannot take -policy"},
		{"missing spec file", []string{"-workload", filepath.Join(t.TempDir(), "absent.json")}, "no such file"},
		{"invalid spec", []string{"-workload", badSpec}, "at least one class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
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
// number of CPUs (GOMAXPROCS, which is the worker count) varies.
func goldenArgs(dir string) []string {
	return []string{
		"-nodes", "3", "-seed", "11",
		"-storm", "correlated:eth.rtl8139,k=1,every=1500ms",
		"-window", "200ms",
		"-workload", "testdata/workload_seed11.json",
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

// TestWorkloadGolden is the pinned-campaign regression test: the seed-11
// mixed-class spec, run on 1, 2 and 8 CPUs, reproduces the checked-in
// window series and bench document byte for byte. The spec and its seed
// pin the arrivals (internal/workload's TestSeed11ArrivalsPinned holds
// their digest). Run with -update to regenerate the goldens after an
// intentional change.
func TestWorkloadGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		if err := run(goldenArgs(dir), io.Discard); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		checkGolden(t, filepath.Join(dir, "fleet.csv"), "testdata/fleet_seed11.csv")
		checkGolden(t, filepath.Join(dir, "BENCH_fleet.json"), "testdata/BENCH_fleet_seed11.json")
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
// and reruns it on another number of CPUs: every output is the same.
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
	args := append([]string{"-horizon", "6s", "-policy", "failure-aware"}, smokeArgs...)
	if err := run(append(args, outputs(dir)...), io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, filepath.Join(dir, "BENCH_fleet.json"), "testdata/BENCH_fleet_storm_seed11.json")

	runtime.GOMAXPROCS(4)
	if err := run(append(args, outputs(rdir)...), io.Discard); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	for _, name := range []string{"fleet.csv", "fleet.json", "BENCH_fleet.json"} {
		want := readFile(t, filepath.Join(dir, name))
		if len(want) == 0 {
			t.Fatalf("%s not written", name)
		}
		if !bytes.Equal(readFile(t, filepath.Join(rdir, name)), want) {
			t.Errorf("GOMAXPROCS=4: %s differs from the GOMAXPROCS=1 run's", name)
		}
	}
}

// TestCompareGolden pins the seed-11 policy comparison (EXPERIMENTS.md
// renders its table from this document): -compare -bench-json holds one
// policy/<name>/ group per policy.
func TestCompareGolden(t *testing.T) {
	got := filepath.Join(t.TempDir(), "BENCH_fleet_compare.json")
	if err := run(append([]string{"-compare", "-bench-json", got}, smokeArgs...), io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	checkGolden(t, got, "testdata/BENCH_fleet_compare_seed11.json")
}
