package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/BENCH_throughput_fig8.json")

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

// TestBenchGolden runs CI's trace-artifacts sweep (Fig. 8, 64 MB, kills
// every 1 s and 4 s) and byte-compares the bench document with the
// committed golden.
func TestBenchGolden(t *testing.T) {
	const golden = "testdata/BENCH_throughput_fig8.json"
	path := filepath.Join(t.TempDir(), "BENCH_throughput.json")
	if err := run([]string{"-exp", "fig8", "-size", "64", "-intervals", "1,4", "-bench-json", path}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
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
		t.Errorf("bench doc differs from %s (diff it against the -bench-json output; -update if intentional)", golden)
	}
}
