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
)

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

// The paper's §7.2 run for seeds 1..12, in-process: the report renders,
// every invariant holds, and the bench document is byte-identical to the
// committed golden that CI also compares.
func TestPaperGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_paper.json")
	var out strings.Builder
	err := run([]string{
		"-matrix", "seeds=12,victims=eth.dp8390,faults=random,per-cell=12500",
		"-invariants", "-q", "-bench-json", path,
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"invariants: all held", "recovery latency, random:", "perf baseline written to " + path} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "BENCH_paper_seeds12.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bench document differs from testdata/BENCH_paper_seeds12.json:\n%s", got)
	}
}
