package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientos/internal/obs"
)

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

// The tour's outcome: the drivers it kills are recovered, the disk read
// finishes intact, and -trace writes a JSONL trace tracestat can read,
// with the recovery events in it.
func TestTourRecoversAndTraces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tour.jsonl")
	var out strings.Builder
	if err := run([]string{"-minutes", "1", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"eth.rtl8139    defect=killed",
		"recovered=true",
		"dd:   67108864 bytes, err=<nil>",
		"trace written to " + path,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "recovered=false") {
		t.Errorf("a kill went unrecovered:\n%s", got)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ParseJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindDefect, obs.KindRestart, obs.KindReintegrate, obs.KindPolicyStart} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %v event (kinds %v)", k, kinds)
		}
	}
	if kinds[obs.KindIPCSend] != 0 || kinds[obs.KindSpanBegin] != 0 {
		t.Errorf("trace carries per-message events: %v", kinds)
	}
}
