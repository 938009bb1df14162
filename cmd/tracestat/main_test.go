package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resilientos/internal/obs"
)

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

// capture runs tracestat with stdout redirected and returns its output.
func capture(t *testing.T, args []string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run(%v) = %v\n%s", args, runErr, buf.String())
	}
	return buf.String()
}

// A trace carrying ring-sink drop marks — leading or mid-stream — is
// reported as truncated with the summed drop count, and the marks are
// stripped from the event tables.
func TestDropMarksSurfaced(t *testing.T) {
	var raw []byte
	raw = obs.AppendJSONL(raw, obs.Event{
		Kind: obs.KindMark, Comp: obs.DropMarkComp, Aux: obs.DropMarkAux, V1: 40})
	raw = obs.AppendJSONL(raw, obs.Event{T: 10, Kind: obs.KindDefect, Comp: "eth.rtl8139", Aux: "exit/panic"})
	// A second mark mid-stream (concatenated captures).
	raw = obs.AppendJSONL(raw, obs.Event{T: 20, Kind: obs.KindMark, Comp: obs.DropMarkComp, Aux: obs.DropMarkAux, V1: 2})
	raw = obs.AppendJSONL(raw, obs.Event{T: 30, Kind: obs.KindRestart, Comp: "eth.rtl8139"})

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, []string{path})
	if !strings.Contains(out, "trace truncated") {
		t.Fatalf("no truncation warning:\n%s", out)
	}
	if !strings.Contains(out, "dropped 42 event(s)") {
		t.Fatalf("drop counts not summed:\n%s", out)
	}
	if !strings.Contains(out, "2 kept") {
		t.Fatalf("kept count wrong:\n%s", out)
	}
	if strings.Contains(out, "mark") {
		t.Fatalf("drop marks leaked into the event tables:\n%s", out)
	}
}
