package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/sim"
)

const ms = sim.Time(time.Millisecond)

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

// tracestat runs the command in-process and returns what it printed.
func tracestat(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v) = %v\n%s", args, err, out.String())
	}
	return out.String()
}

// writeFile writes data into the test's temporary directory.
func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// recoveryTrace records one recovery story through the obs API: inet's
// receive calls the driver, the driver dies mid-call, RS restarts it, and
// 120 ms after the crash inet rebinds the new endpoint and retries.
func recoveryTrace(t *testing.T) string {
	var buf bytes.Buffer
	js := obs.NewJSONLSink(&buf)
	rec := obs.NewRecorder(js)
	var now sim.Time
	rec.SetClock(func() sim.Time { return now })
	recv := rec.StartSpan("inet", "tcp.recv", obs.SpanContext{})
	now = ms
	call := rec.StartSpan("inet", "call:eth.rtl8139", recv)
	now = 2 * ms
	rec.OrphanSpan("inet", call, "crash:eth.rtl8139")
	rec.Emit(obs.KindDefect, "eth.rtl8139", "killed", 1, 3)
	now = 3 * ms
	rec.Emit(obs.KindRestart, "eth.rtl8139", "", 77, 1)
	now = 122 * ms
	rec.Emit(obs.KindReintegrate, "inet", "eth.rtl8139", 77, 0)
	retry := rec.StartSpan("inet", "call:eth.rtl8139", recv)
	rec.LinkSpan("inet", retry, call, "retry-of")
	now = 123 * ms
	rec.EndSpan("inet", retry, 0)
	now = 124 * ms
	rec.EndSpan("inet", recv, 0)
	if err := js.Err(); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, "trace.jsonl", buf.Bytes())
}

func requireAll(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// The trace summary: counts, the recovery latency stitched from defect to
// reintegration, the span dump, and the span profile charging inet the
// 120 ms it was dead between the orphaned call and its retry.
func TestTraceSummary(t *testing.T) {
	path := recoveryTrace(t)
	dir := t.TempDir()
	folded, perfetto := filepath.Join(dir, "p.folded"), filepath.Join(dir, "p.json")
	out := tracestat(t, "-spans", "-folded", folded, "-perfetto", perfetto, path)
	requireAll(t, out,
		"10 events, 0s .. 124ms virtual time",
		"  defect                  1\n",
		"  eth.rtl8139             2\n",
		"  inet                    8\n",
		"eth.rtl8139 killed rep=1 start=2ms latency=120ms recovered",
		"eth.rtl8139           1    120.0    120.0    120.0    120.0    120.0",
		"span profile (3 terminated spans, 0 still open)",
		"inet               122000         2000       120000",
		"folded stacks written to "+folded,
		"perfetto trace written to "+perfetto,
	)
	if fb, err := os.ReadFile(folded); err != nil || !strings.Contains(string(fb), "tcp.recv") {
		t.Errorf("folded stacks = %q, %v", fb, err)
	}
	if pb, err := os.ReadFile(perfetto); err != nil || !json.Valid(pb) {
		t.Errorf("perfetto export is not JSON (%v): %.200s", err, pb)
	}

	requireAll(t, tracestat(t, "-comp", "disk.sata", path), "(no completed recoveries in trace)")
	requireAll(t, tracestat(t, "-kinds", "defect,restart", "-top", "0", path), "2 events, 2ms .. 3ms")
	if err := run([]string{"-kinds", "bogus", path}, io.Discard); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("unknown kind: err = %v", err)
	}
	requireAll(t, tracestat(t, writeFile(t, "empty.jsonl", nil)), "empty trace")
	if err := run(nil, io.Discard); err == nil {
		t.Error("no trace file: no error")
	}
}

// The -decisions summary: the class × action matrix, the per-class
// latency, every give-up, and the problems the offline verifier finds.
func TestDecisionsSummary(t *testing.T) {
	const sec = sim.Time(time.Second)
	log := decision.Encode([]decision.Event{
		{T: 1 * sec, Kind: decision.KindDetect, Service: "eth.rtl8139", Defect: 3, Failures: 1, Budget: -1},
		{T: 1 * sec, Kind: decision.KindAction, Service: "eth.rtl8139", Defect: 3, Action: "policy-run"},
		{T: 1 * sec, Kind: decision.KindPolicyStep, Service: "eth.rtl8139", Action: "sleep", Delay: sec},
		{T: 2 * sec, Kind: decision.KindOutcome, Service: "eth.rtl8139", Defect: 3, Action: "recovered", Latency: 1120 * ms},
		{T: 2 * sec, Kind: decision.KindPolicyStep, Service: "eth.rtl8139", Action: "exit"},
		{T: 3 * sec, Kind: decision.KindDetect, Service: "flaky", Defect: 1, Failures: 5},
		{T: 3 * sec, Kind: decision.KindAction, Service: "flaky", Defect: 1, Action: "give-up"},
		{T: 3 * sec, Kind: decision.KindOutcome, Service: "flaky", Defect: 1, Failures: 5, Action: "gave-up", Status: 1},
		{T: 4 * sec, Kind: decision.KindOutcome, Service: "ghost", Action: "recovered"},
	})
	out := tracestat(t, "-decisions", writeFile(t, "decisions.jsonl", log))
	requireAll(t, out,
		"9 decision events, 1s .. 4s virtual time",
		"chosen action by defect class",
		"  exit                      1              0\n",
		"  killed                    0              1\n",
		"  killed            1   1120.0   1120.0",
		"GIVE-UPS: 1 service(s) abandoned",
		"flaky            exit       failures=5",
		"WELL-FORMEDNESS PROBLEMS: 1",
		"terminal decision \"recovered\" for ghost without an open episode",
	)
	requireAll(t, tracestat(t, "-decisions", writeFile(t, "empty.jsonl", nil)), "empty decision log")
	if err := run([]string{"-decisions"}, io.Discard); err == nil {
		t.Error("-decisions without a file: no error")
	}
	if err := run([]string{"-decisions", filepath.Join(t.TempDir(), "missing")}, io.Discard); err == nil {
		t.Error("-decisions on a missing file: no error")
	}
	// Every flag of the trace summary is refused by name, not dropped.
	path := writeFile(t, "decisions.jsonl", log)
	perfetto := filepath.Join(t.TempDir(), "x.json")
	for _, args := range [][]string{
		{"-perfetto", perfetto}, {"-folded", perfetto}, {"-kinds", "bogus"},
		{"-comp", "eth.rtl8139"}, {"-spans"}, {"-top", "3"},
	} {
		err := run(append(append([]string{"-decisions"}, args...), path), io.Discard)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("-decisions %q: err = %v, want one naming %s", args, err, args[0])
		}
	}
	if _, err := os.Stat(perfetto); !os.IsNotExist(err) {
		t.Errorf("-decisions -perfetto wrote %s (stat: %v)", perfetto, err)
	}
	requireAll(t, tracestat(t, "-decisions", "-top", "10", path), "9 decision events")
}
