package resilientos

import (
	"bytes"
	"testing"
	"time"

	"resilientos/internal/core"
	"resilientos/internal/obs"
	"resilientos/internal/policy"
)

// killDriverTrace runs the kill-driver workload with a full JSONL trace
// attached and returns the raw trace bytes plus the recorder.
func killDriverTrace(t *testing.T, seed int64) ([]byte, *obs.Recorder) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	rec := obs.NewRecorder(sink)
	sys := New(Config{
		Seed:        seed,
		DisableDisk: true,
		DisableChar: true,
		Obs:         rec,
	})
	sys.Run(3 * time.Second)
	sys.ServeFile(80, seed, 8<<20)
	var w WgetResult
	sys.Wget(DriverRTL8139, 80, seed, 8<<20, &w)
	sys.Every(400*time.Millisecond, func() {
		if w.Duration == 0 && w.Err == nil {
			sys.KillDriver(DriverRTL8139)
		}
	})
	sys.Run(2 * time.Minute)
	if sink.Err() != nil {
		t.Fatalf("trace sink error: %v", sink.Err())
	}
	if !w.OK {
		t.Fatalf("wget failed under kills: %d bytes err=%v", w.Bytes, w.Err)
	}
	return buf.Bytes(), rec
}

// TestTraceDeterminism runs the same kill-driver workload twice with full
// tracing (every IPC send/receive, every process spawn/exit) and demands
// byte-identical JSONL traces — the property that makes traces usable as
// golden files and diffs meaningful.
func TestTraceDeterminism(t *testing.T) {
	a, _ := killDriverTrace(t, 42)
	b, _ := killDriverTrace(t, 42)
	if !bytes.Equal(a, b) {
		al := bytes.Split(a, []byte("\n"))
		bl := bytes.Split(b, []byte("\n"))
		n := len(al)
		if len(bl) < n {
			n = len(bl)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(al[i], bl[i]) {
				t.Fatalf("traces diverge at line %d:\nrun1: %s\nrun2: %s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("trace lengths differ: %d vs %d lines", len(al), len(bl))
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
}

// TestTraceRecoveryTimeline checks the end-to-end pipeline: trace a run
// with driver kills, parse the JSONL back, stitch the recovery timeline,
// and verify the spans describe real recoveries (defect -> restart ->
// reintegration, with the NIC's reinit delay in the latency).
func TestTraceRecoveryTimeline(t *testing.T) {
	raw, rec := killDriverTrace(t, 7)
	events, err := obs.ParseJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	spans := obs.Timeline(events)
	lat := obs.RecoveryLatencies(spans, DriverRTL8139)
	if len(lat) == 0 {
		t.Fatal("no completed recovery spans in trace")
	}
	sum := obs.Summarize(lat)
	// The NIC reset alone takes over 100ms of virtual time, so every
	// defect-to-reintegration latency must exceed it.
	if sum.Min < 100*time.Millisecond {
		t.Errorf("min recovery latency %v is below the NIC reinit cost", sum.Min)
	}
	if sum.P95 < sum.P50 || sum.Max < sum.P95 {
		t.Errorf("percentiles not monotonic: %+v", sum)
	}
	// The metrics registry counted the same restarts the trace shows.
	restarts := rec.Metrics().Counter("restarts." + DriverRTL8139).Value()
	if restarts != int64(len(lat)) {
		t.Errorf("restart counter %d, %d recovery spans in the trace", restarts, len(lat))
	}

	// A masked trace of the whole system: with the IPC and span kinds
	// off, killing one driver of each class under the Fig. 2 script on
	// the network drivers still streams the defects, the script's start,
	// the restarts and the reintegrations, and every kill recovers.
	t.Run("masked_system", testMaskedSystemTrace)
}

func testMaskedSystemTrace(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	masked := obs.NewRecorder(sink)
	masked.Disable(append([]obs.Kind{obs.KindIPCSend, obs.KindIPCRecv}, obs.SpanKinds...)...)
	sys := New(Config{Seed: 7, NetPolicy: policy.MustParse(policy.Fig2), Obs: masked})
	defer sys.Close()
	sys.Run(3 * time.Second)
	victims := []string{DriverRTL8139, DriverSATA, DriverPrinter, DriverAudio}
	for _, d := range victims {
		sys.KillDriver(d)
	}
	sys.Run(5 * time.Second)
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	if rs := sys.RS.Events(); len(rs) != len(victims) {
		t.Errorf("%d recoveries for %d kills: %v", len(rs), len(victims), rs)
	}
	for _, e := range sys.RS.Events() {
		if e.Defect != core.DefectKilled || !e.Recovered {
			t.Errorf("kill of %s not recovered: %+v", e.Label, e)
		}
	}
	events, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindDefect, obs.KindRestart, obs.KindReintegrate, obs.KindPolicyStart} {
		if kinds[k] == 0 {
			t.Errorf("masked trace has no %v event (kinds %v)", k, kinds)
		}
	}
	if kinds[obs.KindIPCSend] != 0 || kinds[obs.KindSpanBegin] != 0 {
		t.Errorf("masked trace carries IPC or span events: %v", kinds)
	}
}
