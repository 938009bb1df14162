package resilientos

import (
	"bytes"
	"testing"
	"time"

	"resilientos/internal/obs"
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
}
