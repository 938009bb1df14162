package obs

import (
	"testing"
	"time"

	"resilientos/internal/sim"
)

const ms = sim.Time(time.Millisecond)

func TestTimelineFullSpan(t *testing.T) {
	events := []Event{
		{T: 0, Kind: KindRestart, Comp: "eth", V1: 1}, // initial start: no span
		{T: 100 * ms, Kind: KindDefect, Comp: "eth", Aux: "killed", V1: 1},
		{T: 101 * ms, Kind: KindPolicyStart, Comp: "eth"},
		{T: 150 * ms, Kind: KindPolicyExit, Comp: "eth"},
		{T: 150 * ms, Kind: KindRestart, Comp: "eth", V1: 2},
		{T: 270 * ms, Kind: KindReintegrate, Comp: "inet", Aux: "eth", V1: 2},
	}
	spans := Timeline(events)
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1: %v", len(spans), spans)
	}
	s := spans[0]
	if s.Comp != "eth" || s.Defect != "killed" || s.Open || s.GaveUp {
		t.Fatalf("span = %+v", s)
	}
	if s.Start != 100*ms || s.PolicyStart != 101*ms || s.PolicyEnd != 150*ms ||
		s.Restart != 150*ms || s.Reintegrated != 270*ms {
		t.Fatalf("span times = %+v", s)
	}
	if s.Latency() != 170*ms {
		t.Fatalf("latency = %v, want 170ms", s.Latency())
	}
}

func TestTimelineRestartWithoutReintegration(t *testing.T) {
	events := []Event{
		{T: 10 * ms, Kind: KindDefect, Comp: "chr.audio", Aux: "exit/panic", V1: 1},
		{T: 15 * ms, Kind: KindRestart, Comp: "chr.audio", V1: 2},
	}
	spans := Timeline(events)
	if len(spans) != 1 || spans[0].Latency() != 5*ms {
		t.Fatalf("spans = %v", spans)
	}
}

func TestTimelineGiveUpAndOpen(t *testing.T) {
	events := []Event{
		{T: 10 * ms, Kind: KindDefect, Comp: "a", V1: 4},
		{T: 11 * ms, Kind: KindGiveUp, Comp: "a", V1: 4},
		{T: 20 * ms, Kind: KindDefect, Comp: "b", V1: 1},
		// trace ends with b's recovery unfinished
	}
	spans := Timeline(events)
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	if !spans[0].GaveUp || spans[0].Latency() != 0 {
		t.Fatalf("give-up span = %+v", spans[0])
	}
	if !spans[1].Open || spans[1].Latency() != 0 {
		t.Fatalf("open span = %+v", spans[1])
	}
}

func TestTimelineMarkSeparatesRuns(t *testing.T) {
	events := []Event{
		{T: 10 * ms, Kind: KindDefect, Comp: "eth", V1: 1},
		{T: 12 * ms, Kind: KindRestart, Comp: "eth", V1: 2},
		{T: 0, Kind: KindMark, Comp: "run"},
		// Second run: a reintegrate without its own restart must not
		// complete the previous run's span.
		{T: 5 * ms, Kind: KindReintegrate, Comp: "inet", Aux: "eth", V1: 2},
	}
	spans := Timeline(events)
	if len(spans) != 1 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0].Reintegrated != 0 {
		t.Fatalf("span completed across a run boundary: %+v", spans[0])
	}
}

func TestTimelineBackToBackRecoveries(t *testing.T) {
	events := []Event{
		{T: 10 * ms, Kind: KindDefect, Comp: "eth", V1: 1},
		{T: 12 * ms, Kind: KindRestart, Comp: "eth", V1: 2},
		{T: 20 * ms, Kind: KindReintegrate, Comp: "inet", Aux: "eth", V1: 2},
		{T: 30 * ms, Kind: KindDefect, Comp: "eth", V1: 2},
		{T: 33 * ms, Kind: KindRestart, Comp: "eth", V1: 3},
		{T: 45 * ms, Kind: KindReintegrate, Comp: "inet", Aux: "eth", V1: 3},
	}
	spans := Timeline(events)
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0].Latency() != 10*ms || spans[1].Latency() != 15*ms {
		t.Fatalf("latencies = %v, %v", spans[0].Latency(), spans[1].Latency())
	}
}

// A restart no dependent ever rebinds (the instance died again first)
// must not capture the reintegration of the next one: the reintegration
// completes the span whose restart published the endpoint it rebinds.
func TestTimelineUnreintegratedRestartDoesNotShiftPairing(t *testing.T) {
	events := []Event{
		{T: 10 * ms, Kind: KindDefect, Comp: "eth", V1: 1},
		{T: 12 * ms, Kind: KindRestart, Comp: "eth", V1: 2}, // never rebound
		{T: 30 * ms, Kind: KindDefect, Comp: "eth", V1: 2},
		{T: 33 * ms, Kind: KindRestart, Comp: "eth", V1: 3},
		{T: 45 * ms, Kind: KindReintegrate, Comp: "inet", Aux: "eth", V1: 3},
		{T: 46 * ms, Kind: KindReintegrate, Comp: "mfs", Aux: "eth", V1: 3}, // a second dependent
	}
	spans := Timeline(events)
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0].Reintegrated != 0 || spans[0].Latency() != 2*ms {
		t.Fatalf("unrebound span = %+v, want no reintegration and latency 2ms", spans[0])
	}
	if spans[1].Reintegrated != 45*ms || spans[1].Latency() != 15*ms {
		t.Fatalf("rebound span = %+v, want reintegrated at 45ms and latency 15ms", spans[1])
	}
}

func TestRecoveryLatenciesFilter(t *testing.T) {
	spans := []Span{
		{Comp: "a", Start: 1, Restart: 3},
		{Comp: "b", Start: 1, Restart: 2, Reintegrated: 10},
		{Comp: "a", Start: 5, Open: true},
	}
	if got := RecoveryLatencies(spans, "a"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("filtered latencies = %v", got)
	}
	if got := RecoveryLatencies(spans, ""); len(got) != 2 {
		t.Fatalf("all latencies = %v", got)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	var lat []sim.Time
	for i := 1; i <= 100; i++ {
		lat = append(lat, sim.Time(i)*ms)
	}
	s := Summarize(lat)
	if s.Count != 100 || s.Min != 1*ms || s.Max != 100*ms {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 != 50*ms || s.P95 != 95*ms || s.P99 != 99*ms {
		t.Fatalf("percentiles = p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
	// Mean of 1..100 ms is 50.5ms.
	if s.Mean != 50*ms+ms/2 {
		t.Fatalf("mean = %v, want 50.5ms", s.Mean)
	}
	if got := Summarize(nil); got.Count != 0 {
		t.Fatalf("empty summary = %+v", got)
	}
	one := Summarize([]sim.Time{7 * ms})
	if one.P50 != 7*ms || one.P99 != 7*ms || one.Mean != 7*ms {
		t.Fatalf("single summary = %+v", one)
	}
}
