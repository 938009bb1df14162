package obs

import (
	"math/rand"
	"slices"
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

// summarizeBySort is Summarize as it was before selection: nearest-rank
// percentiles read off a sorted copy.
func summarizeBySort(lat []sim.Time) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	var sum sim.Time
	for _, v := range sorted {
		sum += v
	}
	pick := func(q float64) sim.Time {
		rank := int(q*float64(len(sorted)) + 0.9999999)
		return sorted[min(max(rank, 1), len(sorted))-1]
	}
	return LatencySummary{
		Count: len(sorted), Mean: sum / sim.Time(len(sorted)),
		P50: pick(0.50), P95: pick(0.95), P99: pick(0.99),
		Min: sorted[0], Max: sorted[len(sorted)-1],
	}
}

// TestSummarizeMatchesSort holds the selected percentiles to the sorted
// reference for every n from 0 to 2,000, over inputs with distinct
// values, few distinct values, a single value, and ascending, descending
// and organ-pipe orders (a median-of-three pivot's bad cases). Summarize
// must leave its argument as it was.
func TestSummarizeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		at   func(i, n int) sim.Time
	}{
		{"random", func(i, n int) sim.Time { return sim.Time(rng.Int63n(1 << 40)) }},
		{"duplicates", func(i, n int) sim.Time { return sim.Time(rng.Intn(4)) * ms }},
		{"single", func(i, n int) sim.Time { return 7 * ms }},
		{"ascending", func(i, n int) sim.Time { return sim.Time(i) }},
		{"descending", func(i, n int) sim.Time { return sim.Time(n - i) }},
		{"organ pipe", func(i, n int) sim.Time { return sim.Time(min(i, n-i)) }},
	}
	for _, shape := range shapes {
		for n := 0; n <= 2000; n++ {
			lat := make([]sim.Time, n)
			for i := range lat {
				lat[i] = shape.at(i, n)
			}
			before := slices.Clone(lat)
			got, want := Summarize(lat), summarizeBySort(lat)
			if got != want {
				t.Fatalf("%s n=%d: %+v, sorted reference %+v", shape.name, n, got, want)
			}
			if !slices.Equal(lat, before) {
				t.Fatalf("%s n=%d: Summarize reordered its argument", shape.name, n)
			}
			if inPlace := SummarizeInPlace(lat); inPlace != want {
				t.Fatalf("%s n=%d: in place %+v, sorted reference %+v", shape.name, n, inPlace, want)
			}
		}
	}
}

// timelineReference is Timeline as it was before the Stitcher: one batch
// pass over the whole trace.
func timelineReference(events []Event) []Span {
	type instance struct {
		comp string
		ep   int64
	}
	var out []Span
	open := make(map[string]*Span)
	closed := make(map[instance]int)
	flush := func() {
		comps := make([]string, 0, len(open))
		for c := range open {
			comps = append(comps, c)
		}
		slices.Sort(comps)
		for _, c := range comps {
			sp := open[c]
			sp.Open = true
			out = append(out, *sp)
		}
		open = make(map[string]*Span)
		closed = make(map[instance]int)
	}
	for _, e := range events {
		switch e.Kind {
		case KindMark:
			flush()
		case KindDefect:
			if sp, ok := open[e.Comp]; ok {
				sp.Open = true
				out = append(out, *sp)
			}
			open[e.Comp] = &Span{Comp: e.Comp, Defect: e.Aux, Repetition: e.V1, Start: e.T}
		case KindPolicyStart:
			if sp, ok := open[e.Comp]; ok {
				sp.PolicyStart = e.T
			}
		case KindPolicyExit:
			if sp, ok := open[e.Comp]; ok {
				sp.PolicyEnd = e.T
			}
		case KindRestart:
			sp, ok := open[e.Comp]
			if !ok {
				continue
			}
			sp.Restart = e.T
			delete(open, e.Comp)
			out = append(out, *sp)
			closed[instance{e.Comp, e.V1}] = len(out) - 1
		case KindReintegrate:
			key := instance{e.Aux, e.V1}
			if i, ok := closed[key]; ok {
				out[i].Reintegrated = e.T
				delete(closed, key)
			}
		case KindGiveUp:
			if sp, ok := open[e.Comp]; ok {
				sp.GaveUp = true
				delete(open, e.Comp)
				out = append(out, *sp)
			}
		}
	}
	flush()
	return out
}

// The fuzz program's operations, one per byte pair (op, arg).
const (
	stitchMark = iota
	stitchDefect
	stitchPolicyStart
	stitchPolicyExit
	stitchRestart
	stitchReintegrate
	stitchGiveUp
	stitchOther // a kind the stitcher ignores, naming a driver all the same
	stitchSpans // read Spans between emits
	stitchOps

	maxStitchOps = 512 // each read re-runs the reference over the prefix
)

// A Stitcher fed a stream event by event holds what the batch reference
// makes of the same stream, whenever Spans is read, and reading it
// changes nothing: over one to four components, the seven recovery kinds,
// run marks, kinds it must ignore, and reintegrations that name a stale
// endpoint of the driver as well as the fresh one.
func FuzzStitcherMatchesTimeline(f *testing.F) {
	prog := func(ops ...byte) []byte { return ops }
	// A full span with its script, a rebind, a second run after a mark
	// that rebinds the first run's endpoint.
	f.Add(prog(1, stitchDefect, 0, stitchPolicyStart, 0, stitchPolicyExit, 0, stitchRestart, 0,
		stitchReintegrate, 0, stitchSpans, 0, stitchMark, 0, stitchReintegrate, 0))
	// Two drivers: a restart nobody rebinds before the next defect, a
	// stale rebind, a give-up, a span left open across a mark.
	f.Add(prog(2, stitchDefect, 0, stitchRestart, 0, stitchDefect, 1, stitchDefect, 0,
		stitchRestart, 0, stitchReintegrate, 4, stitchSpans, 0, stitchReintegrate, 0,
		stitchGiveUp, 1, stitchDefect, 1, stitchOther, 1, stitchMark, 0, stitchSpans, 0))
	// Four drivers open at once, read, a second defect interrupting one.
	f.Add(prog(4, stitchDefect, 3, stitchDefect, 1, stitchDefect, 2, stitchDefect, 0,
		stitchSpans, 0, stitchDefect, 2, stitchRestart, 1, stitchOther, 5, stitchSpans, 0))
	f.Add([]byte{})
	comps := []string{"eth.rtl8139", "eth.dp8390", "disk.sata", "chr.audio"}
	servers := []string{"inet", "mfs"}
	others := []Kind{KindHeartbeat, KindProcExit, KindPublish, KindProcSpawn, KindSpanBegin}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		n := 1 + int(prog[0])%len(comps)
		var (
			events []Event
			clk    sim.Time
			ep     = make([]int64, n) // each driver's last published endpoint
		)
		s := NewStitcher()
		check := func() {
			got, want := s.Spans(), timelineReference(events)
			if !slices.Equal(got, want) {
				t.Fatalf("after %d events:\nstitcher  %+v\nreference %+v", len(events), got, want)
			}
		}
		prog = prog[1:min(len(prog), 1+2*maxStitchOps)]
		for ; len(prog) >= 2; prog = prog[2:] {
			op, arg := prog[0]%stitchOps, prog[1]
			i := int(arg) % n
			clk += sim.Time(arg>>4) * ms
			e := Event{T: clk, Comp: comps[i]}
			switch op {
			case stitchMark:
				e.Kind, e.Comp, e.Aux = KindMark, "run", "next"
			case stitchDefect:
				e.Kind, e.Aux, e.V1 = KindDefect, "killed", int64(arg>>2)
			case stitchPolicyStart:
				e.Kind = KindPolicyStart
			case stitchPolicyExit:
				e.Kind = KindPolicyExit
			case stitchRestart:
				ep[i] += 1 + int64(arg>>6)
				e.Kind, e.V1 = KindRestart, ep[i]
			case stitchReintegrate:
				// The fresh endpoint, or one up to three restarts stale.
				e.Kind, e.Comp, e.Aux, e.V1 = KindReintegrate, servers[arg>>7], comps[i], ep[i]-int64(arg>>2&3)
			case stitchGiveUp:
				e.Kind = KindGiveUp
			case stitchOther:
				e.Kind, e.Aux, e.V1 = others[int(arg>>2)%len(others)], comps[int(arg>>4)%n], ep[i]
			case stitchSpans:
				check()
				continue
			}
			events = append(events, e)
			s.Emit(&e)
		}
		check()
		if got := Timeline(events); !slices.Equal(got, timelineReference(events)) {
			t.Fatalf("Timeline %+v, reference %+v", got, timelineReference(events))
		}
	})
}
