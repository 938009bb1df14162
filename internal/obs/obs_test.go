package obs

import (
	"bytes"
	"strings"
	"testing"

	"resilientos/internal/sim"
)

func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	// Every method must be a no-op, never a panic.
	r.SetClock(func() sim.Time { return 0 })
	r.AddSink(&SliceSink{})
	r.Disable(KindIPCSend)
	r.Emit(KindDefect, "eth", "exit/panic", 1, 0)
	r.ObserveRecovery("eth")
	if r.On(KindDefect) {
		t.Fatal("nil recorder reports kinds enabled")
	}
	if r.Metrics() != nil {
		t.Fatal("nil recorder returned a registry")
	}
	// Chained nil-safe metric calls.
	r.Metrics().Counter("x").Add(1)
	if got := r.Metrics().Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
}

func TestRecorderFiltering(t *testing.T) {
	s := &SliceSink{}
	r := NewRecorder(s)
	r.Disable(KindIPCSend, KindIPCRecv)
	r.Emit(KindIPCSend, "a", "b", 0, 0)
	r.Emit(KindDefect, "eth", "exit/panic", 1, 0)
	if r.On(KindIPCSend) || !r.On(KindDefect) {
		t.Fatal("On does not reflect the mask")
	}
	if len(s.Events()) != 1 || s.Events()[0].Kind != KindDefect {
		t.Fatalf("filtering failed: %v", s.Events())
	}
}

func TestRecorderClockStamps(t *testing.T) {
	s := &SliceSink{}
	r := NewRecorder(s)
	var now sim.Time = 42
	r.SetClock(func() sim.Time { return now })
	r.Emit(KindMark, "", "", 0, 0)
	now = 99
	r.Emit(KindMark, "", "", 0, 0)
	ev := s.Events()
	if ev[0].T != 42 || ev[1].T != 99 {
		t.Fatalf("timestamps = %v, %v", ev[0].T, ev[1].T)
	}
}

func TestRingSinkOverflowDropsOldest(t *testing.T) {
	s := NewRingSink(3)
	for i := int64(1); i <= 5; i++ {
		s.Emit(Event{Kind: KindMark, V1: i})
	}
	ev := s.Events()
	if len(ev) != 3 {
		t.Fatalf("len = %d, want 3", len(ev))
	}
	// Oldest (1, 2) dropped; 3, 4, 5 retained oldest-first.
	for i, want := range []int64{3, 4, 5} {
		if ev[i].V1 != want {
			t.Fatalf("event %d = %d, want %d", i, ev[i].V1, want)
		}
	}
	if s.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", s.Dropped())
	}
}

func TestRingSinkUnderCapacity(t *testing.T) {
	s := NewRingSink(8)
	s.Emit(Event{V1: 1})
	s.Emit(Event{V1: 2})
	ev := s.Events()
	if len(ev) != 2 || ev[0].V1 != 1 || ev[1].V1 != 2 || s.Dropped() != 0 {
		t.Fatalf("unexpected ring state: %v dropped=%d", ev, s.Dropped())
	}
}

func TestCountSink(t *testing.T) {
	s := NewCountSink()
	s.Emit(Event{Kind: KindDefect, Comp: "eth"})
	s.Emit(Event{Kind: KindDefect, Comp: "eth"})
	s.Emit(Event{Kind: KindRestart, Comp: "disk"})
	if s.Total != 3 || s.ByKind[KindDefect] != 2 || s.ByComp["disk"] != 1 {
		t.Fatalf("counts: total=%d kinds=%v comps=%v", s.Total, s.ByKind, s.ByComp)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{T: 0, Kind: KindMark, Comp: "run", Aux: "fig7"},
		{T: 1500000, Kind: KindDefect, Comp: "eth.rtl8139", Aux: "killed", V1: 1, V2: 3},
		{T: 2000000, Kind: KindRestart, Comp: "eth.rtl8139", Aux: `v"2"`, V1: 258, V2: 1},
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
}

func TestJSONLEncodingIsCanonical(t *testing.T) {
	e := Event{T: 7, Kind: KindIPCSend, Comp: "inet", Aux: "eth.rtl8139", V1: 300, V2: 1}
	line := string(AppendJSONL(nil, e))
	want := `{"t":7,"kind":"ipc.send","comp":"inet","aux":"eth.rtl8139","v1":300,"v2":1}` + "\n"
	if line != want {
		t.Fatalf("encoding:\n got %q\nwant %q", line, want)
	}
	// Re-encoding a parsed trace must be byte-identical (field order fixed).
	parsed, err := ParseJSONL(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(AppendJSONL(nil, parsed[0])); got != line {
		t.Fatalf("re-encode mismatch:\n got %q\nwant %q", got, line)
	}
}

func TestParseJSONLRejectsUnknownKind(t *testing.T) {
	_, err := ParseJSONL(strings.NewReader(`{"t":0,"kind":"nope","comp":"","aux":"","v1":0,"v2":0}`))
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Fatalf("kind %d (%s) does not round-trip", k, k)
		}
	}
}

func TestAttachSim(t *testing.T) {
	env := sim.NewEnv(1)
	s := &SliceSink{}
	r := NewRecorder(s)
	r.SetClock(env.Now)
	AttachSim(env, r)
	p := env.Spawn("eth.rtl8139/2", func(p *sim.Proc) {})
	env.Run(0)
	_ = p
	ev := s.Events()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want spawn+exit", len(ev))
	}
	if ev[0].Kind != KindProcSpawn || ev[0].Comp != "eth.rtl8139" || ev[0].Aux != "eth.rtl8139/2" {
		t.Fatalf("spawn event = %+v", ev[0])
	}
	if ev[1].Kind != KindProcExit {
		t.Fatalf("exit event = %+v", ev[1])
	}
}

// Overflow under sustained high rate: a flight-recorder ring fed
// through the Recorder at trace rates must account for every event —
// kept + dropped == emitted — and keep exactly the newest window in
// emission order.
func TestRingSinkOverflowUnderHighRate(t *testing.T) {
	const capacity = 256
	const emitted = 10_000
	ring, count := NewRingSink(capacity), NewCountSink()
	rec := NewRecorder(ring, count)
	var now sim.Time
	rec.SetClock(func() sim.Time { return now })
	for i := 0; i < emitted; i++ {
		now = sim.Time(i)
		rec.Emit(KindIPCSend, "eth.rtl8139", "burst", int64(i), 0)
	}
	if count.Total != emitted {
		t.Fatalf("recorder emitted %d, want %d", count.Total, emitted)
	}
	if ring.Dropped() != emitted-capacity {
		t.Fatalf("dropped %d, want %d", ring.Dropped(), emitted-capacity)
	}
	evs := ring.Events()
	if len(evs) != capacity {
		t.Fatalf("kept %d events, want %d", len(evs), capacity)
	}
	for j, e := range evs {
		if e.V1 != int64(emitted-capacity+j) {
			t.Fatalf("window broken at %d: got V1=%d, want %d", j, e.V1, emitted-capacity+j)
		}
	}
}

// checkSeq fails unless evs are V1 = 0, 1, …, n-1 in order.
func checkSeq(t *testing.T, evs []Event, n int) {
	t.Helper()
	if len(evs) != n {
		t.Fatalf("kept %d events, want %d", len(evs), n)
	}
	for i, e := range evs {
		if e.V1 != int64(i) {
			t.Fatalf("event %d has V1=%d: emission order broken", i, e.V1)
		}
	}
}

// A trace crossing two chunk boundaries comes back whole and in emission
// order, as one exactly sized slice.
func TestSliceSinkAcrossChunks(t *testing.T) {
	const n = 2*sliceChunk + 17
	s := &SliceSink{}
	for i := 0; i < n; i++ {
		s.Emit(Event{Kind: KindMark, V1: int64(i)})
	}
	evs := s.Events()
	checkSeq(t, evs, n)
	if cap(evs) != n {
		t.Fatalf("joined slice has cap %d, want exactly %d", cap(evs), n)
	}
}

func TestSliceSinkEmpty(t *testing.T) {
	var s SliceSink
	if evs := s.Events(); len(evs) != 0 {
		t.Fatalf("zero sink holds %d events", len(evs))
	}
	s.Emit(Event{V1: 0})
	checkSeq(t, s.Events(), 1)
}

// Events called twice returns the joined slice itself, not a second join.
func TestSliceSinkEventsTwice(t *testing.T) {
	s := &SliceSink{}
	for i := 0; i < sliceChunk+1; i++ {
		s.Emit(Event{V1: int64(i)})
	}
	a, b := s.Events(), s.Events()
	checkSeq(t, b, sliceChunk+1)
	if &a[0] != &b[0] || len(a) != len(b) {
		t.Fatal("second Events call joined again")
	}
}

// Emitting after Events keeps every event, and the slice returned before
// is left as it was.
func TestSliceSinkEmitAfterEvents(t *testing.T) {
	for _, first := range []int{10, sliceChunk, sliceChunk + 5, 3 * sliceChunk} {
		s := &SliceSink{}
		n := 0
		emit := func(k int) {
			for ; k > 0; k-- {
				s.Emit(Event{V1: int64(n)})
				n++
			}
		}
		emit(first)
		before := s.Events()
		checkSeq(t, before, first)
		emit(sliceChunk + 3)
		checkSeq(t, s.Events(), n)
		checkSeq(t, before, first)
	}
}

// appendSink is the reference for a short trace: one slice, bare append.
type appendSink struct{ events []Event }

func (s *appendSink) Emit(e Event) { s.events = append(s.events, e) }

// A short trace grows by plain append, so it allocates what a bare
// append sink does: the same allocations, of the same sizes (the same
// capacity at the end). Campaign cells keep about 35 events each.
func TestSliceSinkSmallTraceAllocs(t *testing.T) {
	const n = 10
	var sink *SliceSink
	var ref *appendSink
	fill := func(s Sink) { // through the interface, as a recorder emits
		for j := 0; j < n; j++ {
			s.Emit(Event{V1: int64(j)})
		}
	}
	sinkAllocs := testing.AllocsPerRun(100, func() { sink = &SliceSink{}; fill(sink) })
	refAllocs := testing.AllocsPerRun(100, func() { ref = &appendSink{}; fill(ref) })
	if sinkAllocs != refAllocs || cap(sink.Events()) != cap(ref.events) {
		t.Fatalf("10-event trace: %v allocations to cap %d, bare append %v to cap %d",
			sinkAllocs, cap(sink.Events()), refAllocs, cap(ref.events))
	}
}
