package obs

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

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
		s.Emit(&Event{Kind: KindMark, V1: i})
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
	s.Emit(&Event{V1: 1})
	s.Emit(&Event{V1: 2})
	ev := s.Events()
	if len(ev) != 2 || ev[0].V1 != 1 || ev[1].V1 != 2 || s.Dropped() != 0 {
		t.Fatalf("unexpected ring state: %v dropped=%d", ev, s.Dropped())
	}
}

func TestCountSink(t *testing.T) {
	s := NewCountSink()
	s.Emit(&Event{Kind: KindDefect, Comp: "eth"})
	s.Emit(&Event{Kind: KindDefect, Comp: "eth"})
	s.Emit(&Event{Kind: KindRestart, Comp: "disk"})
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
		sink.Emit(&e)
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
		s.Emit(&Event{Kind: KindMark, V1: int64(i)})
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
	s.Emit(&Event{V1: 0})
	checkSeq(t, s.Events(), 1)
}

// Events called twice returns the joined slice itself, not a second join.
func TestSliceSinkEventsTwice(t *testing.T) {
	s := &SliceSink{}
	for i := 0; i < sliceChunk+1; i++ {
		s.Emit(&Event{V1: int64(i)})
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
				s.Emit(&Event{V1: int64(n)})
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

// The record a SliceSink keeps past its first chunk holds nothing the
// garbage collector follows, so its chunks are allocated noscan and a
// long trace costs no marking. A field that is (or contains) a pointer,
// string, slice, map, interface, channel or func would bring the
// scanning back. The size is pinned too: the root hot-path benchmarks
// gate a retained event at it.
func TestSliceSinkRecordHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		default:
			t.Errorf("%s is a %s: the collector would scan every chunk", path, typ.Kind())
		}
	}
	walk("record", reflect.TypeOf(record{}))
	if size := unsafe.Sizeof(record{}); size != 56 {
		t.Errorf("record is %d B, want 56 (the hot-path benchmarks' retainedRecord)", size)
	}
}

// fuzzLabels are the repeated strings of FuzzSliceSinkMatchesSlice.
var fuzzLabels = [...]string{"eth.rtl8139", "inet", "tcp.segment", "crash:exception(MMU)"}

// fuzzString picks an empty, a repeated or a unique (per event i) string.
func fuzzString(prefix string, x byte, i int) string {
	switch x % 4 {
	case 0:
		return ""
	case 3:
		return prefix + strconv.Itoa(i)
	}
	return fuzzLabels[int(x/4)%len(fuzzLabels)]
}

// fuzzEvent builds event i of a program from three bytes: any kind byte,
// empty, repeated and unique Comp and Aux, V1 and V2 of either sign, a
// trace context or none, and a clock *t that may step backwards.
func fuzzEvent(t *sim.Time, i int, a, b, c byte) Event {
	*t += sim.Time(int8(c)) * time.Microsecond
	e := Event{
		T: *t, Kind: Kind(a), Comp: fuzzString("c", b, i), Aux: fuzzString("a", c, i),
		V1: int64(int8(b)) << (c % 57), V2: -int64(i) * int64(int8(a)),
	}
	if (a^b)&1 != 0 {
		e.Trace, e.Span, e.Parent = int64(i), int64(int8(c))*int64(i), -int64(b)
	}
	return e
}

// Instructions of a SliceSink program, 4 bytes each: [op, a, b, c].
const (
	sinkEmit   = iota // one event from a, b, c
	sinkRun           // a<<8 | b events, derived from c and their index
	sinkEvents        // read Events and compare
	sinkOps
)

// maxSinkEvents bounds one program's events: five chunks.
const maxSinkEvents = 5 * sliceChunk

func sinkProg(ins ...[4]byte) []byte {
	var prog []byte
	for _, in := range ins {
		prog = append(prog, in[:]...)
	}
	return prog
}

// sinkRunOf is the instruction emitting n events.
func sinkRunOf(n int, c byte) [4]byte { return [4]byte{sinkRun, byte(n >> 8), byte(n), c} }

// A SliceSink holds what a bare append of every event holds, in order,
// across its plain first chunk and its record chunks, whatever the
// events carry; Events returns the same slice until the next Emit, and
// never writes a slice it returned before.
func FuzzSliceSinkMatchesSlice(f *testing.F) {
	one := [4]byte{sinkEmit, 7, 5, 0xfe}
	events := [4]byte{sinkEvents, 0, 0, 0}
	// Up to the first chunk's last event, across it, and a record chunk
	// filled exactly, read at each step.
	f.Add(sinkProg(sinkRunOf(sliceChunk-1, 3), events, one, events, one, events,
		sinkRunOf(sliceChunk, 9), events, one, events))
	// Two whole chunks past the first and one event more, read once.
	f.Add(sinkProg(sinkRunOf(sliceChunk, 1), sinkRunOf(sliceChunk, 2), sinkRunOf(sliceChunk, 0x81),
		[4]byte{sinkEmit, 0, 0, 0}, events))
	// Every string shape, negative values, a clock stepping backwards
	// and both context arms, in the first chunk and past it.
	mixed := [][4]byte{
		{sinkEmit, 1, 0, 0}, {sinkEmit, 2, 1, 1}, {sinkEmit, 255, 3, 3}, {sinkEmit, 16, 0x85, 0x80},
		{sinkEmit, 17, 0xff, 0x7f}, {sinkEmit, 0, 6, 0x83}, {sinkEmit, 19, 2, 0xf0},
	}
	prog := sinkProg(mixed...)
	prog = append(prog, sinkProg(sinkRunOf(2*sliceChunk-len(mixed), 0x40), events)...)
	prog = append(prog, sinkProg(mixed...)...)
	f.Add(append(prog, sinkProg(events, sinkRunOf(1, 5), events)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var (
			s    SliceSink
			ref  []Event
			prev []Event // the slice the last read returned
			clk  sim.Time
		)
		emit := func(e Event) {
			if len(ref) < maxSinkEvents {
				s.Emit(&e)
				ref = append(ref, e)
			}
		}
		check := func() {
			got := s.Events()
			if len(got) != len(ref) {
				t.Fatalf("Events holds %d events, reference %d", len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("event %d of %d: %+v, reference %+v", i, len(ref), got[i], ref[i])
				}
			}
			if again := s.Events(); len(got) > 0 && &again[0] != &got[0] {
				t.Fatalf("a second Events without an Emit returned another slice")
			}
			for i := range prev {
				if prev[i] != ref[i] {
					t.Fatalf("event %d of a slice returned earlier changed to %+v", i, prev[i])
				}
			}
			prev = got
		}
		for ; len(prog) >= 4; prog = prog[4:] {
			a, b, c := prog[1], prog[2], prog[3]
			switch prog[0] % sinkOps {
			case sinkEmit:
				emit(fuzzEvent(&clk, len(ref), a, b, c))
			case sinkRun:
				for j := 0; j < int(a)<<8|int(b); j++ {
					emit(fuzzEvent(&clk, len(ref), a+byte(j), b^byte(j*7), c+byte(j*13)))
				}
			case sinkEvents:
				check()
			}
		}
		check()
	})
}

// appendSink is the reference for a short trace: one slice, bare append.
type appendSink struct{ events []Event }

func (s *appendSink) Emit(e *Event) { s.events = append(s.events, *e) }

// A short trace grows by plain append, so it allocates what a bare
// append sink does: the same allocations, of the same sizes (the same
// capacity at the end).
func TestSliceSinkSmallTraceAllocs(t *testing.T) {
	const n = 10
	var sink *SliceSink
	var ref *appendSink
	fill := func(s Sink) { // through the interface, as a recorder emits
		for j := 0; j < n; j++ {
			s.Emit(&Event{V1: int64(j)})
		}
	}
	sinkAllocs := testing.AllocsPerRun(100, func() { sink = &SliceSink{}; fill(sink) })
	refAllocs := testing.AllocsPerRun(100, func() { ref = &appendSink{}; fill(ref) })
	if sinkAllocs != refAllocs || cap(sink.Events()) != cap(ref.events) {
		t.Fatalf("10-event trace: %v allocations to cap %d, bare append %v to cap %d",
			sinkAllocs, cap(sink.Events()), refAllocs, cap(ref.events))
	}
}
