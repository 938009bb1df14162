package timeseries

import (
	"bytes"
	"strings"
	"testing"

	"resilientos/internal/obs"
	"resilientos/internal/sim"
)

const sec = sim.Time(1e9)

// harness wires a sampler into a fresh env+recorder pair.
func harness(t *testing.T, window sim.Time) (*sim.Env, *obs.Recorder, *Sampler) {
	t.Helper()
	env := sim.NewEnv(1)
	rec := obs.NewRecorder()
	rec.SetClock(env.Now)
	s := New(Config{Window: window, Registry: rec.Metrics()})
	s.Attach(env)
	rec.AddSink(s)
	return env, rec, s
}

func TestSamplerWindowsAndCounters(t *testing.T) {
	env, rec, s := harness(t, sec)
	c := rec.Metrics().Counter("test.bytes")
	// 100 bytes at 0.5s, 200 at 1.5s, 300 at 2.5s.
	for i, n := range []int64{100, 200, 300} {
		n := n
		env.Schedule(sim.Time(i)*sec+sec/2, func() {
			c.Add(n)
			rec.Emit(obs.KindDefect, "eth", "crash", 0, 0)
		})
	}
	env.Run(3*sec + sec/2) // stops at 3.5s
	s.Finish()

	segs := s.Segments()
	if err := Validate(segs, sec); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	ws := segs[0].Windows
	if len(ws) != 4 {
		t.Fatalf("got %d windows, want 4 (3 full + partial)", len(ws))
	}
	for i, want := range []int64{100, 200, 300, 0} {
		if got := ws[i].Counter("test.bytes"); got != want {
			t.Errorf("window %d: test.bytes delta = %d, want %d", i, got, want)
		}
	}
	// Partial final window: [3s, 3.5s), not full.
	last := ws[3]
	if last.Full || last.Start != 3*sec || last.End != 3*sec+sec/2 {
		t.Errorf("final window = [%v,%v) full=%v, want partial [3s,3.5s)", last.Start, last.End, last.Full)
	}
	// Defect annotations landed one per window.
	for i := 0; i < 3; i++ {
		if n := len(ws[i].Annotations); n != 1 {
			t.Errorf("window %d: %d annotations, want 1", i, n)
		}
		if n := ws[i].KindN(obs.KindDefect); n != 1 {
			t.Errorf("window %d: defect count %d, want 1", i, n)
		}
	}
}

// An event stamped exactly on a window boundary belongs to the next
// window, regardless of whether it executes before or after the rollover
// tick at the same virtual time.
func TestSamplerBoundaryEvent(t *testing.T) {
	env, rec, s := harness(t, sec)
	// Scheduled at exactly 1s — same timestamp as the first rollover.
	// Event seq order makes this run before the tick (it was scheduled
	// later but Schedule at equal time orders by seq; to be robust the
	// sampler handles both orders via the overflow buffer).
	env.Schedule(sec, func() {
		rec.Emit(obs.KindRestart, "eth", "", 0, 0)
	})
	env.Run(2 * sec)
	s.Finish()

	ws := s.Segments()[0].Windows
	if err := Validate(s.Segments(), sec); err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if n := ws[0].KindN(obs.KindRestart); n != 0 {
		t.Errorf("window [0,1s) holds the boundary event (count %d); half-open windows put it in the next", n)
	}
	if n := ws[1].KindN(obs.KindRestart); n != 1 {
		t.Errorf("window [1s,2s): restart count %d, want 1", n)
	}
}

// A zero-length run (Finish immediately after Attach, no virtual time
// elapsed) yields no windows and no violation.
func TestSamplerZeroLengthRun(t *testing.T) {
	_, _, s := harness(t, sec)
	s.Finish()
	if segs := s.Segments(); len(segs) != 0 {
		t.Fatalf("zero-length run: got %d segments, want 0", len(segs))
	}
	if err := Validate(s.Segments(), sec); err != nil {
		t.Fatal(err)
	}
	// Finish twice is a no-op.
	s.Finish()
}

// Marks close the current (possibly partial) window, re-baseline
// counters, and start a new segment whose windows are aligned to the
// mark's timestamp — including a mark landing exactly on a boundary.
func TestSamplerMarkSegmentsRun(t *testing.T) {
	env, rec, s := harness(t, sec)
	c := rec.Metrics().Counter("test.bytes")
	env.Schedule(sec/2, func() { c.Add(10) })
	// Mark mid-window at 1.5s: closes partial [1s,1.5s), segment "two"
	// runs [1.5s, ...) with windows aligned to 1.5s.
	env.Schedule(3*sec/2, func() { rec.Emit(obs.KindMark, "exp", "two", 0, 0) })
	env.Schedule(2*sec, func() { c.Add(20) })
	// Second mark exactly on the new segment's first boundary (2.5s).
	env.Schedule(5*sec/2, func() { rec.Emit(obs.KindMark, "exp", "three", 0, 0) })
	env.Schedule(3*sec, func() { c.Add(30) })
	env.Run(7 * sec / 2)
	s.Finish()

	segs := s.Segments()
	if err := Validate(segs, sec); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	if segs[0].Label != "" || segs[1].Label != "two" || segs[2].Label != "three" {
		t.Fatalf("labels = %q,%q,%q", segs[0].Label, segs[1].Label, segs[2].Label)
	}
	// Segment 1: [0,1s) full with the 10-byte delta, [1s,1.5s) partial.
	if n := len(segs[0].Windows); n != 2 {
		t.Fatalf("segment 0: %d windows, want 2", n)
	}
	if got := segs[0].Windows[0].Counter("test.bytes"); got != 10 {
		t.Errorf("segment 0 window 0: delta %d, want 10", got)
	}
	if w := segs[0].Windows[1]; w.Full || w.End != 3*sec/2 {
		t.Errorf("segment 0 window 1 = [%v,%v) full=%v, want partial ending at mark", w.Start, w.End, w.Full)
	}
	// Segment 2: [1.5s,2.5s) full, holds the 20-byte delta (re-baselined
	// at the mark, so the earlier 10 bytes are not re-counted).
	if n := len(segs[1].Windows); n != 1 {
		t.Fatalf("segment 1: %d windows, want 1", n)
	}
	if w := segs[1].Windows[0]; w.Start != 3*sec/2 || !w.Full || w.Counter("test.bytes") != 20 {
		t.Errorf("segment 1 window 0 = [%v,%v) delta=%d, want full [1.5s,2.5s) delta 20",
			w.Start, w.End, w.Counter("test.bytes"))
	}
	// Segment 3 starts exactly at 2.5s (mark on boundary → no zero-length
	// window) and holds the 30-byte delta then a partial window to 3.5s.
	if segs[2].Start != 5*sec/2 {
		t.Fatalf("segment 2 starts at %v, want 2.5s", segs[2].Start)
	}
	if n := len(segs[2].Windows); n != 1 {
		t.Fatalf("segment 2: %d windows, want 1", n)
	}
	if w := segs[2].Windows[0]; w.Counter("test.bytes") != 30 || !w.Full {
		t.Errorf("segment 2 window 0: delta=%d full=%v, want 30/full", w.Counter("test.bytes"), w.Full)
	}
}

func TestValidateCatchesGaps(t *testing.T) {
	bad := []Segment{{Start: 0, Windows: []Window{
		{Index: 0, Start: 0, End: sec, Full: true},
		{Index: 1, Start: 2 * sec, End: 3 * sec, Full: true}, // gap
	}}}
	if err := Validate(bad, sec); err == nil {
		t.Fatal("gap not detected")
	}
	bad[0].Windows[1] = Window{Index: 2, Start: sec, End: 2 * sec, Full: true} // bad index
	if err := Validate(bad, sec); err == nil {
		t.Fatal("index skip not detected")
	}
	bad[0].Windows[1] = Window{Index: 1, Start: sec, End: sec, Full: false} // empty window
	if err := Validate(bad, sec); err == nil {
		t.Fatal("empty window not detected")
	}
	late := []Segment{{Start: 0, Windows: []Window{{Index: 0, Start: sec, End: 2 * sec, Full: true}}}}
	if err := Validate(late, sec); err == nil {
		t.Fatal("first window starting after its segment not detected")
	}
}

// WriteCSV is byte-reproducible and quotes labels minimally.
func TestWriteCSVDeterministic(t *testing.T) {
	segs := []Segment{{
		Label: `run "a", net`,
		Start: 0,
		Windows: []Window{{
			Index: 0, Start: 0, End: sec, Full: true,
			Counters:    []Delta{{Name: "inet.bytes.wget", Value: 4096}},
			Kinds:       []KindCount{{Kind: obs.KindIPCSend, N: 7}},
			Annotations: []Annotation{{T: sec / 2, Kind: obs.KindDefect, Comp: "eth", Aux: "crash"}},
			Status:      []ServiceStatus{{Label: "eth.rtl8139", State: "recovering", Failures: 2}},
		}},
	}}
	var a, b bytes.Buffer
	if err := WriteCSV(&a, segs); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, segs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings differ")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header+1", len(lines))
	}
	want := `0,"run ""a"", net",0,0,1000000000,true,inet.bytes.wget=4096,ipc.send=7,500000000:defect:eth:crash,eth.rtl8139=recovering/2`
	if lines[1] != want {
		t.Errorf("row:\n got %s\nwant %s", lines[1], want)
	}
}

// The sampler's deterministic rollovers survive a status hook.
func TestSamplerStatusHook(t *testing.T) {
	env := sim.NewEnv(1)
	rec := obs.NewRecorder()
	rec.SetClock(env.Now)
	state := "live"
	s := New(Config{Window: sec, Registry: rec.Metrics(), Status: func() []ServiceStatus {
		return []ServiceStatus{{Label: "eth.rtl8139", State: state}}
	}})
	s.Attach(env)
	rec.AddSink(s)
	env.Schedule(3*sec/2, func() { state = "recovering" })
	env.Run(5 * sec / 2)
	s.Finish()

	ws := s.Segments()[0].Windows
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3", len(ws))
	}
	if got := ws[0].Status[0].State; got != "live" {
		t.Errorf("window 0 state %q, want live", got)
	}
	if got := ws[1].Status[0].State; got != "recovering" {
		t.Errorf("window 1 state %q (sampled at its close), want recovering", got)
	}
}
