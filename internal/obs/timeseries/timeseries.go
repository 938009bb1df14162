// Package timeseries is the windowed telemetry layer of the observability
// subsystem: a sampler that slices a run's virtual time into fixed-width
// windows and, at each deterministic window rollover, snapshots per-window
// counter deltas (bytes moved by INET/MFS/VFS, kernel IPC sends/receives,
// restarts), per-service status (live/recovering/dead plus the
// consecutive-failure count that drives restart backoff), and the
// fault-injection and recovery events that landed inside the window.
//
// This is the data behind the paper's headline evaluation: Figs. 7 and 8
// plot throughput over wall-clock time under repeated driver kills, with a
// dip at each kill — an envelope that event-level traces and run totals
// cannot reproduce. A Sampler turns one run into exactly that series.
//
// Determinism: rollovers fire on the simulation scheduler (sim.Env.Tick)
// at exact virtual-time boundaries, counters are visited in name order,
// and every encoding below has a fixed field order — two runs with the
// same seed produce byte-identical series, so series are usable as golden
// files, and the curve metrics extracted from them as regression-gate
// inputs (the committed internal/bench documents).
//
// Windows are half-open [Start, End): an event stamped exactly on a
// boundary belongs to the *next* window. A KindMark event is a run
// boundary, exactly as for Timeline and the invariant checker: the
// current window is flushed (possibly partial), counter baselines reset,
// and a fresh segment begins at the mark's timestamp.
package timeseries

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"resilientos/internal/obs"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
)

// DefaultWindow is the default window width (the paper's figures plot
// one point per second).
const DefaultWindow = sim.Time(1e9)

// ServiceStatus is one guarded service's state at a window close.
type ServiceStatus struct {
	Label    string
	State    string // "live", "recovering", "dead", "gave-up", or "stopped"
	Failures int    // consecutive-failure count (exponential-backoff input)
}

// Annotation is one recovery/fault event that landed in a window.
type Annotation struct {
	T    sim.Time
	Kind obs.Kind
	Comp string
	Aux  string
}

// Delta is one counter's within-window increment.
type Delta struct {
	Name  string
	Value int64
}

// KindCount is the number of events of one kind within a window.
type KindCount struct {
	Kind obs.Kind
	N    int
}

// Window is one fixed-width slice of virtual time. Counters holds the
// registry counter deltas sampled at the rollover (zero deltas omitted),
// Kinds the per-kind event counts, Annotations the recovery/fault events,
// and Status the per-service snapshot at the window's close — all in
// deterministic order.
type Window struct {
	Index       int
	Start, End  sim.Time
	Full        bool // covers the whole configured width
	Counters    []Delta
	Kinds       []KindCount
	Annotations []Annotation
	Status      []ServiceStatus
}

// Counter returns the window's delta for one counter name (0 if absent).
func (w Window) Counter(name string) int64 {
	for _, d := range w.Counters {
		if d.Name == name {
			return d.Value
		}
	}
	return 0
}

// KindN returns the window's event count for one kind.
func (w Window) KindN(k obs.Kind) int {
	for _, kc := range w.Kinds {
		if kc.Kind == k {
			return kc.N
		}
	}
	return 0
}

// Segment is one mark-delimited run's window series.
type Segment struct {
	Label   string // the opening mark's Aux ("" for the leading segment)
	Start   sim.Time
	Windows []Window
}

// DefaultAnnotate is the set of kinds kept as window annotations: the
// fault-injection and recovery-episode events of the architecture.
var DefaultAnnotate = []obs.Kind{
	obs.KindDefect, obs.KindPolicyStart, obs.KindPolicyExit,
	obs.KindRestart, obs.KindReintegrate, obs.KindGiveUp,
	obs.KindHeartbeat, obs.KindProcException,
}

// Config configures a Sampler. Every field but Window may be nil/zero:
// a Registry-less sampler still bins events, a Status-less one omits
// service snapshots.
type Config struct {
	// Window is the window width (DefaultWindow when 0).
	Window sim.Time
	// Registry is snapshotted at every rollover for counter deltas.
	Registry *obs.Registry
	// Status, if set, is called at every rollover for the per-service
	// state column (adapt core.RS.Services to []ServiceStatus).
	Status func() []ServiceStatus
}

// Sampler records a live run's window series. Wire it with Attach (window
// rollovers) and obs.Recorder.AddSink (event binning and mark handling),
// then call Finish once after the final Run to flush the partial window.
type Sampler struct {
	cfg      Config
	width    sim.Time
	annotate map[obs.Kind]bool

	env    *sim.Env
	ticker *sim.Ticker

	segs     []Segment
	active   bool     // a segment is open (Attach ran, Finish has not)
	curStart sim.Time // current window's start
	curIdx   int

	base map[string]int64 // counter values at the last rollover

	// Event state for the open window, plus overflow buffers for events
	// stamped exactly on the pending boundary (they precede the rollover
	// tick in scheduler order but belong to the next window).
	kinds    map[obs.Kind]int
	anns     []Annotation
	overKind map[obs.Kind]int
	overAnn  []Annotation

	violation string // first structural violation (window monotonicity)

	perf *perf.Profiler // wall-clock cost attribution (nil = off)
}

// SetPerf installs the wall-clock profiler: every window flush (rollover
// tick, mark split, Finish) runs inside RegionTimeseries. A nil profiler
// (the default) keeps the path free.
func (s *Sampler) SetPerf(p *perf.Profiler) { s.perf = p }

// New creates a sampler; call Attach to start sampling.
func New(cfg Config) *Sampler {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	s := &Sampler{
		cfg:      cfg,
		width:    cfg.Window,
		annotate: make(map[obs.Kind]bool, len(DefaultAnnotate)),
		base:     make(map[string]int64),
		kinds:    make(map[obs.Kind]int),
		overKind: make(map[obs.Kind]int),
	}
	for _, k := range DefaultAnnotate {
		s.annotate[k] = true
	}
	return s
}

// Attach starts the first segment at env's current virtual time and
// schedules the deterministic rollover ticks on the scheduler.
func (s *Sampler) Attach(env *sim.Env) {
	s.env = env
	s.openSegment("", env.Now())
}

// openSegment begins a new mark-delimited segment at start.
func (s *Sampler) openSegment(label string, start sim.Time) {
	s.ticker.Stop()
	s.segs = append(s.segs, Segment{Label: label, Start: start})
	s.active = true
	s.curStart = start
	s.curIdx = 0
	s.rebase()
	s.resetWindowState()
	s.overAnn = nil
	for k := range s.overKind {
		delete(s.overKind, k)
	}
	if s.env != nil {
		s.ticker = s.env.Tick(s.width, s.rollover)
	}
}

// rebase re-snapshots every counter as the new delta baseline.
func (s *Sampler) rebase() {
	for k := range s.base {
		delete(s.base, k)
	}
	s.cfg.Registry.VisitCounters(func(name string, v int64) { s.base[name] = v })
}

func (s *Sampler) resetWindowState() {
	for k := range s.kinds {
		delete(s.kinds, k)
	}
	s.anns = nil
	// Events that arrived stamped on the boundary open the new window.
	for k, n := range s.overKind {
		s.kinds[k] = n
		delete(s.overKind, k)
	}
	s.anns = append(s.anns, s.overAnn...)
	s.overAnn = nil
}

// rollover closes the current window at the scheduled boundary.
func (s *Sampler) rollover() {
	if !s.active {
		return
	}
	s.closeWindow(s.curStart + s.width)
}

// closeWindow flushes [curStart, end) and opens the next window at end.
// Zero-length windows (a mark landing exactly on a boundary, or Finish
// immediately after Attach) are skipped.
func (s *Sampler) closeWindow(end sim.Time) {
	s.perf.Begin(perf.RegionTimeseries)
	defer s.perf.End(perf.RegionTimeseries)
	seg := &s.segs[len(s.segs)-1]
	if end > s.curStart {
		w := Window{
			Index: s.curIdx,
			Start: s.curStart,
			End:   end,
			Full:  end-s.curStart == s.width,
		}
		s.cfg.Registry.VisitCounters(func(name string, v int64) {
			if d := v - s.base[name]; d != 0 {
				w.Counters = append(w.Counters, Delta{Name: name, Value: d})
			}
			s.base[name] = v
		})
		for _, k := range sortedKinds(s.kinds) {
			w.Kinds = append(w.Kinds, KindCount{Kind: k, N: s.kinds[k]})
		}
		w.Annotations = s.anns
		if s.cfg.Status != nil {
			w.Status = s.cfg.Status()
		}
		// Monotonicity self-check: append-only, contiguous, half-open.
		if n := len(seg.Windows); s.violation == "" {
			switch {
			case n == 0 && w.Start != seg.Start:
				s.violation = fmt.Sprintf("segment %d: first window starts at %v, segment at %v",
					len(s.segs)-1, w.Start, seg.Start)
			case n > 0 && w.Start != seg.Windows[n-1].End:
				s.violation = fmt.Sprintf("segment %d: window %d starts at %v, previous ended at %v",
					len(s.segs)-1, w.Index, w.Start, seg.Windows[n-1].End)
			case n > 0 && w.Index != seg.Windows[n-1].Index+1:
				s.violation = fmt.Sprintf("segment %d: window index %d after %d",
					len(s.segs)-1, w.Index, seg.Windows[n-1].Index)
			}
		}
		seg.Windows = append(seg.Windows, w)
		s.curIdx++
	}
	s.curStart = end
	s.resetWindowState()
}

// Emit implements obs.Sink: events are binned by timestamp into half-open
// windows; marks flush the current window and open a fresh segment.
func (s *Sampler) Emit(e obs.Event) {
	if !s.active {
		return
	}
	if e.Kind == obs.KindMark {
		s.closeWindow(e.T)
		s.openSegment(e.Aux, e.T)
		return
	}
	boundary := s.curStart + s.width
	if e.T >= boundary {
		// Stamped on the pending boundary, emitted before the rollover
		// tick: belongs to the next window.
		s.overKind[e.Kind]++
		if s.annotate[e.Kind] {
			s.overAnn = append(s.overAnn, Annotation{T: e.T, Kind: e.Kind, Comp: e.Comp, Aux: e.Aux})
		}
		return
	}
	s.kinds[e.Kind]++
	if s.annotate[e.Kind] {
		s.anns = append(s.anns, Annotation{T: e.T, Kind: e.Kind, Comp: e.Comp, Aux: e.Aux})
	}
}

// Finish flushes the partial final window at the current virtual time and
// stops the rollover ticks. Call exactly once, after the final Run.
func (s *Sampler) Finish() {
	if !s.active {
		return
	}
	end := s.curStart
	if s.env != nil {
		end = s.env.Now()
	}
	s.closeWindow(end)
	s.ticker.Stop()
	s.active = false
	// Drop a trailing empty segment (a mark at the very end of the run).
	if last := &s.segs[len(s.segs)-1]; len(last.Windows) == 0 {
		s.segs = s.segs[:len(s.segs)-1]
	}
}

// Segments returns the mark-delimited window series recorded so far.
// The slice aliases the sampler's state; call after Finish.
func (s *Sampler) Segments() []Segment { return s.segs }

// Err reports the first structural violation the sampler observed in its
// own series (nil in any correct run). The live invariant checker polls
// this through check.Config.Windows.
func (s *Sampler) Err() error {
	if s.violation == "" {
		return nil
	}
	return fmt.Errorf("timeseries: %s", s.violation)
}

func sortedKinds(m map[obs.Kind]int) []obs.Kind {
	out := make([]obs.Kind, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------
// Offline binning

// BinEvents bins a recorded trace into fixed-width windows — the offline
// counterpart of a live Sampler, for traces captured without one. The
// trace is split at marks via obs.Segments exactly as Timeline does; a
// mark-opened segment starts at the mark's timestamp, the leading
// mark-less segment at virtual time 0. Windows are contiguous from index
// 0 through the last event's window; all are full width (an offline
// trace does not know where the run ended). Counter deltas and status
// are unavailable offline; Kinds and Annotations are filled.
func BinEvents(events []obs.Event, width sim.Time, annotate []obs.Kind) []Segment {
	if width <= 0 {
		width = DefaultWindow
	}
	if annotate == nil {
		annotate = DefaultAnnotate
	}
	ann := make(map[obs.Kind]bool, len(annotate))
	for _, k := range annotate {
		ann[k] = true
	}
	var out []Segment
	for _, evs := range obs.Segments(events) {
		if len(evs) == 0 {
			continue
		}
		seg := Segment{}
		if evs[0].Kind == obs.KindMark {
			seg.Label = evs[0].Aux
			seg.Start = evs[0].T
			evs = evs[1:]
		}
		if len(evs) == 0 {
			out = append(out, seg)
			continue
		}
		last := int((evs[len(evs)-1].T - seg.Start) / width)
		for i := 0; i <= last; i++ {
			seg.Windows = append(seg.Windows, Window{
				Index: i,
				Start: seg.Start + sim.Time(i)*width,
				End:   seg.Start + sim.Time(i+1)*width,
				Full:  true,
			})
		}
		kinds := make([]map[obs.Kind]int, last+1)
		for _, e := range evs {
			i := int((e.T - seg.Start) / width)
			if i < 0 || i > last {
				continue // clock went backwards; Validate flags the series source
			}
			if kinds[i] == nil {
				kinds[i] = make(map[obs.Kind]int)
			}
			kinds[i][e.Kind]++
			if ann[e.Kind] {
				seg.Windows[i].Annotations = append(seg.Windows[i].Annotations,
					Annotation{T: e.T, Kind: e.Kind, Comp: e.Comp, Aux: e.Aux})
			}
		}
		for i, m := range kinds {
			for _, k := range sortedKinds(m) {
				seg.Windows[i].Kinds = append(seg.Windows[i].Kinds, KindCount{Kind: k, N: m[k]})
			}
		}
		out = append(out, seg)
	}
	return out
}

// ---------------------------------------------------------------------
// Validation

// Validate checks the structural invariants of a window series: within
// each segment, windows are contiguous half-open intervals with dense
// indices from 0, every window but the last is exactly width wide, and
// segment starts are non-decreasing. width 0 skips the width checks.
func Validate(segs []Segment, width sim.Time) error {
	var prevStart sim.Time
	for si, seg := range segs {
		if si > 0 && seg.Start < prevStart {
			return fmt.Errorf("timeseries: segment %d starts at %v, before segment %d at %v",
				si, seg.Start, si-1, prevStart)
		}
		prevStart = seg.Start
		for wi, w := range seg.Windows {
			if w.Index != wi {
				return fmt.Errorf("timeseries: segment %d window %d has index %d", si, wi, w.Index)
			}
			if w.End <= w.Start {
				return fmt.Errorf("timeseries: segment %d window %d is empty or inverted [%v,%v)",
					si, wi, w.Start, w.End)
			}
			want := seg.Start
			if wi > 0 {
				want = seg.Windows[wi-1].End
			}
			if w.Start != want {
				return fmt.Errorf("timeseries: segment %d window %d starts at %v, want %v",
					si, wi, w.Start, want)
			}
			if width > 0 {
				if full := w.End-w.Start == width; full != w.Full {
					return fmt.Errorf("timeseries: segment %d window %d Full=%v but spans %v of %v",
						si, wi, w.Full, w.End-w.Start, width)
				}
				if wi < len(seg.Windows)-1 && !w.Full {
					return fmt.Errorf("timeseries: segment %d window %d is partial but not final", si, wi)
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Canonical encodings

// WriteCSV writes the series as canonical CSV, one row per window, with a
// fixed column set and deterministic packing: counters and kinds as
// semicolon-joined name=value pairs, annotations as t_ns:kind:comp:aux,
// status as label=state/failures. Byte-identical for identical series.
func WriteCSV(w io.Writer, segs []Segment) error {
	buf := []byte("segment,label,window,start_ns,end_ns,full,counters,kinds,annotations,status\n")
	for si, seg := range segs {
		for _, win := range seg.Windows {
			buf = strconv.AppendInt(buf, int64(si), 10)
			buf = append(buf, ',')
			buf = appendCSVString(buf, seg.Label)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(win.Index), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(win.Start), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(win.End), 10)
			buf = append(buf, ',')
			buf = strconv.AppendBool(buf, win.Full)
			buf = append(buf, ',')
			for i, d := range win.Counters {
				if i > 0 {
					buf = append(buf, ';')
				}
				buf = append(buf, d.Name...)
				buf = append(buf, '=')
				buf = strconv.AppendInt(buf, d.Value, 10)
			}
			buf = append(buf, ',')
			for i, kc := range win.Kinds {
				if i > 0 {
					buf = append(buf, ';')
				}
				buf = append(buf, kc.Kind.String()...)
				buf = append(buf, '=')
				buf = strconv.AppendInt(buf, int64(kc.N), 10)
			}
			buf = append(buf, ',')
			for i, a := range win.Annotations {
				if i > 0 {
					buf = append(buf, ';')
				}
				buf = strconv.AppendInt(buf, int64(a.T), 10)
				buf = append(buf, ':')
				buf = append(buf, a.Kind.String()...)
				buf = append(buf, ':')
				buf = append(buf, a.Comp...)
				buf = append(buf, ':')
				buf = append(buf, a.Aux...)
			}
			buf = append(buf, ',')
			for i, st := range win.Status {
				if i > 0 {
					buf = append(buf, ';')
				}
				buf = append(buf, st.Label...)
				buf = append(buf, '=')
				buf = append(buf, st.State...)
				buf = append(buf, '/')
				buf = strconv.AppendInt(buf, int64(st.Failures), 10)
			}
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		_, err := w.Write(buf)
		return err
	}
	return nil
}

// appendCSVString appends s, quoting it only when it contains a CSV
// metacharacter (deterministic minimal quoting).
func appendCSVString(buf []byte, s string) []byte {
	needQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\n', '\r':
			needQuote = true
		}
	}
	if !needQuote {
		return append(buf, s...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			buf = append(buf, '"')
		}
		buf = append(buf, s[i])
	}
	return append(buf, '"')
}
