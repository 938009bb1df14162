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
	"slices"
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
	annotate uint64 // bit k set = Kind(k) kept as an annotation

	env    *sim.Env
	ticker *sim.Ticker

	segs     []Segment
	active   bool     // a segment is open (Attach ran, Finish has not)
	curStart sim.Time // current window's start
	curIdx   int

	// Counter values at the last rollover, in name order: a rollover
	// merges them against the registry's own walk in that order, and
	// gathers the window's deltas in deltas before copying them out.
	base, deltas []Delta

	// Event state for the open window, plus overflow buffers for events
	// stamped exactly on the pending boundary (they precede the rollover
	// tick in scheduler order but belong to the next window). The counts
	// are indexed by kind, a byte.
	kinds    [1 << 8]int
	anns     []Annotation
	overKind [1 << 8]int
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
	s := &Sampler{cfg: cfg, width: cfg.Window}
	for _, k := range DefaultAnnotate {
		s.annotate |= 1 << uint(k)
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
	s.overKind = [len(s.overKind)]int{}
	if s.env != nil {
		s.ticker = s.env.Tick(s.width, s.rollover)
	}
}

// rebase re-snapshots every counter as the new delta baseline.
func (s *Sampler) rebase() {
	s.base = s.base[:0]
	s.cfg.Registry.VisitCounters(func(name string, v int64) {
		s.base = append(s.base, Delta{Name: name, Value: v})
	})
}

func (s *Sampler) resetWindowState() {
	s.anns = nil
	// Events that arrived stamped on the boundary open the new window.
	s.kinds, s.overKind = s.overKind, [len(s.overKind)]int{}
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
		// The registry only grows, in name order, so a name the baseline
		// lacks is a counter created since: its baseline is 0. Each row
		// the window keeps is allocated once, at its length.
		i := 0
		s.deltas = s.deltas[:0]
		s.cfg.Registry.VisitCounters(func(name string, v int64) {
			if i == len(s.base) || s.base[i].Name != name {
				s.base = slices.Insert(s.base, i, Delta{Name: name})
			}
			if d := v - s.base[i].Value; d != 0 {
				s.deltas = append(s.deltas, Delta{Name: name, Value: d})
			}
			s.base[i].Value = v
			i++
		})
		if len(s.deltas) > 0 {
			w.Counters = slices.Clone(s.deltas)
		}
		kinds := 0
		for _, n := range s.kinds {
			if n != 0 {
				kinds++
			}
		}
		if kinds > 0 {
			w.Kinds = make([]KindCount, 0, kinds)
			for k, n := range s.kinds {
				if n != 0 {
					w.Kinds = append(w.Kinds, KindCount{Kind: obs.Kind(k), N: n})
				}
			}
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
func (s *Sampler) Emit(e *obs.Event) {
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
		if s.annotate&(1<<uint(e.Kind)) != 0 {
			s.overAnn = append(s.overAnn, Annotation{T: e.T, Kind: e.Kind, Comp: e.Comp, Aux: e.Aux})
		}
		return
	}
	s.kinds[e.Kind]++
	if s.annotate&(1<<uint(e.Kind)) != 0 {
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
