// Package obs is the kernel-wide observability subsystem: a structured
// trace bus carrying virtual-time-stamped, typed events through pluggable
// sinks, a metrics registry (counters, gauges, fixed-bucket histograms),
// and a recovery-timeline builder that stitches trace events into
// per-component recovery spans (defect → policy script → restart →
// reintegration) so experiments can report latency percentiles, not just
// means.
//
// Everything is deterministic: timestamps are virtual time from the seeded
// scheduler, events are emitted in scheduler order, and the JSONL encoding
// has a fixed field order — two runs with the same seed produce
// byte-identical traces, which makes traces usable as golden files.
//
// The zero value is free: a nil *Recorder is valid and every method on it
// is a no-op, so instrumented hot paths (kernel IPC, driver loops) cost a
// single nil check when observability is off.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"resilientos/internal/perf"
	"resilientos/internal/sim"
)

// Kind is the type tag of a trace event — the event taxonomy of the
// recovery architecture.
type Kind uint8

// The event taxonomy. Kinds are stable: their String values are the
// on-disk JSONL identifiers.
const (
	// KindMark is an annotation (experiment/run boundaries). The timeline
	// builder drops open spans at a mark, so independent runs can share
	// one trace file.
	KindMark Kind = iota + 1
	// KindIPCSend is a message send (rendezvous or async; V2=1 for async).
	KindIPCSend
	// KindIPCRecv is a successful message receive.
	KindIPCRecv
	// KindIPCAbort is an IPC primitive aborted by a peer's death — the
	// failure signal the recovery architecture is built on.
	KindIPCAbort
	// KindProcSpawn is a simulated process starting (Aux = name/generation).
	KindProcSpawn
	// KindProcExit is a simulated process dying (V1 = exit status).
	KindProcExit
	// KindProcException is a process killed by a CPU/MMU exception.
	KindProcException
	// KindHeartbeat is a liveness event (Aux = "miss" or "stuck").
	KindHeartbeat
	// KindDefect is the reincarnation server detecting a defect
	// (Aux = defect class, V1 = repetition count). Opens a recovery span.
	KindDefect
	// KindPolicyStart is a recovery policy script starting.
	KindPolicyStart
	// KindPolicyExit is a recovery policy script finishing (V1 = status).
	KindPolicyExit
	// KindRestart is a fresh instance published in the data store
	// (Aux = "start" or "recover", V1 = new endpoint). Closes a span.
	KindRestart
	// KindReintegrate is a dependent server rebinding a restarted driver
	// (Comp = server, Aux = driver label). Completes a span.
	KindReintegrate
	// KindGiveUp is the reincarnation server abandoning a component.
	KindGiveUp
	// KindPublish is a data-store naming change (Aux = "publish" or
	// "withdraw", V1 = endpoint).
	KindPublish
	// KindSpanBegin opens a causal span (Aux = span name; the event's
	// Trace/Span/Parent fields identify it in the span tree).
	KindSpanBegin
	// KindSpanEnd closes a span normally (V1 = status, 0 = ok).
	KindSpanEnd
	// KindSpanOrphan marks a span that can never complete because a crash
	// interrupted it (Aux = reason, e.g. "crash:exception(MMU)"). A span
	// gets exactly one terminal event: end or orphan, never both.
	KindSpanOrphan
	// KindSpanLink records a causal edge between spans in addition to the
	// parent/child tree: Span is the successor, Parent the predecessor,
	// Aux the edge kind ("retry-of", "recovered-by").
	KindSpanLink
	// KindCapsuleSave is a driver flushing its versioned state capsule to
	// the data store on a clean shutdown (Aux = capsule kind, V1 =
	// version, V2 = payload bytes).
	KindCapsuleSave
	// KindCapsuleAdopt is a successor instance deciding about its
	// predecessor's state capsule (Aux = capsule kind or "corrupt",
	// V1 = version, V2 = 0 adopted / 1 rejected).
	KindCapsuleAdopt

	kindMax
)

// SpanKinds lists the causal-tracing kinds; disabling all of them turns
// span tracking off wholesale (StartSpan then returns the zero context).
var SpanKinds = []Kind{KindSpanBegin, KindSpanEnd, KindSpanOrphan, KindSpanLink}

// TimelineKinds lists the kinds Timeline reads: a run that wants only
// recovery spans keeps these (see Only) and none of the rest.
var TimelineKinds = []Kind{
	KindMark, KindDefect, KindPolicyStart, KindPolicyExit,
	KindRestart, KindReintegrate, KindGiveUp,
}

var kindNames = [...]string{
	KindMark:          "mark",
	KindIPCSend:       "ipc.send",
	KindIPCRecv:       "ipc.recv",
	KindIPCAbort:      "ipc.abort",
	KindProcSpawn:     "proc.spawn",
	KindProcExit:      "proc.exit",
	KindProcException: "proc.exception",
	KindHeartbeat:     "heartbeat",
	KindDefect:        "defect",
	KindPolicyStart:   "policy.start",
	KindPolicyExit:    "policy.exit",
	KindRestart:       "restart",
	KindReintegrate:   "reintegrate",
	KindGiveUp:        "giveup",
	KindPublish:       "publish",
	KindSpanBegin:     "span.begin",
	KindSpanEnd:       "span.end",
	KindSpanOrphan:    "span.orphan",
	KindSpanLink:      "span.link",
	KindCapsuleSave:   "capsule.save",
	KindCapsuleAdopt:  "capsule.adopt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a JSONL kind identifier; ok is false for unknown.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Kinds returns every defined kind, in numeric order.
func Kinds() []Kind {
	out := make([]Kind, 0, int(kindMax)-1)
	for k := Kind(1); k < kindMax; k++ {
		out = append(out, k)
	}
	return out
}

// Event is one structured trace record. T is virtual time; Comp is the
// stable component label the event is about; Aux and V1/V2 carry
// kind-specific detail (see the Kind constants). Trace/Span/Parent carry
// causal-tracing context and are zero for context-free events.
type Event struct {
	T    sim.Time
	Kind Kind
	Comp string
	Aux  string
	V1   int64
	V2   int64

	// Causal trace context: the trace this event belongs to, the span it
	// is about, and — for span.begin — the parent span (0 = root), or —
	// for span.link — the predecessor span.
	Trace  int64
	Span   int64
	Parent int64
}

// Sink receives every event the recorder emits. Sinks run synchronously in
// scheduler order, so anything they do must be deterministic.
type Sink interface {
	Emit(Event)
}

// Recorder is the trace bus: it stamps events with virtual time, filters
// by kind, and fans out to its sinks. A nil *Recorder is valid — every
// method is a no-op — so instrumented code never branches on "is
// observability configured" beyond the nil check inside each call.
type Recorder struct {
	clock func() sim.Time
	sinks []Sink
	mask  uint64 // bit i set = Kind(i) enabled
	reg   *Registry

	ipcRTT *Histogram // virtual-time SendRec round trips
	recLat *Histogram // defect -> reintegration recovery latency

	perf  *perf.Profiler // wall-clock cost attribution (nil = off)
	nemit uint64         // events emitted past the mask (deterministic)

	// Causal-tracing ID allocators. The scheduler is single-threaded, so
	// plain counters are deterministic for a fixed seed+workload.
	nextTrace int64
	nextSpan  int64
}

// NewRecorder creates a recorder with all event kinds enabled, a fresh
// metrics registry, and the given sinks.
func NewRecorder(sinks ...Sink) *Recorder {
	r := &Recorder{sinks: sinks, mask: ^uint64(0), reg: NewRegistry()}
	r.ipcRTT = r.reg.Histogram("ipc_sendrec_ns", LatencyBuckets)
	r.recLat = r.reg.Histogram("recovery_latency_ns", LatencyBuckets)
	return r
}

// SetClock installs the virtual-time source (the simulation environment's
// Now). Events emitted before a clock is set are stamped 0.
func (r *Recorder) SetClock(fn func() sim.Time) {
	if r == nil {
		return
	}
	r.clock = fn
}

// AddSink attaches another sink.
func (r *Recorder) AddSink(s Sink) {
	if r == nil || s == nil {
		return
	}
	r.sinks = append(r.sinks, s)
}

// Disable turns the given event kinds off; their Emit calls become no-ops
// and On reports false (instrumentation uses On to skip argument work).
func (r *Recorder) Disable(kinds ...Kind) {
	if r == nil {
		return
	}
	for _, k := range kinds {
		r.mask &^= 1 << uint(k)
	}
}

// Enable turns event kinds (back) on.
func (r *Recorder) Enable(kinds ...Kind) {
	if r == nil {
		return
	}
	for _, k := range kinds {
		r.mask |= 1 << uint(k)
	}
}

// On reports whether events of kind k are recorded. Nil-safe; hot paths
// call this before computing expensive event arguments.
func (r *Recorder) On(k Kind) bool {
	return r != nil && r.mask&(1<<uint(k)) != 0
}

// SetPerf installs the wall-clock profiler: every emitted event's
// stamping and sink fan-out runs inside RegionObs, so the cost of the
// observability stack itself shows up in the simspeed report. Nil-safe,
// and a nil profiler (the default) keeps the emit path free.
func (r *Recorder) SetPerf(p *perf.Profiler) {
	if r == nil {
		return
	}
	r.perf = p
}

// Emitted reports how many events passed the kind mask and reached the
// sinks — the recorder's deterministic fast-path work counter. Nil-safe.
func (r *Recorder) Emitted() uint64 {
	if r == nil {
		return 0
	}
	return r.nemit
}

// Emit stamps and publishes one event to every sink. Nil-safe.
func (r *Recorder) Emit(k Kind, comp, aux string, v1, v2 int64) {
	if r == nil || r.mask&(1<<uint(k)) == 0 {
		return
	}
	r.nemit++
	r.perf.Begin(perf.RegionObs)
	e := Event{Kind: k, Comp: comp, Aux: aux, V1: v1, V2: v2}
	if r.clock != nil {
		e.T = r.clock()
	}
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.perf.End(perf.RegionObs)
}

// EmitCtx is Emit with a trace context attached, for events that happen
// *within* a span (IPC sends/receives carrying a context). Nil-safe.
func (r *Recorder) EmitCtx(k Kind, comp, aux string, v1, v2 int64, sc SpanContext) {
	if r == nil || r.mask&(1<<uint(k)) == 0 {
		return
	}
	r.nemit++
	r.perf.Begin(perf.RegionObs)
	e := Event{Kind: k, Comp: comp, Aux: aux, V1: v1, V2: v2, Trace: sc.Trace, Span: sc.Span}
	if r.clock != nil {
		e.T = r.clock()
	}
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.perf.End(perf.RegionObs)
}

// emitSpan publishes a span-lifecycle event with full trace fields.
func (r *Recorder) emitSpan(k Kind, comp, aux string, v1 int64, tr, sp, pa int64) {
	r.nemit++
	r.perf.Begin(perf.RegionObs)
	e := Event{Kind: k, Comp: comp, Aux: aux, V1: v1, Trace: tr, Span: sp, Parent: pa}
	if r.clock != nil {
		e.T = r.clock()
	}
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.perf.End(perf.RegionObs)
}

// Metrics returns the recorder's registry (nil for a nil recorder; the
// registry's methods are nil-safe in turn, so chained calls are free).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// ObserveSendRec records one virtual-time IPC round trip.
func (r *Recorder) ObserveSendRec(d sim.Time) {
	if r == nil {
		return
	}
	r.ipcRTT.Observe(int64(d))
}

// ObserveRecovery records one completed recovery: latency into the
// recovery-latency histogram and a per-component restart counter.
func (r *Recorder) ObserveRecovery(comp string, d sim.Time) {
	if r == nil {
		return
	}
	r.recLat.Observe(int64(d))
	r.reg.Counter("restarts." + comp).Add(1)
}

// ---------------------------------------------------------------------
// Sinks

// RingSink keeps the most recent events in a bounded ring buffer; when
// full, the oldest event is dropped (and counted).
type RingSink struct {
	buf     []Event
	next    int
	full    bool
	dropped int
}

// NewRingSink creates a ring buffer holding up to capacity events.
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]Event, 0, capacity)}
}

// Emit implements Sink.
func (s *RingSink) Emit(e Event) {
	if !s.full && len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, e)
		if len(s.buf) == cap(s.buf) {
			s.full = true
		}
		return
	}
	s.dropped++
	s.buf[s.next] = e
	s.next = (s.next + 1) % len(s.buf)
}

// Events returns the buffered events, oldest first.
func (s *RingSink) Events() []Event {
	out := make([]Event, 0, len(s.buf))
	if s.full {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
		return out
	}
	return append(out, s.buf...)
}

// Dropped reports how many events were evicted for lack of room.
func (s *RingSink) Dropped() int { return s.dropped }

// DropMarkComp / DropMarkAux identify the synthetic mark event that
// EventsWithDropMark prepends to a truncated ring, so trace readers
// (cmd/tracestat) can tell a truncated trace from a complete one.
const (
	DropMarkComp = "obs"
	DropMarkAux  = "dropped"
)

// EventsWithDropMark returns the buffered events, oldest first, preceded
// by a mark event recording how many older events were evicted (V1 =
// count). With no drops it is identical to Events.
func (s *RingSink) EventsWithDropMark() []Event {
	evs := s.Events()
	if s.dropped == 0 {
		return evs
	}
	mark := Event{Kind: KindMark, Comp: DropMarkComp, Aux: DropMarkAux, V1: int64(s.dropped)}
	if len(evs) > 0 {
		mark.T = evs[0].T
	}
	return append([]Event{mark}, evs...)
}

// SliceSink appends every event to an unbounded slice (experiments use it
// to post-process a whole run's trace).
type SliceSink struct {
	events []Event
}

// Emit implements Sink.
func (s *SliceSink) Emit(e Event) { s.events = append(s.events, e) }

// Events returns the recorded events in emission order (not a copy).
func (s *SliceSink) Events() []Event { return s.events }

// Only returns a sink that passes events of the given kinds on to s and
// drops the rest. The recorder's own mask decides what is emitted at all
// — to every sink; this narrows what one of them keeps.
func Only(s Sink, kinds ...Kind) Sink {
	f := kindFilter{to: s}
	for _, k := range kinds {
		f.mask |= 1 << uint(k)
	}
	return f
}

type kindFilter struct {
	mask uint64
	to   Sink
}

func (f kindFilter) Emit(e Event) {
	if f.mask&(1<<uint(e.Kind)) != 0 {
		f.to.Emit(e)
	}
}

// CountSink counts events by kind and by component without storing them.
type CountSink struct {
	Total  int
	ByKind map[Kind]int
	ByComp map[string]int
}

// NewCountSink creates an empty counting sink.
func NewCountSink() *CountSink {
	return &CountSink{ByKind: make(map[Kind]int), ByComp: make(map[string]int)}
}

// Emit implements Sink.
func (s *CountSink) Emit(e Event) {
	s.Total++
	s.ByKind[e.Kind]++
	s.ByComp[e.Comp]++
}

// ---------------------------------------------------------------------
// JSONL encoding

// JSONLSink writes each event as one JSON line with a fixed field order,
// so same-seed runs produce byte-identical traces. The first write error
// is retained and silences the sink.
type JSONLSink struct {
	w   io.Writer
	buf []byte
	err error
}

// NewJSONLSink wraps w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.buf = AppendJSONL(s.buf[:0], e)
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }

// AppendJSONL appends e's canonical JSONL encoding (including the trailing
// newline) to dst. Field order is fixed: t, kind, comp, aux, v1, v2, then
// — only when the event carries trace context — tr, sp, pa. Context-free
// events keep the exact byte encoding of earlier trace formats.
func AppendJSONL(dst []byte, e Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(e.T), 10)
	dst = append(dst, `,"kind":`...)
	dst = strconv.AppendQuote(dst, e.Kind.String())
	dst = append(dst, `,"comp":`...)
	dst = strconv.AppendQuote(dst, e.Comp)
	dst = append(dst, `,"aux":`...)
	dst = strconv.AppendQuote(dst, e.Aux)
	dst = append(dst, `,"v1":`...)
	dst = strconv.AppendInt(dst, e.V1, 10)
	dst = append(dst, `,"v2":`...)
	dst = strconv.AppendInt(dst, e.V2, 10)
	if e.Trace != 0 || e.Span != 0 || e.Parent != 0 {
		dst = append(dst, `,"tr":`...)
		dst = strconv.AppendInt(dst, e.Trace, 10)
		dst = append(dst, `,"sp":`...)
		dst = strconv.AppendInt(dst, e.Span, 10)
		dst = append(dst, `,"pa":`...)
		dst = strconv.AppendInt(dst, e.Parent, 10)
	}
	dst = append(dst, '}', '\n')
	return dst
}

// jsonlRecord mirrors the canonical encoding for parsing.
type jsonlRecord struct {
	T    int64  `json:"t"`
	Kind string `json:"kind"`
	Comp string `json:"comp"`
	Aux  string `json:"aux"`
	V1   int64  `json:"v1"`
	V2   int64  `json:"v2"`
	Tr   int64  `json:"tr"`
	Sp   int64  `json:"sp"`
	Pa   int64  `json:"pa"`
}

// ParseJSONL reads a JSONL trace back into events. Blank lines are
// skipped; an unknown kind or malformed line is an error.
func ParseJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %v", line, err)
		}
		k, ok := ParseKind(rec.Kind)
		if !ok {
			return nil, fmt.Errorf("obs: trace line %d: unknown kind %q", line, rec.Kind)
		}
		out = append(out, Event{
			T: sim.Time(rec.T), Kind: k, Comp: rec.Comp, Aux: rec.Aux,
			V1: rec.V1, V2: rec.V2,
			Trace: rec.Tr, Span: rec.Sp, Parent: rec.Pa,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Simulation hookup

// AttachSim registers r as env's process-lifecycle observer: every
// simulated process spawn and exit becomes a trace event. Comp is the
// stable label (name minus the "/generation" suffix); Aux keeps the full
// per-incarnation name.
func AttachSim(env *sim.Env, r *Recorder) {
	if env == nil || r == nil {
		return
	}
	env.SetObserver(func(ev sim.ProcEvent, name string, pid, status int) {
		kind := KindProcSpawn
		if ev == sim.ProcExit {
			kind = KindProcExit
		}
		if !r.On(kind) {
			return
		}
		comp := name
		for i := len(name) - 1; i >= 0; i-- {
			if name[i] == '/' {
				comp = name[:i]
				break
			}
		}
		r.Emit(kind, comp, name, int64(status), int64(pid))
	})
}
