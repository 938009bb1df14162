// Package obs is the kernel-wide observability subsystem: a structured
// trace bus carrying virtual-time-stamped, typed events through pluggable
// sinks, a metrics registry of named counters, a standalone fixed-bucket
// Histogram, and a recovery-timeline builder that stitches trace events into
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
	// (Aux = the service's version, V1 = new endpoint, V2 = consecutive
	// failures). Closes a span.
	KindRestart
	// KindReintegrate is a dependent server rebinding a restarted driver
	// (Comp = server, Aux = driver label, V1 = the endpoint rebound: the V1
	// of the KindRestart whose span it completes).
	KindReintegrate
	// KindGiveUp is the reincarnation server abandoning a component's
	// recovery (Aux = defect class, or "stopped" for an administrative
	// stop of a recovering component). Closes a span.
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

	kindMax
)

// SpanKinds lists the causal-tracing kinds; disabling all of them turns
// span tracking off wholesale (StartSpan then returns the zero context).
var SpanKinds = []Kind{KindSpanBegin, KindSpanEnd, KindSpanOrphan, KindSpanLink}

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
//
// The event is passed by pointer so the fan-out copies nothing: it points
// at the recorder's own Event and is valid only for the duration of the
// call. A sink that keeps the event copies *e; none may keep the pointer,
// write through it, or emit into the recorder that called it (that would
// overwrite the event the remaining sinks are about to read).
type Sink interface {
	Emit(e *Event)
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
	perf  *perf.Profiler // wall-clock cost attribution (nil = off)

	// Causal-tracing ID allocators. The scheduler is single-threaded, so
	// plain counters are deterministic for a fixed seed+workload.
	nextTrace int64
	nextSpan  int64

	// ev is the event being fanned out: every sink gets &ev. Taking the
	// address of a local instead would move it to the heap at each emit,
	// since the interface call lets the pointer escape.
	ev Event
}

// NewRecorder creates a recorder with all event kinds enabled, a fresh
// metrics registry, and the given sinks.
func NewRecorder(sinks ...Sink) *Recorder {
	return &Recorder{sinks: sinks, mask: ^uint64(0), reg: NewRegistry()}
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

// On reports whether events of kind k are recorded. Nil-safe; hot paths
// call this before computing expensive event arguments.
func (r *Recorder) On(k Kind) bool {
	return r != nil && r.mask&(1<<uint(k)) != 0
}

// SetPerf installs the wall-clock profiler: every emitted event's
// stamping and sink fan-out runs inside RegionObs, so the cost of the
// observability stack itself shows up in the profiler's obs region. Nil-safe,
// and a nil profiler (the default) keeps the emit path free.
func (r *Recorder) SetPerf(p *perf.Profiler) {
	if r == nil {
		return
	}
	r.perf = p
}

// Emit stamps and publishes one event to every sink. Nil-safe.
func (r *Recorder) Emit(k Kind, comp, aux string, v1, v2 int64) {
	if r == nil || r.mask&(1<<uint(k)) == 0 {
		return
	}
	r.perf.Begin(perf.RegionObs)
	r.publish(k, comp, aux, v1, v2, 0, 0, 0)
	r.perf.End(perf.RegionObs)
}

// EmitCtx is Emit with a trace context attached, for events that happen
// *within* a span (IPC sends/receives carrying a context). Nil-safe.
func (r *Recorder) EmitCtx(k Kind, comp, aux string, v1, v2 int64, sc SpanContext) {
	if r == nil || r.mask&(1<<uint(k)) == 0 {
		return
	}
	r.perf.Begin(perf.RegionObs)
	r.publish(k, comp, aux, v1, v2, sc.Trace, sc.Span, 0)
	r.perf.End(perf.RegionObs)
}

// emitSpan publishes a span-lifecycle event with full trace fields.
func (r *Recorder) emitSpan(k Kind, comp, aux string, v1 int64, tr, sp, pa int64) {
	r.perf.Begin(perf.RegionObs)
	r.publish(k, comp, aux, v1, 0, tr, sp, pa)
	r.perf.End(perf.RegionObs)
}

// publish fills and stamps the recorder's own event and hands every sink
// a pointer to it. The fields are stored one by one: assigning an Event
// literal builds it on the stack and copies all 88 bytes over.
func (r *Recorder) publish(k Kind, comp, aux string, v1, v2, tr, sp, pa int64) {
	e := &r.ev
	e.T = 0
	if r.clock != nil {
		e.T = r.clock()
	}
	e.Kind, e.Comp, e.Aux = k, comp, aux
	e.V1, e.V2 = v1, v2
	e.Trace, e.Span, e.Parent = tr, sp, pa
	for _, s := range r.sinks {
		s.Emit(&r.ev)
	}
}

// Metrics returns the recorder's registry (nil for a nil recorder; the
// registry's methods are nil-safe in turn, so chained calls are free).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// ObserveRecovery counts one completed recovery of comp in the
// restarts.<comp> counter, which the window series carry.
func (r *Recorder) ObserveRecovery(comp string) {
	if r == nil {
		return
	}
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
func (s *RingSink) Emit(e *Event) {
	if !s.full && len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, *e)
		if len(s.buf) == cap(s.buf) {
			s.full = true
		}
		return
	}
	s.dropped++
	s.buf[s.next] = *e
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

// SliceSink keeps every event, unbounded (experiments use it to
// post-process a whole run's trace). Up to sliceChunk events it is one
// plainly appended []Event, so a short trace costs what a bare append
// does. Past that it stores each event as a pointer-free record in whole
// sliceChunk-record chunks: nothing it holds is copied again while the
// run emits, and the garbage collector never scans the chunks. A
// record's strings are indices into the sink's string table. Events
// decodes the records once; read it after the run.
type SliceSink struct {
	head []Event   // the first sliceChunk events; after a decode, all of them
	more *retained // nil until the first chunk is full
}

// retained is what a SliceSink keeps past its first chunk, allocated on
// the first event there: a short trace's sink is its slice and a nil
// pointer, no bigger than the sink of whole chunks was.
type retained struct {
	recs [][]record // every later event, oldest chunk first
	strs stringTable
}

// sliceChunk is the SliceSink chunk size in events: a short capture
// never reaches it, a Fig. 7 run fills dozens.
const sliceChunk = 4096

// record is one retained event past the first chunk. It holds no pointer,
// so a chunk of them is allocated noscan; TestSliceSinkRecordHoldsNoPointers
// keeps it that way. Comp and Aux are string-table indices, and kindAux
// packs the Aux index above the kind byte.
type record struct {
	T                   sim.Time
	V1, V2              int64
	Trace, Span, Parent int64
	comp                uint32
	kindAux             uint32
}

// Emit implements Sink.
func (s *SliceSink) Emit(e *Event) {
	if len(s.head) < sliceChunk {
		s.head = append(s.head, *e)
		return
	}
	m := s.more
	if m == nil {
		m = &retained{}
		s.more = m
	}
	n := len(m.recs)
	if n == 0 || len(m.recs[n-1]) == sliceChunk {
		m.recs = append(m.recs, make([]record, 0, sliceChunk))
		n++
	}
	m.recs[n-1] = append(m.recs[n-1], record{
		T: e.T, V1: e.V1, V2: e.V2,
		Trace: e.Trace, Span: e.Span, Parent: e.Parent,
		comp:    m.strs.index(e.Comp, &m.strs.comp),
		kindAux: m.strs.index(e.Aux, &m.strs.aux)<<8 | uint32(e.Kind),
	})
}

// Events returns the recorded events in emission order. A trace of one
// chunk is returned as held; a longer one is decoded into an exactly
// sized slice the first time, and later calls return that slice until
// the next Emit. A slice returned earlier is never written again.
func (s *SliceSink) Events() []Event {
	m := s.more
	if m == nil || len(m.recs) == 0 {
		return s.head
	}
	n := len(s.head)
	for _, c := range m.recs {
		n += len(c)
	}
	out := make([]Event, len(s.head), n)
	copy(out, s.head)
	for _, c := range m.recs {
		for i := range c {
			r := &c[i]
			out = append(out, Event{
				T: r.T, Kind: Kind(r.kindAux), Comp: m.strs.at(r.comp), Aux: m.strs.at(r.kindAux >> 8),
				V1: r.V1, V2: r.V2, Trace: r.Trace, Span: r.Span, Parent: r.Parent,
			})
		}
	}
	// The decoded slice is the head from now on: its length is past
	// sliceChunk, so a later Emit goes to a fresh record chunk and leaves
	// it untouched. The string table stays for the records to come.
	s.head, m.recs = out, nil
	return out
}

// stringTable interns a SliceSink's component labels and aux strings.
// Index 0 is the empty string. Labels and span names repeat: a Fig. 7
// trace finds 99 % of its strings among its field's last four, so those
// are checked before the map.
type stringTable struct {
	strs      []string // by index; strs[0] is "" once anything is interned
	ids       map[string]uint32
	comp, aux recent
}

// recent is a field's last few distinct strings and their indices.
type recent struct {
	s    [4]string
	id   [4]uint32
	next int // the slot the next miss replaces
}

// maxStrings bounds the table: an Aux index must fit in the 24 bits
// kindAux leaves above the kind.
const maxStrings = 1 << 24

// index returns str's index, adding it on first sight; r is the field's
// recent strings.
func (t *stringTable) index(str string, r *recent) uint32 {
	if str == "" {
		return 0
	}
	for i := range r.s {
		if r.s[i] == str {
			return r.id[i]
		}
	}
	id, ok := t.ids[str]
	if !ok {
		if t.ids == nil {
			t.strs = []string{""}
			t.ids = make(map[string]uint32)
		}
		if len(t.strs) == maxStrings {
			panic(fmt.Sprintf("obs: SliceSink holds %d distinct strings, the most a record can index", maxStrings))
		}
		id = uint32(len(t.strs))
		t.strs = append(t.strs, str)
		t.ids[str] = id
	}
	r.s[r.next], r.id[r.next] = str, id
	r.next = (r.next + 1) % len(r.s)
	return id
}

// at returns the string at index id.
func (t *stringTable) at(id uint32) string {
	if id == 0 {
		return ""
	}
	return t.strs[id]
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
func (s *CountSink) Emit(e *Event) {
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
func (s *JSONLSink) Emit(e *Event) {
	if s.err != nil {
		return
	}
	s.buf = AppendJSONL(s.buf[:0], *e)
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
