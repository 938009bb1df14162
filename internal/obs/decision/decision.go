// Package decision is the recovery-decision trace: every choice the
// reincarnation server makes — declaring a driver stuck, escalating
// SIGTERM to SIGKILL, picking direct restart vs. a policy script,
// spending restart budget, giving up — becomes one structured Event,
// linked by trace ID to the recover:<label> episode spans of package
// obs. Policy-script execution is traced at step granularity (each
// command with its argv, exit status, and variable state), so a
// script-driven recovery leaves a readable "why" trail.
//
// Like obs, everything is deterministic and nil-safe: a nil *Recorder
// is valid and free, timestamps are virtual time, and the JSONL
// encoding has a fixed field order so same-seed runs produce
// byte-identical decision logs (usable as golden files and as the
// replay substrate of faultbench -replay).
package decision

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"resilientos/internal/perf"
	"resilientos/internal/sim"
)

// Kind is the type tag of a decision event.
type Kind uint8

// The decision taxonomy. Kinds are stable: their String values are the
// on-disk JSONL identifiers.
const (
	// KindMark is an annotation (run/cell boundaries). Offline verifiers
	// reset their per-service state at a mark, so independent runs can
	// share one decision log.
	KindMark Kind = iota + 1
	// KindTrigger is an RS-initiated choice made *before* a defect
	// materializes: declaring a heartbeat-silent driver stuck, killing on
	// a server complaint, granting an update its termination grace, or
	// escalating SIGTERM to SIGKILL. Triggers stand outside recovery
	// episodes (the kill they cause opens one).
	KindTrigger
	// KindDetect is a defect being attributed and a recovery episode
	// opening (Defect = class, Failures/Budget = consecutive-failure
	// count and restarts remaining, Detail = heartbeat history window).
	KindDetect
	// KindAction is the chosen recovery action for an open episode:
	// "restart-direct", "policy-run" (Detail = script argv), "give-up".
	KindAction
	// KindPolicyStep is one executed policy-script command (Action =
	// command name, Detail = expanded argv plus variable state, Status =
	// exit status, Delay = parsed sleep duration for the sleep builtin).
	// The synthetic final step "exit" carries the script's return code.
	KindPolicyStep
	// KindOutcome is the terminal decision of an episode: "recovered"
	// (Status 0), "gave-up" or "stopped" (Status 1; an administrative stop
	// overtook the recovery), with Latency = virtual time from detection
	// to terminal.
	KindOutcome

	kindMax
)

var kindNames = [...]string{
	KindMark:       "mark",
	KindTrigger:    "trigger",
	KindDetect:     "detect",
	KindAction:     "action",
	KindPolicyStep: "policy",
	KindOutcome:    "outcome",
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
		if name != "" && name == s {
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

// DefectName names a defect class (the numeric values of
// core.Defect, which are also the $2 argument of policy scripts).
// Unknown classes render as "class(N)".
func DefectName(class int) string {
	switch class {
	case 0:
		return "-"
	case 1:
		return "exit"
	case 2:
		return "exception"
	case 3:
		return "killed"
	case 4:
		return "heartbeat"
	case 5:
		return "complaint"
	case 6:
		return "update"
	}
	return fmt.Sprintf("class(%d)", class)
}

// Event is one recovery decision. T is virtual time; Service is the
// stable component label the decision is about. Defect, Failures and
// Budget snapshot the RS state the decision was computed from (Budget
// is restarts remaining before give-up, -1 = unlimited). Action names
// the choice; Detail carries kind-specific context (heartbeat window,
// script argv, variable state). Delay is a computed wait (termination
// grace, policy backoff), Status an exit/outcome status, Latency the
// detect-to-terminal recovery latency on outcomes. Trace/Span link the
// event to its obs recovery-episode span (zero when spans are off).
type Event struct {
	T        sim.Time
	Kind     Kind
	Service  string
	Defect   int
	Failures int
	Budget   int
	Action   string
	Detail   string
	Delay    sim.Time
	Status   int64
	Latency  sim.Time

	Trace int64
	Span  int64
}

// Sink receives every event the recorder emits. Sinks run synchronously
// in scheduler order, so anything they do must be deterministic.
type Sink interface {
	Emit(Event)
}

// Recorder is the decision bus: it stamps events with virtual time,
// filters by kind, and fans out to its sinks. A nil *Recorder is valid —
// every method is a no-op — so the RS hot path with decision tracing
// off costs a single nil check per decision point.
type Recorder struct {
	clock func() sim.Time
	sinks []Sink
	mask  uint64 // bit i set = Kind(i) enabled

	perf *perf.Profiler // wall-clock cost attribution (nil = off)
}

// NewRecorder creates a recorder with all kinds enabled.
func NewRecorder(sinks ...Sink) *Recorder {
	return &Recorder{sinks: sinks, mask: ^uint64(0)}
}

// SetClock installs the virtual-time source (the simulation
// environment's Now). Events emitted before a clock is set are stamped
// with their pre-filled T (zero by default).
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

// Disable turns the given kinds off; their Emit calls become no-ops and
// On reports false (instrumentation uses On to skip argument work).
func (r *Recorder) Disable(kinds ...Kind) {
	if r == nil {
		return
	}
	for _, k := range kinds {
		r.mask &^= 1 << uint(k)
	}
}

// On reports whether events of kind k are recorded. Nil-safe; the RS
// calls this before computing expensive event details (heartbeat
// windows, joined argv).
func (r *Recorder) On(k Kind) bool {
	return r != nil && r.mask&(1<<uint(k)) != 0
}

// SetPerf installs the wall-clock profiler: every emitted event's
// stamping and sink fan-out runs inside RegionDecision. Nil-safe; a nil
// profiler (the default) keeps the emit path free.
func (r *Recorder) SetPerf(p *perf.Profiler) {
	if r == nil {
		return
	}
	r.perf = p
}

// Emit stamps e with the current virtual time and publishes it to every
// sink. Nil-safe.
func (r *Recorder) Emit(e Event) {
	if r == nil || r.mask&(1<<uint(e.Kind)) == 0 {
		return
	}
	r.perf.Begin(perf.RegionDecision)
	if r.clock != nil {
		e.T = r.clock()
	}
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.perf.End(perf.RegionDecision)
}

// SliceSink appends every event to an unbounded slice.
type SliceSink struct {
	events []Event
}

// Emit implements Sink.
func (s *SliceSink) Emit(e Event) { s.events = append(s.events, e) }

// Events returns the recorded events in emission order (not a copy).
func (s *SliceSink) Events() []Event { return s.events }

// AppendJSONL appends e's canonical JSONL encoding (including the
// trailing newline) to dst. Field order is fixed — t, kind, svc,
// defect, failures, budget, action, detail, delay, status, latency,
// then tr and sp only when the event carries span linkage — so
// same-seed runs produce byte-identical logs.
func AppendJSONL(dst []byte, e Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(e.T), 10)
	dst = append(dst, `,"kind":`...)
	dst = strconv.AppendQuote(dst, e.Kind.String())
	dst = append(dst, `,"svc":`...)
	dst = strconv.AppendQuote(dst, e.Service)
	dst = append(dst, `,"defect":`...)
	dst = strconv.AppendInt(dst, int64(e.Defect), 10)
	dst = append(dst, `,"failures":`...)
	dst = strconv.AppendInt(dst, int64(e.Failures), 10)
	dst = append(dst, `,"budget":`...)
	dst = strconv.AppendInt(dst, int64(e.Budget), 10)
	dst = append(dst, `,"action":`...)
	dst = strconv.AppendQuote(dst, e.Action)
	dst = append(dst, `,"detail":`...)
	dst = strconv.AppendQuote(dst, e.Detail)
	dst = append(dst, `,"delay":`...)
	dst = strconv.AppendInt(dst, int64(e.Delay), 10)
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, e.Status, 10)
	dst = append(dst, `,"latency":`...)
	dst = strconv.AppendInt(dst, int64(e.Latency), 10)
	if e.Trace != 0 || e.Span != 0 {
		dst = append(dst, `,"tr":`...)
		dst = strconv.AppendInt(dst, e.Trace, 10)
		dst = append(dst, `,"sp":`...)
		dst = strconv.AppendInt(dst, e.Span, 10)
	}
	dst = append(dst, '}', '\n')
	return dst
}

// Encode renders events as a canonical JSONL document.
func Encode(events []Event) []byte {
	var dst []byte
	for _, e := range events {
		dst = AppendJSONL(dst, e)
	}
	return dst
}

// jsonlRecord mirrors the canonical encoding for parsing.
type jsonlRecord struct {
	T        int64  `json:"t"`
	Kind     string `json:"kind"`
	Svc      string `json:"svc"`
	Defect   int    `json:"defect"`
	Failures int    `json:"failures"`
	Budget   int    `json:"budget"`
	Action   string `json:"action"`
	Detail   string `json:"detail"`
	Delay    int64  `json:"delay"`
	Status   int64  `json:"status"`
	Latency  int64  `json:"latency"`
	Tr       int64  `json:"tr"`
	Sp       int64  `json:"sp"`
}

// ParseJSONL reads a decision log back into events. The parser is
// strict — unknown fields, unknown kinds, and malformed lines are
// errors, never panics — and re-encoding its output reproduces a
// canonical log byte-for-byte (the round-trip property the fuzz target
// holds). Blank lines are skipped; lines are capped at 1 MiB.
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
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var rec jsonlRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("decision: log line %d: %v", line, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("decision: log line %d: trailing data after record", line)
		}
		k, ok := ParseKind(rec.Kind)
		if !ok {
			return nil, fmt.Errorf("decision: log line %d: unknown kind %q", line, rec.Kind)
		}
		out = append(out, Event{
			T: sim.Time(rec.T), Kind: k, Service: rec.Svc,
			Defect: rec.Defect, Failures: rec.Failures, Budget: rec.Budget,
			Action: rec.Action, Detail: rec.Detail,
			Delay: sim.Time(rec.Delay), Status: rec.Status, Latency: sim.Time(rec.Latency),
			Trace: rec.Tr, Span: rec.Sp,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Check verifies a decision log's well-formedness offline, mirroring
// the live internal/check invariant: a detect opens an episode for its
// service, actions and policy steps only occur inside one, each episode
// gets exactly one terminal outcome, and policy steps only occur inside
// a policy run opened by a "policy-run" action and closed by its "exit"
// step. Marks reset all state (independent runs sharing one log).
// Returns a description of every problem found (nil = well-formed).
func Check(events []Event) []string {
	var problems []string
	open := map[string]sim.Time{}      // service -> detect time
	policyRun := map[string]sim.Time{} // service -> policy-run time
	for i, e := range events {
		switch e.Kind {
		case KindMark:
			open = map[string]sim.Time{}
			policyRun = map[string]sim.Time{}
		case KindTrigger:
			// Triggers stand outside episodes by design.
		case KindDetect:
			open[e.Service] = e.T
		case KindAction:
			if _, ok := open[e.Service]; !ok {
				problems = append(problems, fmt.Sprintf(
					"event %d at %v: action %q for %s outside an open episode",
					i, e.T, e.Action, e.Service))
			}
			if e.Action == "policy-run" {
				policyRun[e.Service] = e.T
			}
		case KindPolicyStep:
			if _, ok := policyRun[e.Service]; !ok {
				problems = append(problems, fmt.Sprintf(
					"event %d at %v: policy step %q for %s outside a policy run",
					i, e.T, e.Action, e.Service))
			}
			if e.Action == "exit" {
				delete(policyRun, e.Service)
			}
		case KindOutcome:
			if _, ok := open[e.Service]; !ok {
				problems = append(problems, fmt.Sprintf(
					"event %d at %v: terminal decision %q for %s without an open episode",
					i, e.T, e.Action, e.Service))
			} else {
				delete(open, e.Service)
			}
		default:
			problems = append(problems, fmt.Sprintf(
				"event %d at %v: unknown kind %d", i, e.T, int(e.Kind)))
		}
	}
	// Map-derived tail problems get a sorted, deterministic order.
	var tail []string
	for svc, t := range open {
		tail = append(tail, fmt.Sprintf(
			"episode for %s detected at %v has no terminal decision", svc, t))
	}
	for svc, t := range policyRun {
		tail = append(tail, fmt.Sprintf(
			"policy run for %s started at %v never exited", svc, t))
	}
	sort.Strings(tail)
	return append(problems, tail...)
}
