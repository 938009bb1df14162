// The -perfetto export renders an obs event stream as a Chrome trace-event
// / Perfetto JSON document (https://ui.perfetto.dev loads it directly).
// Components become tracks, causal spans become complete ("X") slices in
// virtual time, recovery milestones become instant events, and causal
// edges — span links and IPC send/receive pairs — become flow arrows.
//
// The encoding is hand-rolled with a fixed field order and a fixed event
// order (metadata, then slices by span ID, then instants, then flows in
// input order), so a fixed seed+workload produces a byte-identical
// document — the determinism gate CI enforces by exporting twice and
// comparing.

package main

import (
	"sort"
	"strconv"

	"resilientos/internal/obs"
	"resilientos/internal/sim"
)

// instantKinds are the recovery milestones rendered as instant events.
var instantKinds = map[obs.Kind]bool{
	obs.KindDefect:      true,
	obs.KindRestart:     true,
	obs.KindReintegrate: true,
	obs.KindGiveUp:      true,
}

// perfettoJSON renders events as a complete trace document.
func perfettoJSON(events []obs.Event) []byte {
	var d traceDoc
	d.build(events)
	return d.out
}

// traceDoc accumulates the output document.
type traceDoc struct {
	out   []byte
	first bool // next traceEvents element is the first
	pid   int  // current segment's process id
	tids  map[string]int
}

// build renders the whole document. Span and trace IDs are only unique
// within one mark-delimited segment (each experiment run boots a fresh
// recorder), so every segment is rendered as its own Perfetto process —
// resolving IDs across segments would silently merge unrelated spans.
func (d *traceDoc) build(events []obs.Event) {
	d.out = append(d.out, `{"displayTimeUnit":"ms","traceEvents":[`...)
	d.first = true
	flowID := 0
	for i, seg := range obs.Segments(events) {
		d.segment(i+1, seg, &flowID)
	}
	d.out = append(d.out, `]}`...)
	d.out = append(d.out, '\n')
}

// segment renders one mark-delimited run as process pid.
func (d *traceDoc) segment(pid int, events []obs.Event, flowID *int) {
	d.pid = pid
	forest := obs.BuildForest(events)

	// Track table: every component that owns a span or an instant event,
	// one tid each, in sorted-name order.
	comps := map[string]bool{}
	for _, s := range forest.ByID {
		comps[s.Comp] = true
	}
	for _, e := range events {
		if instantKinds[e.Kind] {
			comps[e.Comp] = true
		}
	}
	names := make([]string, 0, len(comps))
	for c := range comps {
		names = append(names, c)
	}
	sort.Strings(names)
	d.tids = make(map[string]int, len(names))
	for i, c := range names {
		d.tids[c] = i + 1
	}

	procName := "trace"
	if len(events) > 0 && events[0].Kind == obs.KindMark && events[0].Aux != "" {
		procName = events[0].Aux
	}
	d.procMeta(procName)
	for _, c := range names {
		d.meta(c)
	}
	for _, s := range orderedByID(forest) {
		d.slice(s)
	}
	for _, e := range events {
		if instantKinds[e.Kind] {
			d.instant(e)
		}
	}
	for _, l := range forest.Links {
		from, to := forest.ByID[l.From], forest.ByID[l.To]
		if from == nil || to == nil {
			continue
		}
		*flowID++
		// Arrow from the predecessor's terminal to the successor's start.
		d.flow("s", l.Kind, *flowID, to.Comp, to.End)
		d.flow("f", l.Kind, *flowID, from.Comp, from.Start)
	}
	for _, f := range ipcFlows(events, d.tids) {
		*flowID++
		d.flow("s", "ipc", *flowID, f.src, f.sendT)
		d.flow("f", "ipc", *flowID, f.dst, f.recvT)
	}
}

// procMeta emits the process_name metadata record naming one segment.
func (d *traceDoc) procMeta(name string) {
	d.sep()
	d.out = append(d.out, `{"name":"process_name","ph":"M","pid":`...)
	d.out = strconv.AppendInt(d.out, int64(d.pid), 10)
	d.out = append(d.out, `,"tid":0,"args":{"name":`...)
	d.out = strconv.AppendQuote(d.out, name)
	d.out = append(d.out, `}}`...)
}

func (d *traceDoc) sep() {
	if d.first {
		d.first = false
		return
	}
	d.out = append(d.out, ',')
}

// meta emits the thread_name metadata record naming one track.
func (d *traceDoc) meta(comp string) {
	d.sep()
	d.out = append(d.out, `{"name":"thread_name","ph":"M","pid":`...)
	d.out = strconv.AppendInt(d.out, int64(d.pid), 10)
	d.out = append(d.out, `,"tid":`...)
	d.out = strconv.AppendInt(d.out, int64(d.tids[comp]), 10)
	d.out = append(d.out, `,"args":{"name":`...)
	d.out = strconv.AppendQuote(d.out, comp)
	d.out = append(d.out, `}}`...)
}

// slice emits one span as a complete ("X") event.
func (d *traceDoc) slice(s *obs.TraceSpan) {
	d.sep()
	d.out = append(d.out, `{"name":`...)
	d.out = strconv.AppendQuote(d.out, s.Name)
	d.out = append(d.out, `,"cat":"span","ph":"X","ts":`...)
	d.out = appendMicros(d.out, s.Start)
	d.out = append(d.out, `,"dur":`...)
	d.out = appendMicros(d.out, s.End-s.Start)
	d.out = append(d.out, `,"pid":`...)
	d.out = strconv.AppendInt(d.out, int64(d.pid), 10)
	d.out = append(d.out, `,"tid":`...)
	d.out = strconv.AppendInt(d.out, int64(d.tids[s.Comp]), 10)
	d.out = append(d.out, `,"args":{"trace":`...)
	d.out = strconv.AppendInt(d.out, s.Trace, 10)
	d.out = append(d.out, `,"span":`...)
	d.out = strconv.AppendInt(d.out, s.ID, 10)
	switch {
	case s.Orphaned:
		d.out = append(d.out, `,"orphaned":`...)
		d.out = strconv.AppendQuote(d.out, s.Reason)
	case s.Closed:
		d.out = append(d.out, `,"status":`...)
		d.out = strconv.AppendInt(d.out, s.Status, 10)
	default:
		d.out = append(d.out, `,"open":true`...)
	}
	d.out = append(d.out, `}`...)
	// Color orphaned spans so crashes stand out in the UI.
	if s.Orphaned {
		d.out = append(d.out, `,"cname":"terrible"`...)
	}
	d.out = append(d.out, `}`...)
}

// instant emits one recovery milestone as a thread-scoped instant event.
func (d *traceDoc) instant(e obs.Event) {
	d.sep()
	d.out = append(d.out, `{"name":`...)
	name := e.Kind.String()
	if e.Aux != "" {
		name += ":" + e.Aux
	}
	d.out = strconv.AppendQuote(d.out, name)
	d.out = append(d.out, `,"cat":"recovery","ph":"i","s":"t","ts":`...)
	d.out = appendMicros(d.out, e.T)
	d.out = append(d.out, `,"pid":`...)
	d.out = strconv.AppendInt(d.out, int64(d.pid), 10)
	d.out = append(d.out, `,"tid":`...)
	d.out = strconv.AppendInt(d.out, int64(d.tids[e.Comp]), 10)
	d.out = append(d.out, `}`...)
}

// flow emits one half of a flow arrow (ph "s" start / "f" finish).
func (d *traceDoc) flow(ph, kind string, id int, comp string, t sim.Time) {
	d.sep()
	d.out = append(d.out, `{"name":`...)
	d.out = strconv.AppendQuote(d.out, kind)
	d.out = append(d.out, `,"cat":"flow","ph":`...)
	d.out = strconv.AppendQuote(d.out, ph)
	d.out = append(d.out, `,"id":`...)
	d.out = strconv.AppendInt(d.out, int64(id), 10)
	d.out = append(d.out, `,"ts":`...)
	d.out = appendMicros(d.out, t)
	d.out = append(d.out, `,"pid":`...)
	d.out = strconv.AppendInt(d.out, int64(d.pid), 10)
	d.out = append(d.out, `,"tid":`...)
	d.out = strconv.AppendInt(d.out, int64(d.tids[comp]), 10)
	if ph == "f" {
		d.out = append(d.out, `,"bp":"e"`...)
	}
	d.out = append(d.out, `}`...)
}

// ipcFlow is one matched send/receive pair carrying a span context.
type ipcFlow struct {
	src, dst     string
	sendT, recvT sim.Time
}

// ipcFlows pairs context-carrying ipc.send events with the receive that
// consumed them: a send to component Aux matches the first later ipc.recv
// by that component with the same span context. Pairs whose endpoints
// have no track (no spans) are skipped.
func ipcFlows(events []obs.Event, tids map[string]int) []ipcFlow {
	type key struct {
		dst   string
		trace int64
		span  int64
	}
	pending := map[key][]int{} // -> indices into events, FIFO
	var out []ipcFlow
	for i, e := range events {
		if e.Trace == 0 {
			continue
		}
		switch e.Kind {
		case obs.KindIPCSend:
			k := key{dst: e.Aux, trace: e.Trace, span: e.Span}
			pending[k] = append(pending[k], i)
		case obs.KindIPCRecv:
			k := key{dst: e.Comp, trace: e.Trace, span: e.Span}
			q := pending[k]
			if len(q) == 0 {
				continue
			}
			send := events[q[0]]
			pending[k] = q[1:]
			if tids[send.Comp] == 0 || tids[e.Comp] == 0 {
				continue
			}
			out = append(out, ipcFlow{
				src: send.Comp, dst: e.Comp,
				sendT: send.T, recvT: e.T,
			})
		}
	}
	return out
}

// appendMicros renders a virtual-time nanosecond count as microseconds,
// with a 3-digit fraction only when the value isn't whole (trace-event ts
// is a double; integer math keeps the text deterministic).
func appendMicros(dst []byte, t sim.Time) []byte {
	ns := int64(t)
	dst = strconv.AppendInt(dst, ns/1000, 10)
	if rem := ns % 1000; rem != 0 {
		dst = append(dst, '.')
		dst = append(dst, byte('0'+rem/100), byte('0'+rem/10%10), byte('0'+rem%10))
	}
	return dst
}

func orderedByID(f *obs.Forest) []*obs.TraceSpan {
	out := make([]*obs.TraceSpan, 0, len(f.ByID))
	for _, s := range f.ByID {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
