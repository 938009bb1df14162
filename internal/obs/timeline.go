package obs

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"resilientos/internal/sim"
)

// Span is one component's recovery timeline, stitched from trace events:
// defect detected → (optional policy script) → restart published →
// (optional dependent reintegration). All timestamps are virtual time;
// zero means "did not happen / not seen in the trace".
type Span struct {
	Comp       string // the failed component's stable label
	Defect     string // defect class at detection
	Repetition int64  // consecutive-failure count at detection

	Start        sim.Time // defect detected
	PolicyStart  sim.Time // recovery script spawned
	PolicyEnd    sim.Time // recovery script finished
	Restart      sim.Time // fresh instance published in the data store
	Reintegrated sim.Time // first dependent server rebound the new instance

	GaveUp bool // the reincarnation server abandoned the component
	Open   bool // trace ended (or a run boundary hit) before completion
}

// Latency is the span's effective recovery latency: detection to
// reintegration when a dependent reintegrated, detection to restart
// otherwise. Incomplete and given-up spans report 0.
func (s Span) Latency() sim.Time {
	switch {
	case s.GaveUp || s.Open || s.Start == 0:
		return 0
	case s.Reintegrated != 0:
		return s.Reintegrated - s.Start
	case s.Restart != 0:
		return s.Restart - s.Start
	}
	return 0
}

func (s Span) String() string {
	state := "recovered"
	switch {
	case s.GaveUp:
		state = "gave-up"
	case s.Open:
		state = "open"
	}
	return fmt.Sprintf("%s %s rep=%d start=%v latency=%v %s",
		s.Comp, s.Defect, s.Repetition, s.Start, s.Latency(), state)
}

// Stitcher is a sink that stitches recovery spans per component as
// events arrive, in emission order: a defect opens a span, the policy
// events annotate it, a restart closes it, and a reintegration completes
// the closed span whose restart published the endpoint it rebinds. A
// KindMark event is a run boundary: spans still open are flushed as Open
// and pending reintegrations are forgotten, so the runs of one stream
// never cross-link. Every other kind is ignored.
type Stitcher struct {
	out    []Span
	open   map[string]*Span // component -> span awaiting restart
	closed map[instance]int // restarted instance -> out index awaiting reintegration
}

// instance is a restarted driver's label and published endpoint.
type instance struct {
	comp string
	ep   int64
}

// NewStitcher returns a stitcher that has seen no events.
func NewStitcher() *Stitcher {
	return &Stitcher{open: make(map[string]*Span), closed: make(map[instance]int)}
}

// Emit implements Sink.
func (s *Stitcher) Emit(e *Event) {
	switch e.Kind {
	case KindMark:
		s.out = s.Spans()
		clear(s.open)
		clear(s.closed)
	case KindDefect:
		if sp, ok := s.open[e.Comp]; ok {
			// A second defect before the first recovery finished:
			// close the stale span as interrupted.
			sp.Open = true
			s.out = append(s.out, *sp)
		}
		s.open[e.Comp] = &Span{Comp: e.Comp, Defect: e.Aux, Repetition: e.V1, Start: e.T}
	case KindPolicyStart:
		if sp, ok := s.open[e.Comp]; ok {
			sp.PolicyStart = e.T
		}
	case KindPolicyExit:
		if sp, ok := s.open[e.Comp]; ok {
			sp.PolicyEnd = e.T
		}
	case KindRestart:
		sp, ok := s.open[e.Comp]
		if !ok {
			return // initial start, not a recovery
		}
		sp.Restart = e.T
		delete(s.open, e.Comp)
		s.out = append(s.out, *sp)
		s.closed[instance{e.Comp, e.V1}] = len(s.out) - 1
	case KindReintegrate:
		// Comp is the reintegrating server; Aux names the driver and V1
		// the endpoint rebound. The first dependent to rebind it
		// completes the span; a restart nobody rebinds stays as it is.
		key := instance{e.Aux, e.V1}
		if i, ok := s.closed[key]; ok {
			s.out[i].Reintegrated = e.T
			delete(s.closed, key)
		}
	case KindGiveUp:
		if sp, ok := s.open[e.Comp]; ok {
			sp.GaveUp = true
			delete(s.open, e.Comp)
			s.out = append(s.out, *sp)
		}
	}
}

// Spans returns the spans stitched so far: the closed ones in the order
// they closed, then the open ones sorted by component and marked Open.
// It leaves the stitcher as it was, so a run can read it and go on.
func (s *Stitcher) Spans() []Span {
	comps := make([]string, 0, len(s.open))
	for c := range s.open {
		comps = append(comps, c)
	}
	slices.Sort(comps) // map order is not deterministic
	out := slices.Clone(s.out)
	for _, c := range comps {
		sp := *s.open[c]
		sp.Open = true
		out = append(out, sp)
	}
	return out
}

// Timeline stitches a whole trace into recovery spans (see Stitcher).
// Events must be in emission order, as every sink preserves.
func Timeline(events []Event) []Span {
	s := NewStitcher()
	for i := range events {
		s.Emit(&events[i])
	}
	return s.Spans()
}

// RecoveryLatencies extracts the effective latencies of completed spans;
// comp filters to one component ("" = all).
func RecoveryLatencies(spans []Span, comp string) []sim.Time {
	var out []sim.Time
	for _, s := range spans {
		if comp != "" && s.Comp != comp {
			continue
		}
		if d := s.Latency(); d > 0 || (!s.Open && !s.GaveUp && s.Restart != 0) {
			out = append(out, d)
		}
	}
	return out
}

// LatencySummary is the distribution summary experiments report.
type LatencySummary struct {
	Count               int
	Mean, P50, P95, P99 sim.Time
	Min, Max            sim.Time
}

// Summarize computes exact percentiles over the given latencies (the
// nearest-rank method on the sorted values). lat is left as it is.
func Summarize(lat []sim.Time) LatencySummary {
	return SummarizeInPlace(append([]sim.Time(nil), lat...))
}

// SummarizeInPlace is Summarize for a caller done with the order of lat:
// it reorders lat, selecting each percentile's rank within it, where
// Summarize sorts a copy.
func SummarizeInPlace(lat []sim.Time) LatencySummary {
	n := len(lat)
	if n == 0 {
		return LatencySummary{}
	}
	s := LatencySummary{Count: n, Min: lat[0], Max: lat[0]}
	var sum sim.Time
	for _, v := range lat {
		sum += v
		s.Min, s.Max = min(s.Min, v), max(s.Max, v)
	}
	s.Mean = sum / sim.Time(n)
	// The ranks ascend, so each selection needs only the part of lat the
	// one before left at or above its rank.
	pick := func(q float64, from int) int {
		rank := int(q*float64(n) + 0.9999999)
		k := min(max(rank, 1), n) - 1
		selectNth(lat[from:], k-from)
		return k
	}
	k := pick(0.50, 0)
	s.P50 = lat[k]
	k = pick(0.95, k)
	s.P95 = lat[k]
	s.P99 = lat[pick(0.99, k)]
	return s
}

// selectNth reorders a so that a[k] holds the value a sorted a would, with
// no greater value before it and no smaller one after it: quickselect
// with a median-of-three pivot and a three-way partition, so runs of
// equal values cost one pass. Past 2·log2(len(a)) rounds it sorts what is
// left, which bounds the worst case at a sort's.
func selectNth(a []sim.Time, k int) {
	lo, hi := 0, len(a) // a[k] lies in a[lo:hi]
	for rounds := 2 * bits.Len(uint(len(a))); hi-lo > 12 && rounds > 0; rounds-- {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		p := max(min(x, y), min(max(x, y), z))
		// a[lo:lt] < p, a[lt:i] == p, a[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	slices.Sort(a[lo:hi])
}

func (s LatencySummary) String() string {
	if s.Count == 0 {
		return "no recoveries"
	}
	r := func(d sim.Time) time.Duration { return time.Duration(d).Round(time.Millisecond) }
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, r(s.Mean), r(s.P50), r(s.P95), r(s.P99), r(s.Max))
}
