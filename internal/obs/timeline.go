package obs

import (
	"fmt"
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

// Timeline stitches a trace into recovery spans. Events must be in
// emission order (as every sink preserves). A KindMark event is a run
// boundary: spans still open are flushed as Open and pending
// reintegrations are forgotten, so traces of several runs can share a
// file without cross-linking.
func Timeline(events []Event) []Span {
	var out []Span
	open := make(map[string]*Span)   // component -> span awaiting restart
	closed := make(map[string][]int) // component -> out indices awaiting reintegration
	flush := func() {
		// Deterministic order: flush open spans sorted by component.
		comps := make([]string, 0, len(open))
		for c := range open {
			comps = append(comps, c)
		}
		slices.Sort(comps)
		for _, c := range comps {
			sp := open[c]
			sp.Open = true
			out = append(out, *sp)
		}
		open = make(map[string]*Span)
		closed = make(map[string][]int)
	}
	for _, e := range events {
		switch e.Kind {
		case KindMark:
			flush()
		case KindDefect:
			if sp, ok := open[e.Comp]; ok {
				// A second defect before the first recovery finished:
				// close the stale span as interrupted.
				sp.Open = true
				out = append(out, *sp)
			}
			open[e.Comp] = &Span{
				Comp: e.Comp, Defect: e.Aux, Repetition: e.V1, Start: e.T,
			}
		case KindPolicyStart:
			if sp, ok := open[e.Comp]; ok {
				sp.PolicyStart = e.T
			}
		case KindPolicyExit:
			if sp, ok := open[e.Comp]; ok {
				sp.PolicyEnd = e.T
			}
		case KindRestart:
			sp, ok := open[e.Comp]
			if !ok {
				continue // initial start, not a recovery
			}
			sp.Restart = e.T
			delete(open, e.Comp)
			out = append(out, *sp)
			closed[e.Comp] = append(closed[e.Comp], len(out)-1)
		case KindReintegrate:
			// Comp is the reintegrating server; Aux names the driver.
			idxs := closed[e.Aux]
			for n, i := range idxs {
				if out[i].Reintegrated == 0 {
					out[i].Reintegrated = e.T
					closed[e.Aux] = idxs[n+1:]
					break
				}
			}
		case KindGiveUp:
			if sp, ok := open[e.Comp]; ok {
				sp.GaveUp = true
				delete(open, e.Comp)
				out = append(out, *sp)
			}
		}
	}
	flush()
	return out
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
// nearest-rank method on the sorted values).
func Summarize(lat []sim.Time) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sorted := append([]sim.Time(nil), lat...)
	slices.Sort(sorted)
	var sum sim.Time
	for _, v := range sorted {
		sum += v
	}
	pick := func(q float64) sim.Time {
		rank := int(q*float64(len(sorted)) + 0.9999999)
		if rank < 1 {
			rank = 1
		}
		if rank > len(sorted) {
			rank = len(sorted)
		}
		return sorted[rank-1]
	}
	return LatencySummary{
		Count: len(sorted),
		Mean:  sum / sim.Time(len(sorted)),
		P50:   pick(0.50),
		P95:   pick(0.95),
		P99:   pick(0.99),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
	}
}

func (s LatencySummary) String() string {
	if s.Count == 0 {
		return "no recoveries"
	}
	r := func(d sim.Time) time.Duration { return time.Duration(d).Round(time.Millisecond) }
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, r(s.Mean), r(s.P50), r(s.P95), r(s.P99), r(s.Max))
}
