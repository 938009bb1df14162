package obs

import (
	"slices"
	"sort"
	"strings"
	"time"
)

// Registry holds named counters. The get-or-create accessor makes call
// sites one-liners; a nil *Registry (from a nil Recorder) returns nil
// counters whose methods are no-ops, so instrumentation is free when
// observability is off. VisitCounters walks them in name order, keeping
// dumps deterministic: the registry keeps them in that order as they are
// created, so a walk neither sorts nor allocates, and a lookup is a
// binary search (callers on a hot path keep the counter they got).
type Registry struct {
	counters []namedCounter // in name order
}

type namedCounter struct {
	name string
	c    *Counter
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	i, found := slices.BinarySearchFunc(g.counters, name, func(e namedCounter, name string) int {
		return strings.Compare(e.name, name)
	})
	if !found {
		g.counters = slices.Insert(g.counters, i, namedCounter{name, &Counter{}})
	}
	return g.counters[i].c
}

// Counter is a monotonically increasing count.
type Counter struct{ v int64 }

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// LatencyBuckets is the default bucket layout for virtual-time latency
// histograms, in nanoseconds: 1ms .. 30s, roughly logarithmic, plus the
// implicit +Inf overflow bucket.
var LatencyBuckets = []int64{
	int64(1 * time.Millisecond),
	int64(2 * time.Millisecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(20 * time.Millisecond),
	int64(50 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(200 * time.Millisecond),
	int64(500 * time.Millisecond),
	int64(1 * time.Second),
	int64(2 * time.Second),
	int64(5 * time.Second),
	int64(10 * time.Second),
	int64(30 * time.Second),
}

// Histogram is a fixed-bucket histogram: counts[i] holds observations
// v <= bounds[i] (and greater than the previous bound); the final bucket
// is the +Inf overflow. Bounds are ascending and fixed at creation.
//
// Bucket boundary semantics: bucket i covers the half-open interval
// (bounds[i-1], bounds[i]] — closed on the upper end — so an observation
// exactly equal to a bound lands in that bound's bucket, not the next
// one. The overflow bucket covers (bounds[last], +Inf).
type Histogram struct {
	bounds []int64
	counts []int64
}

// NewHistogram creates a histogram with the given ascending upper bounds
// (LatencyBuckets when bounds is nil).
func NewHistogram(bounds []int64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
}

// Bucket is one histogram row for dumps.
type Bucket struct {
	UpperBound int64 // -1 for the +Inf overflow bucket
	Count      int64
}

// Buckets returns the bucket rows, ascending, including the overflow.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for i, c := range h.counts {
		ub := int64(-1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out = append(out, Bucket{UpperBound: ub, Count: c})
	}
	return out
}

// VisitCounters calls fn for every counter, in name order (deterministic).
// The windowed telemetry sampler (internal/obs/timeseries) uses this to
// compute per-window counter deltas.
func (g *Registry) VisitCounters(fn func(name string, v int64)) {
	if g == nil {
		return
	}
	for _, e := range g.counters {
		fn(e.name, e.c.v)
	}
}
