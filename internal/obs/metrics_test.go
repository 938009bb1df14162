package obs

import (
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 50})
	for _, v := range []int64{1, 10, 11, 20, 21, 50, 51, 1000} {
		h.Observe(v)
	}
	// v <= 10 -> bucket 0; 11..20 -> 1; 21..50 -> 2; rest overflow.
	b := h.Buckets()
	wantCounts := []int64{2, 2, 2, 2}
	wantBounds := []int64{10, 20, 50, -1}
	if len(b) != 4 {
		t.Fatalf("bucket rows = %d, want 4", len(b))
	}
	for i := range b {
		if b[i].Count != wantCounts[i] || b[i].UpperBound != wantBounds[i] {
			t.Fatalf("bucket %d = %+v, want ub=%d n=%d", i, b[i], wantBounds[i], wantCounts[i])
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1+10+11+20+21+50+51+1000 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 50})
	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket <=10
	}
	for i := 0; i < 10; i++ {
		h.Observe(30) // bucket <=50
	}
	if q := h.Quantile(0.50); q != 10 {
		t.Fatalf("p50 = %d, want 10", q)
	}
	if q := h.Quantile(0.99); q != 50 {
		t.Fatalf("p99 = %d, want 50", q)
	}
	// Overflow observations report the largest finite bound.
	h2 := NewHistogram([]int64{10})
	h2.Observe(100)
	if q := h2.Quantile(0.5); q != 10 {
		t.Fatalf("overflow quantile = %d, want 10", q)
	}
}

// TestHistogramQuantileRankSemantics pins the nearest-rank percentile
// behaviour the bench gate depends on (recovery-latency p95 is a gated
// metric): the target rank is round(q*n) clamped to >= 1, the reported
// value is always a bucket upper bound (conservative, never below the
// true quantile), and there is no intra-bucket interpolation.
func TestHistogramQuantileRankSemantics(t *testing.T) {
	// 20 observations, one per bucket-edge-straddling value: ranks are
	// exact so rounding is observable. Buckets: <=10 (10 obs), <=20
	// (5), <=50 (5).
	h := NewHistogram([]int64{10, 20, 50})
	for i := 0; i < 10; i++ {
		h.Observe(10) // exactly on a bound: lands in that bound's bucket
	}
	for i := 0; i < 5; i++ {
		h.Observe(11)
	}
	for i := 0; i < 5; i++ {
		h.Observe(50)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.50, 10}, // rank 10: last observation of the first bucket
		{0.52, 10}, // rank round(10.4) = 10: still the first bucket
		{0.53, 20}, // rank round(10.6) = 11: first observation past it
		{0.75, 20}, // rank 15: last of the middle bucket
		{0.76, 20}, // rank round(15.2) = 15: nearest rank stays in the middle bucket
		{0.78, 50}, // rank round(15.6) = 16: the top bucket
		{0.95, 50},
		{1.00, 50},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %d, want %d", c.q, got, c.want)
		}
	}

	// Quantiles falling in the same bucket are indistinguishable: p90 and
	// p99 of a single-bucket population report the same bound.
	one := NewHistogram([]int64{100, 200})
	for i := 0; i < 1000; i++ {
		one.Observe(int64(150))
	}
	if p90, p99 := one.Quantile(0.90), one.Quantile(0.99); p90 != 200 || p99 != 200 {
		t.Errorf("single-bucket p90/p99 = %d/%d, want 200/200", p90, p99)
	}

	// Tiny populations: rank clamps to 1, so any q maps to the only
	// observation's bucket.
	single := NewHistogram([]int64{10, 20})
	single.Observe(15)
	for _, q := range []float64{0.01, 0.5, 0.999} {
		if got := single.Quantile(q); got != 20 {
			t.Errorf("n=1 Quantile(%g) = %d, want 20", q, got)
		}
	}
	// Empty and nil histograms report 0.
	if got := NewHistogram(nil).Quantile(0.95); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.95); got != 0 {
		t.Errorf("nil Quantile = %d, want 0", got)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := NewHistogram([]int64{50, 10, 20})
	h.Observe(15)
	b := h.Buckets()
	if b[0].UpperBound != 10 || b[1].UpperBound != 20 || b[1].Count != 1 {
		t.Fatalf("bounds not sorted: %+v", b)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	g := NewRegistry()
	c1 := g.Counter("restarts.eth")
	c1.Add(2)
	if g.Counter("restarts.eth") != c1 {
		t.Fatal("counter not cached")
	}
	if c1.Value() != 2 {
		t.Fatalf("counter = %d", c1.Value())
	}
	g.Gauge("procs").Set(7)
	if g.Gauge("procs").Value() != 7 {
		t.Fatal("gauge lost value")
	}
	h := g.Histogram("lat", nil)
	h.Observe(int64(3 * time.Millisecond))
	if g.Histogram("lat", []int64{1}) != h {
		t.Fatal("histogram not cached")
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	g := NewRegistry()
	g.Counter("z").Add(1)
	g.Counter("a").Add(1)
	g.Gauge("m").Set(5)
	snap := g.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot rows = %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot not sorted: %v", snap)
		}
	}
	if got := snap[1].String(); got != "m: 5" {
		t.Fatalf("gauge row = %q", got)
	}
	h := g.Histogram("lat", nil)
	h.Observe(int64(2 * time.Millisecond))
	h.Observe(int64(4 * time.Millisecond))
	if got := g.Snapshot()[1].String(); got != "lat: n=2 mean=3ms" {
		t.Fatalf("histogram row = %q", got)
	}
}
