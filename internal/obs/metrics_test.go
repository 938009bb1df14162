package obs

import (
	"fmt"
	"testing"
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
}

func TestRegistryVisitsCountersSorted(t *testing.T) {
	g := NewRegistry()
	g.Counter("z").Add(1)
	g.Counter("a").Add(2)
	g.Counter("m").Add(3)
	var got []string
	g.VisitCounters(func(name string, v int64) {
		got = append(got, fmt.Sprintf("%s=%d", name, v))
	})
	if want := "[a=2 m=3 z=1]"; fmt.Sprint(got) != want {
		t.Fatalf("visited %v, want %s", got, want)
	}
}

// TestVisitCountersAllocatesNothing: the windowed sampler walks the
// registry at every rollover, so the walk must neither sort nor allocate.
// Counters created after others still come out in name order.
func TestVisitCountersAllocatesNothing(t *testing.T) {
	g := NewRegistry()
	for i := 0; i < 40; i++ {
		g.Counter(fmt.Sprintf("c%02d", (i*17)%40)).Add(int64(i))
	}
	var sum int64
	prev := ""
	visit := func(name string, v int64) {
		if name <= prev {
			t.Fatalf("%q visited after %q", name, prev)
		}
		prev, sum = name, sum+v
	}
	g.VisitCounters(visit)
	if sum != 40*39/2 {
		t.Fatalf("visited a sum of %d, want %d", sum, 40*39/2)
	}
	if allocs := testing.AllocsPerRun(100, func() { prev = ""; g.VisitCounters(visit) }); allocs != 0 {
		t.Fatalf("VisitCounters allocates %v times", allocs)
	}
}
