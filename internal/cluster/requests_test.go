package cluster

import (
	"testing"
	"time"

	"resilientos"
	"resilientos/internal/sim"
	"resilientos/internal/workload"
)

// TestPooledRequestLifecycle drives requests through every way an attempt
// ends — a bounce off a sick node and its retry, a re-route of an attempt
// whose node fell sick mid-flight, and a completion — and then checks the
// pool: no request is on the free list twice, none there still has an
// attempt pending, and every arrival either completed or is still out.
func TestPooledRequestLifecycle(t *testing.T) {
	cfg := testConfig()
	spec, err := workload.Classic(11, 600, cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arrivals = spec.Generate()
	cfg.Policy = &RoundRobin{}
	cfg.Storm = Storm{Kind: "correlated", Driver: resilientos.DriverRTL8139, K: 2, Interval: 700 * time.Millisecond}
	c := New(cfg)
	defer c.Close()
	r := c.Run()

	for _, why := range rerouteCauses {
		if c.reg.Counter("fleet.reroute."+why).Value() == 0 {
			t.Errorf("no %s reroute: the campaign did not take that path", why)
		}
	}
	freed := map[*request]bool{}
	for q := c.free; q != nil; q = q.next {
		if freed[q] {
			t.Fatalf("request %p is on the free list twice", q)
		}
		freed[q] = true
		if q.timer.Stop() {
			t.Errorf("freed request %p still had an attempt pending", q)
		}
	}
	if len(freed) == 0 {
		t.Fatal("no request came back to the free list")
	}
	if r.Completed+r.Incomplete != r.Requests {
		t.Fatalf("%d completed + %d incomplete != %d requests", r.Completed, r.Incomplete, r.Requests)
	}
}

// BenchmarkHotpathFleetRequest measures the request path at steady state:
// of two arrivals, one is dispatched to a healthy node and completes, the
// other bounces off a sick node and completes after its retry. Like
// BenchmarkHotpathHealthProbe it fails if the operation ever allocates.
func BenchmarkHotpathFleetRequest(b *testing.B) {
	cfg := testConfig()
	cfg.Nodes, cfg.Policy = 3, &RoundRobin{}
	c := New(cfg)
	b.Cleanup(c.Close)
	c.tracker = newTracker(c.fleet.Now(), sim.Time(cfg.Window), 1, c.classes,
		map[string]time.Duration{resilientos.ClassNet: 10 * time.Millisecond})
	// Round-robin over [healthy, sick, healthy]: the first arrival is
	// served by node00, the second bounces off node01 and its retry is
	// served by node02, which leaves the cursor on node00 again.
	ok := resilientos.Health{NetOK: true, DiskOK: true}
	c.nodes[0].health, c.nodes[2].health = ok, ok
	ev := workload.Event{Class: resilientos.ClassNet, Size: 16 << 10}
	op := func() {
		c.arrive(ev, 0)
		c.arrive(ev, 0)
		c.fleet.Run(0)
		// The latency log grows with the campaign; keep it short so that
		// no doubling of it lands inside a measured run.
		c.latencies[0] = c.latencies[0][:0]
	}
	op()
	if bounces, done := c.reroutes[rerouteSick].ctr.Value(), c.completed.ctr.Value(); bounces != 1 || done != 2 {
		b.Fatalf("one operation: %d bounces and %d completions, want 1 and 2", bounces, done)
	}
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		b.Fatalf("steady-state request path allocates %v times", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
