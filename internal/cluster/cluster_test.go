package cluster

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"resilientos"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/sim"
	"resilientos/internal/workload"
)

func testConfig() Config {
	const horizon = 4 * time.Second
	spec, err := workload.Classic(11, 150, horizon)
	if err != nil {
		panic(err)
	}
	return Config{
		Nodes:    4,
		Seed:     11,
		Horizon:  horizon,
		Window:   200 * time.Millisecond,
		Arrivals: spec.Generate(),
	}
}

func runBytes(t *testing.T, cfg Config) (csv, report []byte) {
	t.Helper()
	c := New(cfg)
	r := c.Run()
	var csvBuf, jsonBuf bytes.Buffer
	if err := timeseries.WriteCSV(&csvBuf, c.Segments()); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := timeseries.Validate(c.Segments(), c.sampler.Segments()[0].Windows[0].End-c.sampler.Segments()[0].Windows[0].Start); err != nil {
		t.Fatalf("timeseries.Validate: %v", err)
	}
	if err := r.WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return csvBuf.Bytes(), jsonBuf.Bytes()
}

// TestFleetDeterminism is the reproducibility contract: the same fleet
// seed yields byte-identical window series and reports across repeated
// in-process runs AND across node-advance parallelism levels.
func TestFleetDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Storm = Storm{Kind: "correlated", Driver: "eth.rtl8139", K: 2,
		Interval: 1500 * time.Millisecond}

	csv1, rep1 := runBytes(t, cfg)
	csv2, rep2 := runBytes(t, cfg)
	if !bytes.Equal(csv1, csv2) {
		t.Fatalf("repeated run: CSV differs\nrun1:\n%s\nrun2:\n%s", csv1, csv2)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("repeated run: report differs\nrun1:\n%s\nrun2:\n%s", rep1, rep2)
	}

	for _, workers := range []int{2, 3, 8} {
		wcfg := cfg
		wcfg.Workers = workers
		csvW, repW := runBytes(t, wcfg)
		if !bytes.Equal(csv1, csvW) {
			t.Fatalf("workers=%d: CSV differs from workers=1", workers)
		}
		if !bytes.Equal(rep1, repW) {
			t.Fatalf("workers=%d: report differs from workers=1\nbase:\n%s\nworkers:\n%s",
				workers, rep1, repW)
		}
	}
}

// TestFailureAwareBeatsRoundRobin is the campaign acceptance check: under
// a correlated NIC-kill storm, routing around known-sick nodes yields
// strictly higher served availability and strictly lower p99 latency
// than health-blind round-robin, while every crash still recovers.
func TestFailureAwareBeatsRoundRobin(t *testing.T) {
	base := testConfig()
	base.Storm = Storm{Kind: "correlated", Driver: "eth.rtl8139", K: 2,
		Interval: time.Second}

	rrCfg := base
	rrCfg.Policy = &RoundRobin{}
	rr := Run(rrCfg)

	faCfg := base
	faCfg.Policy = FailureAware{}
	fa := Run(faCfg)

	if rr.Policy != "round-robin" || fa.Policy != "failure-aware" {
		t.Fatalf("policy labels: %q vs %q", rr.Policy, fa.Policy)
	}
	if rr.Crashes == 0 {
		t.Fatalf("storm produced no crashes: %+v", rr)
	}
	for _, r := range []*Report{rr, fa} {
		if r.RecoveredPct != 100 || r.GaveUp != 0 {
			t.Fatalf("%s: recovery not 100%%: recovered=%.1f%% gaveup=%d crashes=%d",
				r.Policy, r.RecoveredPct, r.GaveUp, r.Crashes)
		}
		if r.Incomplete != 0 {
			t.Fatalf("%s: %d requests never completed", r.Policy, r.Incomplete)
		}
	}
	if fa.AvailabilityPct <= rr.AvailabilityPct {
		t.Fatalf("failure-aware availability %.2f%% not above round-robin %.2f%%",
			fa.AvailabilityPct, rr.AvailabilityPct)
	}
	if fa.Latency.P99 >= rr.Latency.P99 {
		t.Fatalf("failure-aware p99 %s not below round-robin %s",
			time.Duration(fa.Latency.P99), time.Duration(rr.Latency.P99))
	}
	// The node-level floor is storm-driven, not policy-driven: both runs
	// kill the same drivers at the same times.
	if rr.NodeAvailabilityPct != fa.NodeAvailabilityPct {
		t.Fatalf("node availability floor should be policy-independent: %.2f%% vs %.2f%%",
			rr.NodeAvailabilityPct, fa.NodeAvailabilityPct)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"round-robin", "least-loaded", "failure-aware"} {
		p, err := ParsePolicy(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatalf("ParsePolicy(bogus) succeeded")
	}
}

func TestParseStorm(t *testing.T) {
	cases := []struct {
		spec string
		want Storm
		ok   bool
	}{
		{"none", Storm{Kind: "none", Driver: "eth.rtl8139", K: 2,
			Interval: 2 * time.Second, Mean: time.Second}, true},
		{"", Storm{Kind: "none", Driver: "eth.rtl8139", K: 2,
			Interval: 2 * time.Second, Mean: time.Second}, true},
		{"correlated:disk.sata,k=3,every=500ms",
			Storm{Kind: "correlated", Driver: "disk.sata", K: 3,
				Interval: 500 * time.Millisecond, Mean: time.Second}, true},
		{"poisson:eth.dp8390,mean=750ms",
			Storm{Kind: "poisson", Driver: "eth.dp8390", K: 2,
				Interval: 2 * time.Second, Mean: 750 * time.Millisecond}, true},
		{"hail:everything", Storm{}, false},
		{"correlated:eth.rtl8139,k=0", Storm{}, false},
		{"poisson:eth.rtl8139,mean=xyz", Storm{}, false},
		// A storm is a kill storm: there is no fault-mode key.
		{"poisson:eth.rtl8139,mode=inject", Storm{}, false},
		{"correlated:eth.rtl8139,mode=kill", Storm{}, false},
		// A spacing below 1 ms is 10⁹ fleet events per virtual second at
		// the extreme; the floor is the Poisson arm's own gap clamp.
		{"correlated:eth.rtl8139,every=1ns", Storm{}, false},
		{"correlated:eth.rtl8139,every=999us", Storm{}, false},
		{"correlated:eth.rtl8139,every=0s", Storm{}, false},
		{"correlated:eth.rtl8139,every=-1s", Storm{}, false},
		{"poisson:eth.rtl8139,mean=1us", Storm{}, false},
		{"correlated:eth.rtl8139,every=1ms", Storm{Kind: "correlated", Driver: "eth.rtl8139", K: 2,
			Interval: time.Millisecond, Mean: time.Second}, true},
		{"poisson:eth.rtl8139,mean=1ms", Storm{Kind: "poisson", Driver: "eth.rtl8139", K: 2,
			Interval: 2 * time.Second, Mean: time.Millisecond}, true},
	}
	for _, tc := range cases {
		got, err := ParseStorm(tc.spec)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseStorm(%q): err=%v, want ok=%v", tc.spec, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("ParseStorm(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	// Round trip: String output re-parses to the same storm.
	for _, spec := range []string{
		"correlated:disk.sata,k=3,every=500ms",
		"poisson:eth.dp8390,mean=750ms",
	} {
		s, err := ParseStorm(spec)
		if err != nil {
			t.Fatalf("ParseStorm(%q): %v", spec, err)
		}
		again, err := ParseStorm(s.String())
		if err != nil || again != s {
			t.Fatalf("round trip %q -> %q -> %+v (err %v)", spec, s.String(), again, err)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for fleet := int64(0); fleet < 4; fleet++ {
		for i := 0; i < 16; i++ {
			s := deriveSeed(fleet, i)
			if s <= 0 {
				t.Fatalf("deriveSeed(%d,%d) = %d, want positive", fleet, i, s)
			}
			if seen[s] {
				t.Fatalf("deriveSeed(%d,%d) = %d collides", fleet, i, s)
			}
			seen[s] = true
		}
	}
}

// BenchmarkHotpathFleetWindow measures one window rollover of the fleet's
// sampler: every fleet counter of a finished campaign moves, and the
// rollover closes the window over the registry and the node status. It
// fails above the window's own two rows, the counter deltas and the
// status column, each allocated once at its length; a registry walk that
// sorts or allocates again, or a row that grows by appends, trips it.
func BenchmarkHotpathFleetWindow(b *testing.B) {
	cfg := testConfig()
	cfg.Horizon = time.Second
	c := New(cfg)
	b.Cleanup(c.Close)
	c.Run()
	c.sampler.Attach(c.fleet) // a fresh segment on the finished campaign
	ctrs := []*counter{&c.arrived, &c.completed}
	for _, f := range [][]counter{c.arrivals, c.dispatched, c.reroutes} {
		for i := range f {
			ctrs = append(ctrs, &f[i])
		}
	}
	op := func() {
		for _, k := range ctrs {
			k.inc()
		}
		c.fleet.Run(sim.Time(cfg.Window))
	}
	op()
	segs := c.Segments()
	w := segs[len(segs)-1].Windows[0]
	if len(w.Counters) != len(ctrs) || len(w.Status) != cfg.Nodes {
		b.Fatalf("one rollover: %d counter deltas and %d status entries, want %d and %d",
			len(w.Counters), len(w.Status), len(ctrs), cfg.Nodes)
	}
	if allocs := testing.AllocsPerRun(100, op); allocs > 2 {
		b.Fatalf("one window rollover allocates %v times, want its 2 rows", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestFleetHourHeapBound holds a long campaign's memory: four members
// under a k=2 NIC kill storm every second for one virtual hour, serving
// the classic load (720,110 requests, 7,200 kills, 14,400 windows). The
// live heap after a collection must stay under 64 MB in all (45.9 MB
// measured, 28.8 MB of it the arrival list), and the run itself may add
// at most 20 MB to what Boot left (15.1 MB measured: the latency logs
// sized from the arrivals, 5.8 MB, then the window series and the
// members' recovery logs). A request, event or window that keeps more
// than its row trips it.
func TestFleetHourHeapBound(t *testing.T) {
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := live()
	c := New(Config{Nodes: 4, Seed: 1, Horizon: time.Hour,
		Storm: Storm{Kind: "correlated", Driver: resilientos.DriverRTL8139, K: 2, Interval: time.Second}})
	defer c.Close()
	booted := live()
	r := c.Run()
	ran := live()
	if r.Kills != 7200 || r.Windows != 14400 || r.Completed != r.Requests {
		t.Fatalf("%d kills, %d windows, %d of %d requests completed: want 7200, 14400 and all",
			r.Kills, r.Windows, r.Completed, r.Requests)
	}
	const mb = 1e6
	t.Logf("live heap: %.1f MB booted, %.1f MB after the hour", float64(booted-base)/mb, float64(ran-base)/mb)
	if ran-base > 64*mb || ran-booted > 20*mb {
		t.Fatalf("live heap %.1f MB after the hour, %.1f MB of it added by the run: want at most 64 and 20",
			float64(ran-base)/mb, float64(ran-booted)/mb)
	}
	runtime.KeepAlive(c)
}
