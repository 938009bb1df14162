package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"resilientos"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
)

// fingerprint is everything a campaign leaves behind that letting the
// members go first could disturb: what the fleet reported, and where every
// member ended up.
type fingerprint struct {
	report, csv []byte
	members     string // per member: RS event log, executed events, final clock
}

func runFingerprint(t *testing.T, cfg Config, sliceCadence bool) fingerprint {
	t.Helper()
	c := New(cfg)
	defer c.Close()
	c.sliceCadence = sliceCadence
	r := c.Run()
	var fp fingerprint
	var rep, csv bytes.Buffer
	if err := r.WriteJSON(&rep); err != nil {
		t.Fatal(err)
	}
	if err := timeseries.WriteCSV(&csv, c.Segments()); err != nil {
		t.Fatal(err)
	}
	fp.report, fp.csv = rep.Bytes(), csv.Bytes()
	for _, n := range c.Nodes() {
		fp.members += fmt.Sprintf("%s clock=%s executed=%d events=%+v\n",
			n.Name, n.Sys.Env.Now(), n.Sys.Env.EventsExecuted(), n.Sys.RS.Events())
	}
	return fp
}

// TestOneSectionMatchesSliceCadence holds the two-phase campaign — every
// member from boot to the end in one parallel section, then the fleet loop
// — to its reference: a fleet whose members and fleet loop alternate at
// every 5 ms boundary (sliceCadence, what the drain does). Reports, window
// series and each member's recovery log, event count and clock must be
// the same bytes for every storm shape — strikes on slice multiples, off
// them, several per slice, per-node Poisson chains, SWIFI injection, none
// — and any worker count.
func TestOneSectionMatchesSliceCadence(t *testing.T) {
	const nic = resilientos.DriverRTL8139
	storms := []Storm{
		{Kind: "correlated", Driver: nic, K: 2, Interval: time.Second},
		{Kind: "correlated", Driver: nic, K: 2, Interval: 1500 * time.Millisecond},
		{Kind: "correlated", Driver: nic, K: 1, Interval: 333 * time.Millisecond},
		{Kind: "correlated", Driver: nic, K: 3, Interval: 7 * time.Millisecond},
		{Kind: "poisson", Driver: nic, Mean: 400 * time.Millisecond},
		{Kind: "poisson", Driver: nic, Mean: 900 * time.Millisecond, Mode: ModeInject},
		{Kind: "none"},
	}
	for _, storm := range storms {
		for _, seed := range []int64{1, 7, 11} {
			cfg := testConfig()
			cfg.Arrivals = nil // the classic load of this seed
			cfg.Seed, cfg.Storm, cfg.Horizon = seed, storm, 2*time.Second
			want := runFingerprint(t, cfg, true)
			for _, workers := range []int{1, 3} {
				cfg.Workers = workers
				got := runFingerprint(t, cfg, false)
				name := fmt.Sprintf("storm %s seed %d workers %d", storm, seed, workers)
				if !bytes.Equal(got.report, want.report) {
					t.Errorf("%s: report differs\none section:\n%s\nslice cadence:\n%s", name, got.report, want.report)
				}
				if !bytes.Equal(got.csv, want.csv) {
					t.Errorf("%s: window CSV differs", name)
				}
				if got.members != want.members {
					t.Errorf("%s: members differ\none section:\n%s\nslice cadence:\n%s", name, got.members, want.members)
				}
			}
		}
	}
}

// TestRunAheadIsLong: a member's campaign is one job. Whatever the storm,
// the members run in one parallel section from boot to the end of the
// storm phase, and after it only the drain brings them back, one section
// per slice it lasts — not one per strike, let alone per slice. (Health-
// blind routing under a storm whose last warmup outlasts the horizon
// leaves bounced requests for the drain to wait on.)
func TestRunAheadIsLong(t *testing.T) {
	cfg := testConfig()
	cfg.Storm = Storm{Kind: "correlated", Driver: resilientos.DriverRTL8139, K: 2, Interval: 700 * time.Millisecond}
	cfg.Policy = &RoundRobin{}
	cfg.Perf = perf.New()
	c := New(cfg)
	defer c.Close()
	c.Run()
	drained := int((c.Now() - settle - sim.Time(cfg.Horizon)) / slice)
	if drained < 1 || drained > 100 {
		t.Fatalf("the drain took %d slices, want a short one", drained)
	}
	if got, want := cfg.Perf.Count(perf.RegionBarrier), uint64(1+drained); got != want {
		t.Fatalf("%d parallel sections, want %d: one for the campaign and one per drain slice", got, want)
	}
}

// TestBootRefusesBadStorm: a storm no member can be struck by, or one
// that would schedule strikes without end, is an error before anything
// runs — not a campaign that counts undelivered kills and reports 100%.
func TestBootRefusesBadStorm(t *testing.T) {
	for _, storm := range []Storm{
		{Kind: "correlated", Driver: "eth.bogus", K: 2, Interval: time.Second},
		{Kind: "poisson", Driver: "chr.audio", Mean: time.Second}, // char stack not booted for net+disk
		{Kind: "correlated", Driver: resilientos.DriverRTL8139, K: 2},
		{Kind: "correlated", Driver: resilientos.DriverRTL8139, K: 2, Interval: -time.Second},
		{Kind: "poisson", Driver: resilientos.DriverRTL8139, Mean: time.Microsecond},
		{Kind: "hail", Driver: resilientos.DriverRTL8139},
	} {
		cfg := testConfig()
		cfg.Storm = storm
		if c, err := Boot(cfg); err == nil {
			c.Close()
			t.Errorf("Boot accepted storm %+v", storm)
		}
	}
}

// The per-boundary probe runs 200 times per member per virtual second:
// with RS standing still it must not allocate, and neither may the
// re-read after RS moved (System.Health and the event-log tail).
func TestHealthProbeDoesNotAllocate(t *testing.T) {
	n := settledNode(t)
	now := n.Sys.Env.Now()
	if allocs := testing.AllocsPerRun(100, func() { n.probe(now) }); allocs != 0 {
		t.Errorf("steady-state probe allocates %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { n.rsVersion--; n.probe(now) }); allocs != 0 {
		t.Errorf("probe after RS moved allocates %v times", allocs)
	}
}

// settledNode boots one member, lets it settle, kills its NIC driver once
// so the probe has a recovery to fold, and probes it once.
func settledNode(tb testing.TB) *Node {
	n := newNode(0, 11, false, nil)
	tb.Cleanup(n.Sys.Close)
	n.Sys.Run(3 * time.Second)
	n.kill(resilientos.DriverRTL8139)
	n.Sys.Run(time.Second)
	if h, degraded := n.probe(n.Sys.Env.Now()); !h.NetOK || !h.DiskOK || degraded || n.seenEvents != 1 {
		tb.Fatalf("settled node probes %+v degraded=%v after %d recoveries", h, degraded, n.seenEvents)
	}
	return n
}

// BenchmarkHotpathHealthProbe measures the steady-state probe: one
// version compare and three deadline compares. Like the root package's
// Hotpath gates it fails if the operation ever allocates.
func BenchmarkHotpathHealthProbe(b *testing.B) {
	n := settledNode(b)
	now := n.Sys.Env.Now()
	if allocs := testing.AllocsPerRun(100, func() { n.probe(now) }); allocs != 0 {
		b.Fatalf("steady-state probe allocates %v times", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.probe(now)
	}
}
