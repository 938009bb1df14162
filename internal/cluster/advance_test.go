package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
	members     string // per member: RS event log, executed events, final clock, probe answers

	// The fleet's crashes, and how many of them ended recovered or given up.
	crashes, settled int

	// Where the walk stopped: boundaries the fleet clock ticked at, and
	// boundaries each member was probed at, summed; and how many
	// boundaries there were from settle to the fleet's and each member's
	// final clock, summed likewise.
	ticks, probes           int
	tickBounds, probeBounds int
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
	fp.crashes, fp.settled = r.Crashes, r.Recovered+r.GaveUp
	bounds := func(clock sim.Time) int { return int((clock-settle)/slice) + 1 }
	fp.ticks, fp.tickBounds = c.ticks, bounds(c.Now())
	for _, n := range c.Nodes() {
		fp.members += fmt.Sprintf("%s clock=%s executed=%d events=%+v changes=%+v\n",
			n.Name, n.Sys.Env.Now(), n.Sys.Env.EventsExecuted(), n.Sys.RS.Events(), n.changes)
		fp.probes += n.probes
		fp.probeBounds += bounds(n.Sys.Env.Now())
	}
	return fp
}

// TestOneSectionMatchesSliceCadence holds the two-phase campaign — every
// member from boot to the end in one parallel section, stepping only to
// the boundaries where something can change, then the fleet loop, ticking
// only where a member's answer changes — to its reference: a fleet whose
// members and fleet loop alternate at every 5 ms boundary (sliceCadence,
// what the drain does), each member probed at every boundary and the
// fleet clock ticked at every one. Reports, window series and each
// member's recovery log, event count and clock must be the same bytes for
// every storm shape — strikes on slice multiples, off them, several per
// slice, per-node Poisson chains, a disk driver whose restart takes its
// reset delay, none — with and without the char class (whose members boot
// the codec, and one of whose storms kills its driver), and for any worker
// count. A storm that strikes must crash its victim, and every crash must
// end recovered or given up: a storm whose strikes crash nothing would
// compare two runs of nothing.
func TestOneSectionMatchesSliceCadence(t *testing.T) {
	const nic = resilientos.DriverRTL8139
	rows := []struct {
		storm Storm
		char  bool // the testSpec load: net, disk and char classes
	}{
		{storm: Storm{Kind: "correlated", Driver: nic, K: 2, Interval: time.Second}},
		{storm: Storm{Kind: "correlated", Driver: nic, K: 2, Interval: 1500 * time.Millisecond}},
		{storm: Storm{Kind: "correlated", Driver: nic, K: 1, Interval: 333 * time.Millisecond}},
		{storm: Storm{Kind: "correlated", Driver: nic, K: 3, Interval: 7 * time.Millisecond}},
		{storm: Storm{Kind: "poisson", Driver: nic, Mean: 400 * time.Millisecond}},
		{storm: Storm{Kind: "poisson", Driver: resilientos.DriverSATA, Mean: 700 * time.Millisecond}},
		{storm: Storm{Kind: "none"}},
		{storm: Storm{Kind: "correlated", Driver: nic, K: 2, Interval: time.Second}, char: true},
		{storm: Storm{Kind: "poisson", Driver: resilientos.DriverAudio, Mean: 500 * time.Millisecond}, char: true},
	}
	var ticks, probes, refTicks, refProbes int
	for _, row := range rows {
		for _, seed := range []int64{1, 7, 11} {
			cfg := testConfig()
			if row.char {
				cfg = workloadConfig(t)
			} else {
				cfg.Arrivals = nil // the classic load of this seed
			}
			cfg.Seed, cfg.Storm, cfg.Horizon = seed, row.storm, 2*time.Second
			want := runFingerprint(t, cfg, true)
			name := fmt.Sprintf("storm %s char %v seed %d", row.storm, row.char, seed)
			if want.ticks != want.tickBounds || want.probes != want.probeBounds {
				t.Fatalf("%s: the reference ticked %d of %d boundaries and probed %d of %d",
					name, want.ticks, want.tickBounds, want.probes, want.probeBounds)
			}
			if row.storm.Kind != "none" && (want.crashes == 0 || want.settled != want.crashes) {
				t.Errorf("%s: %d crashes, %d of them recovered or given up: want at least one, and all",
					name, want.crashes, want.settled)
			}
			for _, workers := range []int{1, 3} {
				cfg.Workers = workers
				got := runFingerprint(t, cfg, false)
				name := fmt.Sprintf("%s workers %d", name, workers)
				if !bytes.Equal(got.report, want.report) {
					t.Errorf("%s: report differs\none section:\n%s\nslice cadence:\n%s", name, got.report, want.report)
				}
				if !bytes.Equal(got.csv, want.csv) {
					t.Errorf("%s: window CSV differs", name)
				}
				if got.members != want.members {
					t.Errorf("%s: members differ\none section:\n%s\nslice cadence:\n%s", name, got.members, want.members)
				}
				ticks, probes = ticks+got.ticks, probes+got.probes
				refTicks, refProbes = refTicks+want.ticks, refProbes+want.probes
			}
		}
	}
	// The jumps must be taken, or the comparison above held the
	// reference to itself.
	if 2*ticks > refTicks || 2*probes > refProbes {
		t.Errorf("one section ticked %d times and probed %d, the reference %d and %d: want under half",
			ticks, probes, refTicks, refProbes)
	}
}

// TestAdvanceMatchesEverySlice holds a member's jumps to the walk through
// every boundary where a fleet storm never goes: RS's answer moving at an
// instant off the 5 ms grid. Besides the strikes of its list, each member
// kills a driver at random instants from events of its own, so the change
// shows only at the first boundary after a member event and the warmup
// ends between two boundaries. Every other member has RS's heartbeats off,
// so no ping to the restarted driver falls where its warmup ends, and the
// campaign ends off their 500 ms grid. The jumping member is advanced in
// random chunks, the reference one boundary at a time; probe answers,
// clock and executed events must agree, and the jumps must skip most
// boundaries.
func TestAdvanceMatchesEverySlice(t *testing.T) {
	victims := []string{resilientos.DriverRTL8139, resilientos.DriverSATA, resilientos.DriverAudio}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		end := settle + 4*time.Second + 35*time.Millisecond
		heartbeat := time.Duration(0) // the default
		if seed%2 == 0 {
			heartbeat = -1
		}
		offGrid := func() sim.Time { return settle + sim.Time(rng.Int63n(int64(end-settle))) }
		var kills, strikes []sim.Time
		for range 5 {
			kills = append(kills, offGrid())
		}
		for range 3 {
			strikes = append(strikes, offGrid())
		}
		slices.Sort(strikes)
		member := func(everySlice bool) *Node {
			n := &Node{
				Sys:        resilientos.New(resilientos.Config{Seed: seed, HeartbeatPeriod: heartbeat}),
				next:       settle,
				everySlice: everySlice,
			}
			t.Cleanup(n.Sys.Close)
			n.victim, n.strikes = resilientos.DriverRTL8139, strikes
			for i, at := range kills {
				n.Sys.After(at, func() { n.Sys.KillDriver(victims[i%len(victims)]) })
			}
			return n
		}
		ref, got := member(true), member(false)
		ref.advance(end)
		for to := settle; to < end; {
			to = min(end, to+slice*sim.Time(1+rng.Intn(80)))
			got.advance(to)
		}
		state := func(n *Node) string {
			return fmt.Sprintf("clock=%s executed=%d struck=%d events=%+v changes=%+v",
				n.Sys.Env.Now(), n.Sys.Env.EventsExecuted(), n.struck, n.Sys.RS.Events(), n.changes)
		}
		if g, w := state(got), state(ref); g != w {
			t.Fatalf("seed %d: jumping member\n%s\nevery boundary\n%s", seed, g, w)
		}
		if len(ref.changes) < 2*len(kills) || 2*got.probes > ref.probes {
			t.Fatalf("seed %d: %d answers changed, probed at %d of %d boundaries: want the kills seen and most boundaries skipped",
				seed, len(ref.changes), got.probes, ref.probes)
		}
	}
}

// sampleBarrier is the tracker's booking of one barrier as the fleet loop
// did it at every slice: the reference for sampleBarriers.
func sampleBarrier(t *tracker, at sim.Time, healthy []int, recoveringNodes int) {
	t.barriers++
	t.overlapSum += int64(recoveringNodes)
	if recoveringNodes > t.overlapMax {
		t.overlapMax = recoveringNodes
	}
	w := t.window(at)
	for c, h := range healthy {
		t.healthySum[c] += int64(h)
		if w >= 0 && h < t.minHealthy[c][w] {
			t.minHealthy[c][w] = h
		}
	}
}

// TestSampleBarriersMatchesPerBarrier holds the fleet loop's one-step
// booking of the barriers it skips to a booking at each of them
// (sampleBarrier): random runs of 1–40 barriers with random counts,
// starting before the first window and ending past the last (the drain),
// so runs cross window edges, start and end on them, and fall outside
// every window.
func TestSampleBarriersMatchesPerBarrier(t *testing.T) {
	classes := []string{resilientos.ClassNet, resilientos.ClassDisk, resilientos.ClassChar}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := slice * sim.Time(1+rng.Intn(6))
		got := newTracker(settle, width, 12, classes, nil)
		want := newTracker(settle, width, 12, classes, nil)
		healthy := make([]int, len(classes))
		for at := settle - 10*slice; at < settle+15*width; {
			n := sim.Time(1 + rng.Intn(40))
			for c := range healthy {
				healthy[c] = rng.Intn(5)
			}
			recovering := rng.Intn(4)
			last := at + (n-1)*slice
			got.sampleBarriers(at, last, healthy, recovering)
			for b := at; b <= last; b += slice {
				sampleBarrier(want, b, healthy, recovering)
			}
			at = last + slice
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: one-step booking\n%+v\nper barrier\n%+v", seed, got, want)
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
	n.Sys.KillDriver(resilientos.DriverRTL8139)
	n.Sys.Run(time.Second)
	if h, degraded := n.probe(n.Sys.Env.Now()); !h.NetOK || !h.DiskOK || degraded || n.seenEvents != 1 {
		tb.Fatalf("settled node probes %+v degraded=%v after %d recoveries", h, degraded, n.seenEvents)
	}
	return n
}

// Only a kill on a class's path puts that class into its warmup: 300 ms
// after the second NIC's driver (eth.dp8390, on no class's path) dies and
// recovers, the member serves net and is not degraded; 300 ms after the
// primary NIC's driver dies, net is still warming.
func TestWarmupOnlyForClassPath(t *testing.T) {
	for _, tc := range []struct {
		victim string
		warms  bool
	}{
		{resilientos.DriverDP8390, false},
		{resilientos.DriverRTL8139, true},
	} {
		n := newNode(0, 11, false, nil)
		n.Sys.Run(3 * time.Second)
		n.Sys.KillDriver(tc.victim)
		n.Sys.Run(300 * time.Millisecond)
		h, degraded := n.probe(n.Sys.Env.Now())
		if n.seenEvents != 1 || h.Recovering != 0 {
			t.Errorf("%s: %d recoveries folded, %d recovering; want 1 and 0", tc.victim, n.seenEvents, h.Recovering)
		}
		if h.NetOK == tc.warms || degraded != tc.warms {
			t.Errorf("%s killed 300 ms ago: NetOK=%v degraded=%v, want warming=%v", tc.victim, h.NetOK, degraded, tc.warms)
		}
		n.Sys.Close()
	}
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
