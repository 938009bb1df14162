// Command simspeed measures the simulator's own wall-clock speed — the
// meta-benchmark behind BENCH_simspeed.json. It runs a fixed battery of
// three scenarios through internal/perf:
//
//   - fig7: the Fig. 7 wget transfer under periodic driver kills, with
//     the full observability stack attached (trace recorder with spans,
//     windowed sampler, live invariant checker, decision log);
//   - fleet: a 4-node lockstep cluster under a correlated kill storm;
//   - campaign: a SWIFI campaign shard (one seed, one victim).
//
// Each scenario runs twice: instrumented (obs stack on) and bare (nil
// recorders), yielding an obs-on vs obs-off overhead matrix on top of
// the per-region cost attribution (scheduler step, kernel IPC, ucode
// VM, obs recording, invariant checker, decision log, timeseries
// rollovers, lockstep barrier). The fleet scenario's recorder is
// structural (the report is built from it), so its bare run is an
// identical re-run and its overhead column reads the run-to-run noise
// floor instead.
//
// The output document separates the two planes the profiler keeps
// apart: scenario event counts, region entry counts, and virtual time
// are deterministic for a fixed seed (byte-reproducible, hard-gated by
// cmd/benchgate); events/sec, ns/event, and allocs/event observe the
// host machine (gated warn-only). -det zeroes the wall-clock fields so
// two runs can be byte-compared — the determinism-separation gate CI
// enforces.
//
//	simspeed                          # battery, table + BENCH_simspeed.json
//	simspeed -det -json a.json        # deterministic skeleton only
//	simspeed -cpuprofile cpu.pprof    # profile the profiler's subject
//	simspeed -folded simspeed.folded  # wall + virtual folded stacks
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"resilientos"
	"resilientos/internal/bench"
	"resilientos/internal/campaign"
	"resilientos/internal/check"
	"resilientos/internal/cluster"
	"resilientos/internal/fi"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/obs/profile"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("simspeed", flag.ContinueOnError)
	jsonPath := fs.String("json", "BENCH_simspeed.json", "write the BENCH_simspeed.json document here (empty = skip)")
	det := fs.Bool("det", false, "zero wall-clock fields in the JSON so repeated runs are byte-comparable")
	seed := fs.Int64("seed", 1, "scenario seed")
	quick := fs.Bool("quick", false, "smaller battery (CI smoke / tests)")
	only := fs.String("scenario", "", "comma-separated scenario filter (fig7,fleet,campaign; empty = all)")
	foldedPath := fs.String("folded", "", "write merged wall+virtual folded stacks (fig7 scenario) here")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the battery here")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile after the battery here")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("usage: simspeed [-json file] [-det] [-seed n] [-quick] [-scenario list] [-folded file] [-cpuprofile file] [-memprofile file]")
	}

	o := defaults(*seed)
	if *quick {
		o = quickOpts(*seed)
	}
	if *only != "" {
		o.filter = make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			o.filter[strings.TrimSpace(name)] = true
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return 2, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return 2, err
		}
		defer pprof.StopCPUProfile()
	}

	doc, folded := battery(o)
	render(os.Stdout, doc)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return 2, err
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return 2, err
		}
		if err := f.Close(); err != nil {
			return 2, err
		}
	}
	if *foldedPath != "" {
		if err := os.WriteFile(*foldedPath, folded, 0o644); err != nil {
			return 2, err
		}
	}
	if *jsonPath != "" {
		out := doc
		if *det {
			out = doc.Canonical()
		}
		if err := bench.WriteFile(*jsonPath, out); err != nil {
			return 2, err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return 0, nil
}

// options sizes the battery. The quick preset keeps every scenario's
// structure (same regions exercised) at a fraction of the virtual time.
type options struct {
	seed           int64
	fig7Size       int64
	fig7Kill       time.Duration
	fleetNodes     int
	fleetHorizon   time.Duration
	campaignFaults int
	filter         map[string]bool
}

func defaults(seed int64) options {
	return options{
		seed:           seed,
		fig7Size:       8 << 20,
		fig7Kill:       2 * time.Second,
		fleetNodes:     4,
		fleetHorizon:   4 * time.Second,
		campaignFaults: 6,
	}
}

func quickOpts(seed int64) options {
	return options{
		seed:           seed,
		fig7Size:       1 << 20,
		fig7Kill:       time.Second,
		fleetNodes:     2,
		fleetHorizon:   time.Second,
		campaignFaults: 2,
	}
}

func (o options) want(name string) bool {
	return o.filter == nil || o.filter[name]
}

// battery runs every selected scenario instrumented and bare, and
// returns the bench document plus the fig7 merged folded stacks.
func battery(o options) (bench.Simspeed, []byte) {
	doc := bench.Simspeed{Schema: bench.SchemaSimspeed, Seed: o.seed}
	var folded []byte
	start := time.Now()
	if o.want("fig7") {
		inst, lines := runFig7(o, true)
		bare, _ := runFig7(o, false)
		folded = lines
		doc.Scenarios = append(doc.Scenarios, scenarioDoc("fig7", inst, bare))
	}
	if o.want("fleet") {
		inst := runFleet(o)
		bare := runFleet(o)
		doc.Scenarios = append(doc.Scenarios, scenarioDoc("fleet", inst, bare))
	}
	if o.want("campaign") {
		inst := runCampaign(o, true)
		bare := runCampaign(o, false)
		doc.Scenarios = append(doc.Scenarios, scenarioDoc("campaign", inst, bare))
	}
	doc.WallClockS = time.Since(start).Seconds()
	return doc, folded
}

// runFig7 is the single-node scenario: boot a network-only system,
// settle, and pull the Fig. 7 transfer through it under periodic driver
// kills. Instrumented attaches the full observability stack — trace
// recorder with spans on, windowed sampler, live invariant checker,
// decision log — exercising every region but the barrier; bare runs
// the identical workload with nil recorders.
func runFig7(o options, instrumented bool) (*perf.Profiler, []byte) {
	p := perf.New()
	var rec *obs.Recorder
	var events *obs.SliceSink
	var decRec *decision.Recorder
	if instrumented {
		events = &obs.SliceSink{}
		rec = obs.NewRecorder(events)
		// Spans stay ON (the folded merge needs them); only the
		// per-frame IPC kinds are dropped, as in every analysis run.
		rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
		decRec = decision.NewRecorder(&decision.SliceSink{})
	}
	p.Start(0)
	sys := resilientos.New(resilientos.Config{
		Seed:        o.seed,
		DisableDisk: true,
		DisableChar: true,
		Obs:         rec,
		Decisions:   decRec,
		Perf:        p,
	})
	var ck *check.Checker
	var sampler *timeseries.Sampler
	if instrumented {
		ck = check.Attach(sys.Env, rec, check.Config{
			Kernel: sys.Kernel,
			RS:     sys.RS,
			DS:     sys.DS,
			Now:    sys.Env.Now,
		})
		sampler = timeseries.New(timeseries.Config{
			Window:   time.Second,
			Registry: rec.Metrics(),
			Status:   sys.StatusFunc(),
		})
		sampler.SetPerf(p)
		sampler.Attach(sys.Env)
		rec.AddSink(sampler)
	}
	sys.Run(3 * time.Second) // boot settle

	sys.ServeFile(80, o.seed, o.fig7Size)
	var res resilientos.WgetResult
	sys.Wget(resilientos.DriverRTL8139, 80, o.seed, o.fig7Size, &res)
	done := func() bool { return res.Duration != 0 || res.Err != nil }
	sys.Every(o.fig7Kill, func() {
		if !done() {
			sys.KillDriver(resilientos.DriverRTL8139)
		}
	})
	horizon := sys.Env.Now() + sim.Time(120*time.Second)
	for !done() && sys.Env.Now() < horizon {
		sys.Run(100 * time.Millisecond)
	}
	if sampler != nil {
		sampler.Finish()
	}
	if ck != nil {
		ck.Finish()
	}
	p.Finish(sys.Env.Now())

	var folded []byte
	if instrumented {
		// Merge planes: the virtual-time profiler's folded span stacks
		// (weights in virtual µs) plus the wall-clock region self-times
		// ("wall:<region>", weights in wall µs) in one flamegraph feed.
		var buf bytes.Buffer
		profile.Build(events.Events()).WriteFolded(&buf)
		for _, ln := range p.FoldedLines() {
			fmt.Fprintln(&buf, ln)
		}
		folded = buf.Bytes()
	}
	return p, folded
}

// runFleet is the lockstep scenario: a correlated kill storm over a
// small fleet, exercising the barrier region and many sequentially
// advanced member environments sharing one profiler. The fleet's
// recorder and sampler are structural (the report is built from them),
// so there is no nil-recorder variant; callers run it twice and read
// the overhead column as the noise floor.
func runFleet(o options) *perf.Profiler {
	p := perf.New()
	p.Start(0)
	c := cluster.New(cluster.Config{
		Nodes:   o.fleetNodes,
		Seed:    o.seed,
		Horizon: o.fleetHorizon,
		RPS:     150,
		Storm: cluster.Storm{
			Kind:     "correlated",
			Driver:   resilientos.DriverRTL8139,
			K:        2,
			Interval: time.Second,
		},
		Perf: p,
	})
	c.Run()
	p.Finish(c.Now())
	c.Close()
	return p
}

// runCampaign is the SWIFI shard scenario: one seed, one victim, two
// mutation classes. Instrumented attaches the live invariant checker
// and the decision log to every cell; the cell trace recorder itself
// is structural (recovery latencies are harvested from it) and stays
// on in both variants.
func runCampaign(o options, instrumented bool) *perf.Profiler {
	p := perf.New()
	p.Start(0)
	campaign.Run(campaign.Config{
		Seeds:         []int64{o.seed},
		Victims:       []string{resilientos.DriverRTL8139},
		FaultTypes:    []fi.FaultType{fi.FaultSrcReg, fi.FaultPointer},
		FaultsPerCell: o.campaignFaults,
		Invariants:    instrumented,
		Decisions:     instrumented,
		Perf:          p,
	})
	p.Finish(0) // per-cell clocks; no single virtual end time
	return p
}

// scenarioDoc folds an instrumented and a bare profiler into one
// scenario row of the bench document.
func scenarioDoc(name string, inst, bare *perf.Profiler) bench.SimspeedScenario {
	ir, br := inst.Report(), bare.Report()
	sc := bench.SimspeedScenario{
		Name:             name,
		Events:           ir.Events,
		BareEvents:       br.Events,
		VirtualMs:        float64(ir.VirtualNs) / 1e6,
		ObsEvents:        inst.Count(perf.RegionObs),
		WallMs:           float64(ir.WallNs) / 1e6,
		EventsPerSec:     ir.EventsPerSec,
		NsPerEvent:       ir.NsPerEvent,
		AllocsPerEvent:   ir.AllocsPerEvent,
		VirtualPerWall:   ir.VirtualPerWall,
		BareWallMs:       float64(br.WallNs) / 1e6,
		BareEventsPerSec: br.EventsPerSec,
	}
	if br.NsPerEvent > 0 {
		sc.OverheadPct = 100 * (ir.NsPerEvent - br.NsPerEvent) / br.NsPerEvent
	}
	for _, rr := range ir.Regions {
		sc.Regions = append(sc.Regions, bench.SimspeedRegion{
			Region:         rr.Region,
			Count:          rr.Count,
			Samples:        rr.Samples,
			TotalNs:        rr.TotalNs,
			SelfNs:         rr.SelfNs,
			NsPerEntry:     rr.NsPerEntry,
			AllocsPerEntry: rr.AllocsPerEntry,
		})
	}
	return sc
}

// render prints the human table: the scenario matrix, then each
// scenario's region attribution.
func render(w *os.File, doc bench.Simspeed) {
	fmt.Fprintf(w, "simspeed battery (seed %d, %.1fs wall)\n\n", doc.Seed, doc.WallClockS)
	fmt.Fprintf(w, "%-10s %10s %12s %9s %9s %10s %14s %9s\n",
		"SCENARIO", "EVENTS", "EV/SEC", "NS/EV", "ALLOC/EV", "VIRT/WALL", "BARE-EV/SEC", "OBS-OVH%")
	for _, sc := range doc.Scenarios {
		fmt.Fprintf(w, "%-10s %10d %12.0f %9.0f %9.1f %10.1f %14.0f %+8.1f%%\n",
			sc.Name, sc.Events, sc.EventsPerSec, sc.NsPerEvent, sc.AllocsPerEvent,
			sc.VirtualPerWall, sc.BareEventsPerSec, sc.OverheadPct)
	}
	for _, sc := range doc.Scenarios {
		fmt.Fprintf(w, "\n%s regions:\n", sc.Name)
		fmt.Fprintf(w, "  %-12s %10s %12s %12s %10s %10s\n",
			"REGION", "COUNT", "TOTAL(us)", "SELF(us)", "NS/ENTRY", "ALLOC/ENT")
		for _, rr := range sc.Regions {
			if rr.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-12s %10d %12d %12d %10.0f %10.2f\n",
				rr.Region, rr.Count, rr.TotalNs/1000, rr.SelfNs/1000,
				rr.NsPerEntry, rr.AllocsPerEntry)
		}
	}
}
