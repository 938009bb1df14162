// Command simspeed is the simulator's exact-count drift gate and
// profiling harness. It runs a fixed battery of three scenarios through
// internal/perf:
//
//   - fig7: the Fig. 7 wget transfer under periodic driver kills, with
//     the full observability stack attached (trace recorder with spans,
//     windowed sampler, live invariant checker, decision log);
//   - fleet: a 4-node cluster under a correlated kill storm;
//   - campaign: a SWIFI campaign shard (one seed, one victim).
//
// Each scenario runs twice: instrumented (obs stack on) and bare (nil
// recorders). The fleet scenario's recorder is structural (the report is
// built from it), so its bare run is an identical re-run.
//
// It reports only what a run this short can resolve: scheduler events
// instrumented and bare, trace events emitted, virtual time simulated,
// and per region (scheduler step, kernel IPC, ucode VM, obs recording,
// invariant checker, decision log, timeseries rollovers, fleet
// barrier) the entry and alloc-sample counts. All of it is a function of
// the seed: the same code must execute the same events, so the seed-1
// document is committed (testdata/BENCH_simspeed_seed1.json) and any
// drift is a behaviour change. How fast the host runs the simulator is
// benchmark/'s job (go -C benchmark run .); the pprof and folded-stack
// flags here say where the time goes.
//
//	simspeed                          # battery, table only
//	simspeed -bench-json a.json       # also write the bench document
//	simspeed -cpuprofile cpu.pprof    # profile the profiler's subject
//	simspeed -folded simspeed.folded  # wall + virtual folded stacks
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
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
	"resilientos/internal/workload"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("simspeed", flag.ContinueOnError)
	benchJSON := fs.String("bench-json", "", "write the machine-readable result (internal/bench document) to this file")
	seed := fs.Int64("seed", 1, "scenario seed")
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
		return 2, fmt.Errorf("usage: simspeed [-bench-json file] [-seed n] [-scenario list] [-folded file] [-cpuprofile file] [-memprofile file]")
	}

	o := options{seed: *seed}
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
	render(stdout, doc)

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
	if *benchJSON != "" {
		if err := bench.WriteFile(*benchJSON, doc); err != nil {
			return 2, err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *benchJSON)
	}
	return 0, nil
}

// options selects the battery: the seed and which scenarios to run.
type options struct {
	seed   int64
	filter map[string]bool // nil = all
}

func (o options) want(name string) bool {
	return o.filter == nil || o.filter[name]
}

// battery runs every selected scenario instrumented and bare, and
// returns the bench document plus the fig7 merged folded stacks.
func battery(o options) (bench.Doc, []byte) {
	doc := bench.New("simspeed", map[string]string{"seed": strconv.FormatInt(o.seed, 10)})
	var folded []byte
	if o.want("fig7") {
		inst, lines := runFig7(o, true)
		bare, _ := runFig7(o, false)
		folded = lines
		addScenario(&doc, "fig7", inst, bare)
	}
	if o.want("fleet") {
		addScenario(&doc, "fleet", runFleet(o), runFleet(o))
	}
	if o.want("campaign") {
		addScenario(&doc, "campaign", runCampaign(o, true), runCampaign(o, false))
	}
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

	const fig7Size = 8 << 20
	sys.ServeFile(80, o.seed, fig7Size)
	var res resilientos.WgetResult
	sys.Wget(resilientos.DriverRTL8139, 80, o.seed, fig7Size, &res)
	done := func() bool { return res.Duration != 0 || res.Err != nil }
	sys.Every(2*time.Second, func() {
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

// runFleet is the fleet scenario: a correlated kill storm over a
// small fleet, exercising the barrier region and many sequentially
// advanced member environments sharing one profiler. The fleet's
// recorder and sampler are structural (the report is built from them),
// so there is no nil-recorder variant; callers run it twice and read
// the overhead column as the noise floor.
func runFleet(o options) *perf.Profiler {
	const horizon = 4 * time.Second
	load, err := workload.Classic(o.seed, 150, horizon)
	if err != nil {
		panic(err) // the rate and the horizon are constants
	}
	p := perf.New()
	p.Start(0)
	c := cluster.New(cluster.Config{
		Nodes:    4,
		Seed:     o.seed,
		Horizon:  horizon,
		Arrivals: load.Generate(),
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
		FaultsPerCell: 6,
		Invariants:    instrumented,
		Decisions:     instrumented,
		Perf:          p,
	})
	p.Finish(0) // per-cell clocks; no single virtual end time
	return p
}

// addScenario appends one scenario's exact counts: the instrumented and
// the bare run's scheduler events, the trace events emitted past the
// mask, the virtual time simulated, and every region's entry and
// alloc-sample counts of the instrumented run.
func addScenario(doc *bench.Doc, name string, inst, bare *perf.Profiler) {
	ir := inst.Report()
	key := name + "/"
	doc.Count(key+"events", int(ir.Events))
	doc.Count(key+"bare_events", int(bare.Report().Events))
	doc.Count(key+"obs_events", int(inst.Count(perf.RegionObs)))
	doc.Add(key+"virtual_ms", float64(ir.VirtualNs)/1e6, "virt_ms", bench.Lower)
	for _, rr := range ir.Regions {
		doc.Count(key+"region/"+rr.Region+"/entries", int(rr.Count))
		doc.Count(key+"region/"+rr.Region+"/samples", int(rr.Samples))
	}
}

// render prints the document as a table, one scenario per block.
func render(w io.Writer, doc bench.Doc) {
	fmt.Fprintf(w, "simspeed battery (seed %s)\n", doc.Params["seed"])
	scenario := ""
	for _, m := range doc.Metrics {
		sc, rest, _ := strings.Cut(m.Name, "/")
		if sc != scenario {
			scenario = sc
			fmt.Fprintf(w, "\n%s\n", sc)
		}
		fmt.Fprintf(w, "  %-32s %12.0f %s\n", rest, m.Value, m.Unit)
	}
}
