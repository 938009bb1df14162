package perf_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"resilientos"
	"resilientos/internal/bench"
	"resilientos/internal/campaign"
	"resilientos/internal/check"
	"resilientos/internal/cluster"
	"resilientos/internal/fi"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
	"resilientos/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata/BENCH_simspeed_seed1.json")

// The exact-count battery runs three scenarios through the profiler:
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
// The document holds only what a run this short can resolve: scheduler
// events instrumented and bare, trace events emitted, virtual time
// simulated, and per region the entry and alloc-sample counts. All of it
// is a function of the seed, so the seed-1 document is committed and any
// drift is a behaviour change. How fast the host runs the simulator is
// benchmark/'s job (go -C benchmark run .); for where the time goes,
// profile the battery with `go test -run '^TestBattery' -cpuprofile
// cpu.pprof -memprofile mem.pprof ./internal/perf`.
const (
	golden = "testdata/BENCH_simspeed_seed1.json"
	seed   = 1
)

// battery runs every scenario instrumented and bare and returns the
// bench document.
func battery() bench.Doc {
	doc := bench.New("simspeed", map[string]string{"seed": strconv.Itoa(seed)})
	addScenario(&doc, "fig7", runFig7(true), runFig7(false))
	addScenario(&doc, "fleet", runFleet(), runFleet())
	addScenario(&doc, "campaign", runCampaign(true), runCampaign(false))
	return doc
}

// runFig7 is the single-node scenario: boot a network-only system,
// settle, and pull the Fig. 7 transfer through it under periodic driver
// kills. Instrumented attaches the full observability stack — trace
// recorder with spans on, windowed sampler, live invariant checker,
// decision log — exercising every region but the barrier; bare runs
// the identical workload with nil recorders.
func runFig7(instrumented bool) *perf.Profiler {
	p := perf.New()
	var rec *obs.Recorder
	var decRec *decision.Recorder
	if instrumented {
		rec = obs.NewRecorder()
		// Spans stay on; only the per-frame IPC kinds are dropped, as
		// in every analysis run.
		rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
		decRec = decision.NewRecorder(&decision.SliceSink{})
	}
	p.Start(0)
	sys := resilientos.New(resilientos.Config{
		Seed:        seed,
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
	sys.ServeFile(80, seed, fig7Size)
	var res resilientos.WgetResult
	sys.Wget(resilientos.DriverRTL8139, 80, seed, fig7Size, &res)
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
	return p
}

// runFleet is the fleet scenario: a correlated kill storm over a
// small fleet, exercising the barrier region and many sequentially
// advanced member environments sharing one profiler. The fleet's
// recorder and sampler are structural (the report is built from them),
// so there is no nil-recorder variant; the battery runs it twice.
func runFleet() *perf.Profiler {
	const horizon = 4 * time.Second
	load, err := workload.Classic(seed, 150, horizon)
	if err != nil {
		panic(err) // the rate and the horizon are constants
	}
	p := perf.New()
	p.Start(0)
	c := cluster.New(cluster.Config{
		Nodes:    4,
		Seed:     seed,
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
// is structural (its recovery spans are stitched as events arrive) and
// stays on in both variants.
func runCampaign(instrumented bool) *perf.Profiler {
	p := perf.New()
	p.Start(0)
	campaign.Run(campaign.Config{
		Seeds:         []int64{seed},
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

// The document holds nothing the host can move, so two batteries must
// agree byte for byte — and with the committed seed-1 document, the
// exact-count drift gate: the same code at the same seed executes the
// same events, and a change that moves one says why.
func TestBatteryTwiceIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	var docs [2][]byte
	for i := range docs {
		path := filepath.Join(dir, "doc.json")
		if err := bench.WriteFile(path, battery()); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = b
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatalf("documents differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", docs[0], docs[1])
	}
	if *update {
		if err := os.WriteFile(golden, docs[0], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(docs[0], want) {
		t.Errorf("exact counts drifted from %s; if the change is intentional, "+
			"regenerate it with -update and say why in the commit", golden)
	}
}

// The counts must be the ones the profiler's regions define: every
// scheduler event is one step-region entry; attaching the obs stack
// emits trace events and schedules work of its own, so the instrumented
// fig7 run executes different events from the bare one (which is why
// both are pinned); and the live checker runs once per step.
func TestBatteryExactCounts(t *testing.T) {
	doc := battery()
	value := func(name string) float64 {
		v, ok := doc.Value(name)
		if !ok {
			t.Fatalf("document lacks %q", name)
		}
		return v
	}
	for _, sc := range []string{"fig7", "fleet", "campaign"} {
		events := value(sc + "/events")
		if events == 0 || value(sc+"/bare_events") == 0 {
			t.Errorf("%s: zero event counts", sc)
		}
		if step := value(sc + "/region/step/entries"); step != events {
			t.Errorf("%s: step region entered %v times for %v events", sc, step, events)
		}
	}
	if value("fig7/obs_events") == 0 {
		t.Error("instrumented fig7 run emitted no obs events")
	}
	if inst, bare := value("fig7/events"), value("fig7/bare_events"); inst == bare {
		t.Errorf("instrumented and bare fig7 both executed %v events; sampler/checker scheduling missing", inst)
	}
	if value("fig7/region/check/entries") == 0 {
		t.Error("invariant checker region never entered")
	}
	if value("fleet/region/barrier/entries") == 0 {
		t.Error("fleet barrier region never entered")
	}
}
