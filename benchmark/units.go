package main

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"resilientos"
	"resilientos/internal/campaign"
	"resilientos/internal/check"
	"resilientos/internal/cluster"
	"resilientos/internal/fi"
	"resilientos/internal/hw"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
	"resilientos/internal/workload"
)

// A unit is one workload run once, in a process of its own: sim.Env has
// no teardown, so a second system in the same process inherits the
// first one's parked goroutines and heap and runs measurably slower.

// sizes fixes how much work one unit does. The full sizes give units of
// 1.2-3.5 s on a 2-core 2.1 GHz box, so several fit into one measured
// run; quick is for smoke tests only.
type sizes struct {
	wgetBytes     int64         // wget_kill transfer
	ddBytes       int64         // dd_kill file
	observedBytes int64         // wget_observed transfer
	killEvery     time.Duration // KillDriver period of the three above
	faultTypes    []fi.FaultType
	faultsPerCell int
	fleetHorizon  time.Duration
}

var fullSizes = sizes{
	wgetBytes:     48 << 20,
	ddBytes:       384 << 20,
	observedBytes: 24 << 20,
	killEvery:     2 * time.Second,
	// Two of the paper's seven mutation classes: with the pinned cell
	// seed they give each NIC victim one cell that keeps its download
	// running (about 3 s of host time) and one that wedges it early.
	faultTypes:    []fi.FaultType{fi.FaultDstReg, fi.FaultSrcReg},
	faultsPerCell: 10,
	fleetHorizon:  200 * time.Second,
}

var quickSizes = sizes{
	wgetBytes:     1 << 20,
	ddBytes:       8 << 20,
	observedBytes: 1 << 20,
	killEvery:     2 * time.Second, // never lands: the transfers are over before
	faultTypes:    []fi.FaultType{fi.FaultSrcReg},
	faultsPerCell: 2,
	fleetHorizon:  2 * time.Second,
}

// campaignSeed pins the SWIFI cell seed. A cell's host cost is bimodal
// in its seed (a fault that wedges the download makes the cell ~80x
// cheaper than one that lets it run), so across seeds the cost of a
// handful of cells spreads by +-50% and no bound could referee it; the
// other workloads take their inputs from -seed.
const campaignSeed = 1

// campaignVictims puts the rtl8139 cells first so both workers start
// with one long cell each.
var campaignVictims = []string{
	resilientos.DriverRTL8139, resilientos.DriverDP8390, resilientos.DriverSATA,
}

// fleetSpec is the workload_seed11.json mix (net poisson 90 rps with a
// 2 s diurnal term, disk gamma 45, char weibull 15) with the seed and
// horizon left open.
const fleetSpec = `{"name":"bench-mix","seed":%d,"horizon":%q,"classes":[
{"class":"net","clients":6,"rps":90,"arrival":{"process":"poisson"},"size":{"min":1024,"max":65536},"slo":"25ms","periods":[{"period":"2s","amplitude":0.4}]},
{"class":"disk","clients":3,"rps":45,"arrival":{"process":"gamma","shape":4},"size":{"min":4096,"max":131072},"slo":"40ms"},
{"class":"char","clients":2,"rps":15,"arrival":{"process":"weibull","shape":1.5},"size":{"min":256,"max":8192},"slo":"35ms"}]}`

const settle = 3 * time.Second // boot settling before any timed phase

// unitOpts is what the parent tells a child.
type unitOpts struct {
	Workload string
	Seed     int64
	Traced   bool
	Workers  int
	Quick    bool
	T0       time.Time // when the parent started the child
}

// span is one interval of the harness's own trace.
type span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	Parent  string  `json:"parent"`
}

// unitRecord is what one child reports.
type unitRecord struct {
	SetupS  float64 `json:"setup_s"`  // child start -> first timed call
	RunS    float64 `json:"run_s"`    // timed phase
	AllocMB float64 `json:"alloc_mb"` // TotalAlloc delta over the timed phase
	Work    float64 `json:"work"`     // MB moved, faults injected, requests routed

	Attempted int `json:"attempted"` // crashes to recover + integrity and checker verdicts + requests
	Failed    int `json:"failed"`

	// Exact holds the virtual plane: every value is a function of the
	// seed and must match between two units of one run. Digest is the
	// checksum of the unit's output and must match too.
	Exact  map[string]float64 `json:"exact"`
	Digest string             `json:"digest"`
	// Noisy holds host-plane per-layer numbers (traced units and probes).
	Noisy map[string]float64 `json:"noisy,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// unit tracks the phases of a running child.
type unit struct {
	opts  unitOpts
	rec   unitRecord
	prof  *perf.Profiler // traced units only
	start time.Time      // timed phase
	alloc uint64
	phase string
	since time.Time
}

func newUnit(o unitOpts) *unit {
	u := &unit{opts: o, phase: "setup", since: o.T0}
	u.rec.Exact = make(map[string]float64)
	u.rec.Noisy = make(map[string]float64)
	if o.Traced {
		u.prof = perf.New()
	}
	return u
}

// enter closes the current phase span and opens the next.
func (u *unit) enter(phase string) {
	now := time.Now()
	u.rec.Spans = append(u.rec.Spans, span{
		Name:    u.phase,
		StartMs: u.since.Sub(u.opts.T0).Seconds() * 1e3,
		EndMs:   now.Sub(u.opts.T0).Seconds() * 1e3,
		Parent:  "unit",
	})
	u.phase, u.since = phase, now
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// beginTimed ends set-up: everything before it is setup_s, everything
// until endTimed is the measured work.
func (u *unit) beginTimed(virtualNow sim.Time) {
	u.enter("run")
	u.rec.SetupS = u.since.Sub(u.opts.T0).Seconds()
	u.alloc = totalAlloc()
	u.prof.Start(virtualNow)
	u.start = time.Now()
}

func (u *unit) endTimed(virtualNow sim.Time, work, virtualSeconds float64) {
	u.rec.RunS = time.Since(u.start).Seconds()
	u.prof.Finish(virtualNow)
	u.rec.AllocMB = float64(totalAlloc()-u.alloc) / 1e6
	u.rec.Work = work
	u.rec.Exact["virt_s"] = virtualSeconds
	u.rec.Exact["virt_work_per_s"] = work / virtualSeconds
	u.enter("verify")
}

// recoveries accounts detected crashes against completed recoveries.
func (u *unit) recoveries(crashes, recovered int) {
	u.rec.Attempted += crashes
	u.rec.Failed += crashes - recovered
	u.rec.Exact["crashes"] = float64(crashes)
	u.rec.Exact["recovered_pct"] = 100
	if crashes > 0 {
		u.rec.Exact["recovered_pct"] = 100 * float64(recovered) / float64(crashes)
	}
	u.rec.Exact["core.restarts"] = float64(recovered)
}

// verdict accounts one pass/fail check of the unit's output. A failed
// verdict fails the whole run.
func (u *unit) verdict(ok bool, format string, args ...any) error {
	u.rec.Attempted++
	if ok {
		return nil
	}
	u.rec.Failed++
	return fmt.Errorf(u.opts.Workload+": "+format, args...)
}

// finish folds the profiler's region table into the record.
func (u *unit) finish() unitRecord {
	u.enter("done")
	if u.prof == nil {
		return u.rec
	}
	rep := u.prof.Report()
	var profiled int64
	for _, rr := range rep.Regions {
		profiled += rr.SelfNs
	}
	for i, rr := range rep.Regions {
		layer := regionLayer[perf.Region(i)]
		u.rec.Exact[layer+".entries"] = float64(rr.Count)
		u.rec.Noisy[layer+".self_ms"] = float64(rr.SelfNs) / 1e6
		u.rec.Noisy[layer+".ns_per_entry"] = rr.NsPerEntry
		u.rec.Noisy[layer+".allocs_per_entry"] = rr.AllocsPerEntry
		if profiled > 0 {
			u.rec.Noisy[layer+".self_share"] = 100 * float64(rr.SelfNs) / float64(profiled)
		}
	}
	u.rec.Exact["sim.events"] = float64(rep.Events)
	u.rec.Noisy["sim.events_per_s"] = float64(rep.Events) / u.rec.RunS
	return u.rec
}

func runUnit(o unitOpts) (unitRecord, error) {
	sz := fullSizes
	if o.Quick {
		sz = quickSizes
	}
	u := newUnit(o)
	var err error
	switch o.Workload {
	case "wget_kill":
		err = u.wget(sz.wgetBytes, sz.killEvery, false)
	case "wget_observed":
		err = u.wget(sz.observedBytes, sz.killEvery, true)
	case "dd_kill":
		err = u.dd(sz.ddBytes, sz.killEvery)
	case "swifi_campaign":
		err = u.campaign(sz)
	case "fleet_storm":
		err = u.fleet(sz.fleetHorizon)
	case "probes":
		err = u.probes()
	default:
		err = fmt.Errorf("unknown workload %q", o.Workload)
	}
	if err != nil {
		return unitRecord{}, err
	}
	return u.finish(), nil
}

// recoveryRecorder is the recorder of the repo's own Fig. 7/8 runner:
// only the recovery-path kinds, enough for obs.Timeline. Traced units
// of the bare workloads use it for the stage split.
func recoveryRecorder() (*obs.Recorder, *obs.SliceSink) {
	events := &obs.SliceSink{}
	rec := obs.NewRecorder(events)
	rec.Disable(obs.KindIPCSend, obs.KindIPCRecv, obs.KindProcSpawn, obs.KindProcExit)
	rec.Disable(obs.SpanKinds...)
	return rec, events
}

// drive steps the system until a started transfer of size bytes is done,
// or a horizon no healthy transfer reaches has passed.
func drive(sys *resilientos.System, size int64, done func() bool) {
	horizon := sys.Env.Now() + time.Duration(size/1e6)*time.Second + 10*time.Minute
	for !done() && sys.Env.Now() < horizon {
		sys.Run(100 * time.Millisecond)
	}
}

// killLoop drives a started transfer to completion under periodic
// driver kills and returns how many kills were delivered.
func killLoop(sys *resilientos.System, driver string, every time.Duration, size int64, done func() bool) int {
	kills := 0
	sys.Every(every, func() {
		if !done() {
			sys.KillDriver(driver)
			kills++
		}
	})
	drive(sys, size, done)
	return kills
}

// warmShare sizes the warm-up: before its timed transfer a unit moves
// 1/warmShare of it through the same path, unharmed, so that first-use
// costs (connection set-up, name lookups, heap growth) are paid in
// set-up and setup_s is a few percent of the unit, not a millisecond of
// process start.
const warmShare = 16

// serveWarmup is System.ServeFile for one connection under a label of
// its own: the invariant checker rightly rejects a second "httpd".
func serveWarmup(sys *resilientos.System, port uint16, seed, size int64) {
	sys.Spawn("warmd", func(p *resilientos.Proc) {
		lst, err := p.Listen(resilientos.NetRemote, port)
		if err != nil {
			return
		}
		conn, err := lst.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 64<<10)
		for off := int64(0); off < size; off += int64(len(buf)) {
			if size-off < int64(len(buf)) {
				buf = buf[:size-off]
			}
			resilientos.Pattern(seed, off, buf)
			if _, err := conn.Write(buf); err != nil {
				break
			}
		}
		conn.Close()
	})
}

// wget is Fig. 7: fetch size bytes through eth.rtl8139 while the driver
// is killed periodically. Observed adds the stack cmd/simspeed attaches.
func (u *unit) wget(size int64, every time.Duration, observed bool) error {
	seed := u.opts.Seed
	var (
		rec    *obs.Recorder
		events *obs.SliceSink
		dec    *decision.Recorder
	)
	switch {
	case observed:
		events = &obs.SliceSink{}
		rec = obs.NewRecorder(events)
		rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
		dec = decision.NewRecorder(&decision.SliceSink{})
	case u.opts.Traced:
		rec, events = recoveryRecorder()
	}
	sys := resilientos.New(resilientos.Config{
		Seed: seed, DisableDisk: true, DisableChar: true,
		Obs: rec, Decisions: dec, Perf: u.prof,
	})
	var ck *check.Checker
	var sampler *timeseries.Sampler
	if observed {
		ck = check.Attach(sys.Env, rec, check.Config{Kernel: sys.Kernel, RS: sys.RS, DS: sys.DS})
		sampler = timeseries.New(timeseries.Config{
			Window: time.Second, Registry: rec.Metrics(), Status: sys.StatusFunc(),
		})
		sampler.SetPerf(u.prof)
		sampler.Attach(sys.Env)
		rec.AddSink(sampler)
	}
	sys.Run(settle)
	u.enter("load")
	sys.ServeFile(80, seed, size)
	var warm resilientos.WgetResult
	serveWarmup(sys, 81, seed, size/warmShare)
	sys.Wget(resilientos.DriverRTL8139, 81, seed, size/warmShare, &warm)
	drive(sys, size/warmShare, func() bool { return warm.Duration != 0 || warm.Err != nil })
	if !warm.OK {
		return fmt.Errorf("%s: warm-up transfer failed: %d bytes, err %v", u.opts.Workload, warm.Bytes, warm.Err)
	}

	u.beginTimed(sys.Env.Now())
	var res resilientos.WgetResult
	sys.Wget(resilientos.DriverRTL8139, 80, seed, size, &res)
	kills := killLoop(sys, resilientos.DriverRTL8139, every, size,
		func() bool { return res.Duration != 0 || res.Err != nil })
	u.endTimed(sys.Env.Now(), float64(size)/1e6, res.Duration.Seconds())

	if err := u.verdict(res.OK, "transfer failed: got %d of %d bytes, err %v", res.Bytes, size, res.Err); err != nil {
		return err
	}
	u.rec.Digest = hex.EncodeToString(res.MD5[:])
	u.rec.Exact["kills"] = float64(kills)
	u.singleNode(sys, rec, events, resilientos.DriverRTL8139)
	if observed {
		sampler.Finish()
		ck.Finish()
		u.rec.Exact["trace_events"] = float64(len(events.Events()))
		return u.verdict(ck.Ok(), "invariant violations: %v", ck.Violations())
	}
	return nil
}

// dd is Fig. 8: read a preallocated file through VFS, MFS and disk.sata
// into SHA-1 while the driver is killed periodically.
func (u *unit) dd(size int64, every time.Duration) error {
	seed := u.opts.Seed
	var rec *obs.Recorder
	var events *obs.SliceSink
	if u.opts.Traced {
		rec, events = recoveryRecorder()
	}
	sys := resilientos.New(resilientos.Config{
		Seed: seed, DisableNet: true, DisableChar: true,
		Machine: hw.MachineConfig{DiskSeed: seed},
		PreallocFiles: []resilientos.PreallocFile{
			{Name: "bigdata", Size: size}, {Name: "warmup", Size: size / warmShare},
		},
		Obs: rec, Perf: u.prof,
	})
	sys.Run(settle)
	u.enter("load")
	var warm resilientos.DdResult
	sys.Dd("/warmup", 64<<10, &warm)
	drive(sys, size/warmShare, func() bool { return warm.Duration != 0 || warm.Err != nil })
	if warm.Err != nil || warm.Bytes != size/warmShare {
		return fmt.Errorf("dd_kill: warm-up read failed: %d bytes, err %v", warm.Bytes, warm.Err)
	}

	u.beginTimed(sys.Env.Now())
	var res resilientos.DdResult
	sys.Dd("/bigdata", 64<<10, &res)
	kills := killLoop(sys, resilientos.DriverSATA, every, size,
		func() bool { return res.Duration != 0 || res.Err != nil })
	u.endTimed(sys.Env.Now(), float64(size)/1e6, res.Duration.Seconds())

	ok := res.Err == nil && res.Bytes == size
	if err := u.verdict(ok, "read failed: got %d of %d bytes, err %v", res.Bytes, size, res.Err); err != nil {
		return err
	}
	// The parent compares digests between units: a reissued read that
	// returned other bytes would change the SHA-1.
	u.rec.Digest = hex.EncodeToString(res.SHA1[:])
	u.rec.Exact["kills"] = float64(kills)
	u.singleNode(sys, rec, events, resilientos.DriverSATA)
	return nil
}

// singleNode harvests one system after its transfer: crash accounting
// from the RS log and, when a recorder was attached, the byte counters
// and the virtual stage split of the victim's recoveries.
func (u *unit) singleNode(sys *resilientos.System, rec *obs.Recorder, events *obs.SliceSink, victim string) {
	recovered := 0
	rsEvents := sys.RS.Events()
	for _, e := range rsEvents {
		if e.Recovered {
			recovered++
		}
	}
	u.recoveries(len(rsEvents), recovered)
	if rec == nil {
		return
	}
	rec.Metrics().VisitCounters(func(name string, v int64) {
		switch {
		case name == "kernel.ipc.send":
			u.rec.Exact["kernel.ipc_sends"] = float64(v)
		case name == "inet.bytes."+resilientos.DriverRTL8139:
			u.rec.Exact["inet.bytes"] = float64(v)
		case strings.HasPrefix(name, "mfs.bytes."):
			u.rec.Exact["mfs.bytes"] = float64(v)
		}
	})
	var latency, detect, script, inet, mfs []sim.Time
	for _, s := range obs.Timeline(events.Events()) {
		if s.Comp != victim || s.Open || s.GaveUp || s.Restart == 0 {
			continue
		}
		latency = append(latency, s.Latency())
		detect = append(detect, s.Restart-s.Start)
		if s.PolicyStart != 0 {
			script = append(script, s.PolicyEnd-s.PolicyStart)
		}
		if s.Reintegrated != 0 {
			if strings.HasPrefix(s.Comp, "eth.") {
				inet = append(inet, s.Reintegrated-s.Restart)
			} else {
				mfs = append(mfs, s.Reintegrated-s.Restart)
			}
		}
	}
	u.recoveryLatencies(latency)
	u.rec.Exact["core.detect_to_restart_ms_p50"] = ms(obs.Summarize(detect).P50)
	u.rec.Exact["policy.script_ms_p50"] = ms(obs.Summarize(script).P50)
	u.rec.Exact["inet.reintegrate_ms_p50"] = ms(obs.Summarize(inet).P50)
	u.rec.Exact["mfs.reintegrate_ms_p50"] = ms(obs.Summarize(mfs).P50)
}

func ms(d sim.Time) float64 { return float64(d) / 1e6 }

// recoveryLatencies records the median and the high percentile of the
// detection -> reintegration latencies.
func (u *unit) recoveryLatencies(lat []sim.Time) {
	u.rec.Exact["core.recovery_n"] = float64(len(lat))
	u.rec.Exact["core.recovery_p50_ms"] = ms(obs.Summarize(lat).P50)
	u.rec.Exact["core.recovery_hi_ms"] = ms(highPercentile(lat))
}

// highPercentile returns the highest of p99.9, p99, p95 and p90 that
// still has at least ten samples beyond it, else the maximum.
func highPercentile(lat []sim.Time) sim.Time {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]sim.Time(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90} {
		if beyond := int(float64(len(sorted)) * (1 - q)); beyond >= 10 {
			return sorted[len(sorted)-1-beyond]
		}
	}
	return sorted[len(sorted)-1]
}

// campaign is the §7.2 SWIFI matrix cut to a few cells: every cell boots
// a system, drives I/O through the victim and mutates its running code.
func (u *unit) campaign(sz sizes) error {
	// Warm-up: one short cell (its first fault wedges the download), so
	// that first-use costs are paid in set-up, not by the first timed cell.
	campaign.Run(campaign.Config{
		Seeds: []int64{campaignSeed}, Victims: []string{resilientos.DriverRTL8139},
		FaultTypes: []fi.FaultType{fi.FaultSrcReg}, FaultsPerCell: 1,
	})
	cfg := campaign.Config{
		Seeds:         []int64{campaignSeed},
		Victims:       campaignVictims,
		FaultTypes:    sz.faultTypes,
		FaultsPerCell: sz.faultsPerCell,
		Workers:       u.opts.Workers,
		Invariants:    true,
		Decisions:     true,
		Perf:          u.prof,
	}
	if u.opts.Quick {
		cfg.Victims = campaignVictims[:1]
	}

	u.beginTimed(0)
	r := campaign.Run(cfg)
	u.endTimed(0, float64(r.Injected), time.Duration(r.Horizon).Seconds())

	var report bytes.Buffer
	r.Render(&report)
	sum := sha1.Sum(report.Bytes())
	u.rec.Digest = hex.EncodeToString(sum[:])
	u.recoveries(r.Crashes, r.Recovered)
	var lat []sim.Time
	for _, c := range r.Cells {
		lat = append(lat, c.Latencies...)
	}
	u.recoveryLatencies(lat)
	u.rec.Exact["fi.injected"] = float64(r.Injected)
	u.rec.Exact["fi.crashes"] = float64(r.Crashes)
	u.rec.Exact["campaign.cells"] = float64(len(r.Cells))
	u.rec.Exact["campaign.availability_pct"] = r.Availability()
	if u.prof != nil {
		u.rec.Noisy["campaign.cell_ms"] = u.rec.RunS * 1e3 / float64(len(r.Cells))
	}
	want := len(r.Cells) * sz.faultsPerCell
	if err := u.verdict(r.Injected == want, "injected %d of %d faults", r.Injected, want); err != nil {
		return err
	}
	return u.verdict(r.Ok(), "%d invariant violations, first: %v", len(r.Violations), r.Violations)
}

// fleet is a 4-node cluster in lockstep under a correlated NIC-driver
// kill storm, serving an open-loop arrival schedule in virtual time.
func (u *unit) fleet(horizon time.Duration) error {
	seed := u.opts.Seed
	u.phase = "load"
	spec, err := workload.Parse([]byte(fmt.Sprintf(fleetSpec, seed, horizon.String())))
	if err != nil {
		return err
	}
	arrivals := spec.Generate()
	u.enter("setup")
	nodes := 4
	if u.opts.Quick {
		nodes = 2
	}
	c := cluster.New(cluster.Config{
		Nodes: nodes, Seed: seed, Horizon: horizon, Workers: u.opts.Workers,
		Storm: cluster.Storm{
			Kind: "correlated", Driver: resilientos.DriverRTL8139, K: 2, Interval: time.Second,
		},
		Arrivals: arrivals, Classes: spec.ClassNames(), Budgets: spec.Budgets(),
		WorkloadName: spec.Name,
		Perf:         u.prof,
	})

	// Run settles the members for 3 virtual s itself before the horizon
	// starts, so that part of boot is inside the timed phase here.
	u.beginTimed(0)
	r := c.Run()
	u.endTimed(c.Now(), float64(r.Completed), (c.Now() - settle).Seconds())

	var report bytes.Buffer
	if err := r.WriteJSON(&report); err != nil {
		return err
	}
	sum := sha1.Sum(report.Bytes())
	u.rec.Digest = hex.EncodeToString(sum[:])
	u.recoveries(r.Crashes, r.Recovered)
	u.rec.Exact["kills"] = float64(r.Kills)
	u.rec.Exact["cluster.requests"] = float64(r.Requests)
	u.rec.Exact["cluster.reroutes"] = float64(r.Reroutes)
	u.rec.Exact["cluster.availability_pct"] = r.AvailabilityPct
	u.rec.Exact["cluster.request_p50_ms"] = ms(r.Latency.P50)
	u.rec.Exact["cluster.request_p99_ms"] = ms(r.Latency.P99)
	var lat []sim.Time
	for _, n := range c.Nodes() {
		for _, e := range n.Sys.RS.Events() {
			if e.Recovered {
				lat = append(lat, e.Duration)
			}
		}
	}
	u.recoveryLatencies(lat)
	// Every admitted request is an operation: one that never completed
	// before the drain ended has failed.
	u.rec.Attempted += int(r.Requests)
	u.rec.Failed += int(r.Incomplete)
	return u.verdict(r.Requests > 0 && r.Completed+r.Incomplete == r.Requests,
		"%d requests, %d completed, %d incomplete", r.Requests, r.Completed, r.Incomplete)
}
