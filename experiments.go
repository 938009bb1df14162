package resilientos

import (
	"fmt"
	"time"

	"resilientos/internal/core"
	"resilientos/internal/fi"
	"resilientos/internal/hw"
	"resilientos/internal/obs"
)

// Experiment runners regenerating the paper's evaluation (§7): the Fig. 7
// network-driver and Fig. 8 disk-driver throughput-vs-kill-interval
// sweeps, and the §7.2 software fault-injection campaign.

// ThroughputPoint is one point of a Fig. 7 / Fig. 8 series.
type ThroughputPoint struct {
	KillInterval time.Duration // 0 = uninterrupted
	Bytes        int64
	Duration     time.Duration
	MBps         float64
	Kills        int
	Recoveries   int
	// PerKillLoss is the mean transfer time lost per kill relative to the
	// uninterrupted run — the effective recovery cost.
	PerKillLoss time.Duration
	OK          bool // integrity checksum matched
	// Recovery is the defect-to-reintegration latency distribution of the
	// killed driver's recoveries, from the observability trace.
	Recovery obs.LatencySummary
}

func (p ThroughputPoint) String() string {
	kind := "uninterrupted"
	if p.KillInterval > 0 {
		kind = fmt.Sprintf("kill every %v", p.KillInterval)
	}
	s := fmt.Sprintf("%-16s %8.2f MB/s  (%d kills, %d recoveries, %v/kill lost, ok=%v)",
		kind, p.MBps, p.Kills, p.Recoveries, p.PerKillLoss.Round(time.Millisecond), p.OK)
	if p.Recovery.Count > 0 {
		s += "\n                 recovery latency: " + p.Recovery.String()
	}
	return s
}

// Fig7Intervals is the kill-interval sweep of the paper's Fig. 7/8 x-axis.
var Fig7Intervals = []time.Duration{
	1 * time.Second, 2 * time.Second, 4 * time.Second, 6 * time.Second,
	8 * time.Second, 10 * time.Second, 12 * time.Second, 15 * time.Second,
}

// Fig7NetworkRecovery reproduces Fig. 7: wget a size-byte file over TCP
// while the Ethernet driver is killed every interval; intervals[i] == 0
// (and the always-included first point) measures the uninterrupted
// transfer. The paper uses 512 MB; pass a smaller size for quick runs —
// the throughput (a function of virtual time) barely changes.
func Fig7NetworkRecovery(size int64, intervals []time.Duration, seed int64) []ThroughputPoint {
	return Fig7NetworkRecoveryTrace(size, intervals, seed, nil)
}

// Fig7NetworkRecoveryTrace is Fig7NetworkRecovery with trace capture: when
// sink is non-nil every run's full structured trace (including per-frame
// IPC events) is emitted into it, with a mark event separating runs. Full
// traces of the paper's 512 MB transfer are large; use a reduced size.
func Fig7NetworkRecoveryTrace(size int64, intervals []time.Duration, seed int64, sink obs.Sink) []ThroughputPoint {
	points := []ThroughputPoint{runNetPoint(size, 0, seed, sink)}
	base := points[0]
	for _, iv := range intervals {
		p := runNetPoint(size, iv, seed, sink)
		if p.Kills > 0 {
			p.PerKillLoss = (p.Duration - base.Duration) / time.Duration(p.Kills)
		}
		points = append(points, p)
	}
	return points
}

// newExperimentRecorder builds the recorder an experiment run boots with:
// a slice sink for the timeline builder, plus the caller's sink for full
// traces. Without an external sink the hot per-frame kinds are disabled —
// the recovery timeline only needs the recovery-path events.
func newExperimentRecorder(sink obs.Sink) (*obs.Recorder, *obs.SliceSink) {
	events := &obs.SliceSink{}
	rec := obs.NewRecorder(events)
	if sink != nil {
		rec.AddSink(sink)
	} else {
		rec.Disable(obs.KindIPCSend, obs.KindIPCRecv, obs.KindProcSpawn, obs.KindProcExit)
		rec.Disable(obs.SpanKinds...)
	}
	return rec, events
}

func runNetPoint(size int64, interval time.Duration, seed int64, sink obs.Sink) ThroughputPoint {
	rec, events := newExperimentRecorder(sink)
	rec.Emit(obs.KindMark, "run", fmt.Sprintf("fig7 interval=%v seed=%d", interval, seed), size, 0)
	sys := New(Config{Seed: seed, DisableDisk: true, DisableChar: true, Obs: rec})
	defer sys.Close()
	sys.Run(3 * time.Second) // boot settle
	sys.ServeFile(80, seed, size)
	var res WgetResult
	sys.Wget(DriverRTL8139, 80, seed, size, &res)
	kills := 0
	if interval > 0 {
		sys.Every(interval, func() {
			if res.Duration == 0 && res.Err == nil { // transfer running
				sys.KillDriver(DriverRTL8139)
				kills++
			}
		})
	}
	// Generous horizon: the worst case is dominated by recovery time.
	sys.Run(time.Duration(size/1e6)*time.Second + 10*time.Minute)
	spans := obs.Timeline(events.Events())
	return ThroughputPoint{
		KillInterval: interval,
		Bytes:        res.Bytes,
		Duration:     res.Duration,
		MBps:         mbps(res.Bytes, res.Duration),
		Kills:        kills,
		Recoveries:   len(sys.RS.Events()),
		OK:           res.OK,
		Recovery:     obs.Summarize(obs.RecoveryLatencies(spans, DriverRTL8139)),
	}
}

// Fig8DiskRecovery reproduces Fig. 8: dd a size-byte file through SHA-1
// while the disk driver is killed every interval. The paper uses 1 GB.
func Fig8DiskRecovery(size int64, intervals []time.Duration, seed int64) []ThroughputPoint {
	return Fig8DiskRecoveryTrace(size, intervals, seed, nil)
}

// Fig8DiskRecoveryTrace is Fig8DiskRecovery with trace capture (see
// Fig7NetworkRecoveryTrace).
func Fig8DiskRecoveryTrace(size int64, intervals []time.Duration, seed int64, sink obs.Sink) []ThroughputPoint {
	base, baseSum := runDiskPoint(size, 0, seed, sink)
	points := []ThroughputPoint{base}
	for _, iv := range intervals {
		p, sum := runDiskPoint(size, iv, seed, sink)
		p.OK = p.OK && sum == baseSum // same SHA-1 across all runs
		if p.Kills > 0 {
			p.PerKillLoss = (p.Duration - base.Duration) / time.Duration(p.Kills)
		}
		points = append(points, p)
	}
	return points
}

func runDiskPoint(size int64, interval time.Duration, seed int64, sink obs.Sink) (ThroughputPoint, [20]byte) {
	rec, events := newExperimentRecorder(sink)
	rec.Emit(obs.KindMark, "run", fmt.Sprintf("fig8 interval=%v seed=%d", interval, seed), size, 0)
	sys := New(Config{
		Seed:          seed,
		DisableNet:    true,
		DisableChar:   true,
		Machine:       hw.MachineConfig{DiskSeed: seed},
		PreallocFiles: []PreallocFile{{Name: "bigdata", Size: size}},
		Obs:           rec,
	})
	defer sys.Close()
	sys.Run(3 * time.Second) // boot settle (disk reset+identify)
	var res DdResult
	sys.Dd("/bigdata", 64<<10, &res)
	kills := 0
	if interval > 0 {
		sys.Every(interval, func() {
			if res.Duration == 0 && res.Err == nil {
				sys.KillDriver(DriverSATA)
				kills++
			}
		})
	}
	sys.Run(time.Duration(size/1e6)*time.Second + 10*time.Minute)
	spans := obs.Timeline(events.Events())
	return ThroughputPoint{
		KillInterval: interval,
		Bytes:        res.Bytes,
		Duration:     res.Duration,
		MBps:         mbps(res.Bytes, res.Duration),
		Kills:        kills,
		Recoveries:   len(sys.RS.Events()),
		OK:           res.Err == nil && res.Bytes == size,
		Recovery:     obs.Summarize(obs.RecoveryLatencies(spans, DriverSATA)),
	}, res.SHA1
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

// CampaignResult aggregates a §7.2 fault-injection campaign.
type CampaignResult struct {
	Injected   int // total faults injected
	Crashes    int // detectable crashes observed
	ByDefect   map[core.Defect]int
	ByFault    map[fi.FaultType]int // fault type that finally triggered each crash
	Recovered  int
	BIOSResets int // deeply confused cards needing host intervention (-hw runs)
	GaveUp     int // unrecoverable despite restarts

	// SoftConfusions / DeepConfusions count card wedges observed (-hw).
	SoftConfusions int
	DeepConfusions int
	BnryWrites     int
	BadBnry        int
}

// Rows renders the result in the layout of the paper's §7.2 numbers.
func (r CampaignResult) Rows() []string {
	pct := func(n int) float64 {
		if r.Crashes == 0 {
			return 0
		}
		return 100 * float64(n) / float64(r.Crashes)
	}
	rows := []string{
		fmt.Sprintf("faults injected:          %d", r.Injected),
		fmt.Sprintf("detectable crashes:       %d", r.Crashes),
		fmt.Sprintf("  internal panic (exit):  %d (%.0f%%)", r.ByDefect[core.DefectExit], pct(r.ByDefect[core.DefectExit])),
		fmt.Sprintf("  CPU/MMU exception:      %d (%.0f%%)", r.ByDefect[core.DefectException], pct(r.ByDefect[core.DefectException])),
		fmt.Sprintf("  missing heartbeat:      %d (%.0f%%)", r.ByDefect[core.DefectHeartbeat], pct(r.ByDefect[core.DefectHeartbeat])),
		fmt.Sprintf("recovered:                %d (%.1f%% of crashes)", r.Recovered, pct(r.Recovered)),
	}
	if r.BIOSResets > 0 || r.GaveUp > 0 {
		rows = append(rows,
			fmt.Sprintf("BIOS resets needed:       %d", r.BIOSResets),
			fmt.Sprintf("unrecovered:              %d", r.GaveUp))
	}
	return rows
}

// CampaignConfig tunes a fault-injection campaign.
type CampaignConfig struct {
	Faults   int   // total faults to inject (paper: 12,500)
	Seed     int64 // randomness for system and injector
	Hardware bool  // model the real-card gate: confusable NIC, no master reset
	// Progress, if set, is called periodically with (injected, crashes,
	// virtual time).
	Progress func(injected, crashes int, now time.Duration)
}

// FaultInjectionCampaign reproduces §7.2: drive continuous TCP traffic
// through the DP8390 driver and repeatedly inject one randomly selected
// fault into the *running* driver until it crashes; recover; repeat. The
// crash classification and recovery rate are the paper's headline table.
func FaultInjectionCampaign(cfg CampaignConfig) CampaignResult {
	if cfg.Faults == 0 {
		cfg.Faults = 12_500
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	mc := hw.MachineConfig{}
	if cfg.Hardware {
		// A garbage value in a control register wedges the card half the
		// time, and a quarter of wedges are deep (only a BIOS reset — or a
		// master reset the authors' card lacked — clears them).
		mc.NICConfuseProb = 0.5
		mc.NICDeepProb = 0.25
		mc.NICMasterReset = false
	}
	sys := New(Config{
		Seed:        cfg.Seed,
		DisableDisk: true,
		DisableChar: true,
		Machine:     mc,
	})
	defer sys.Close()
	sys.Run(3 * time.Second)

	// Endless traffic through the DP8390 channel: back-to-back downloads.
	const chunk = 8 << 20
	sys.ServeFile(80, cfg.Seed, chunk)
	sys.Spawn("wget-loop", func(p *Proc) {
		buf := 64 << 10
		for {
			conn, err := p.Dial(NetLocal, DriverDP8390, 80)
			if err != nil {
				p.Sleep(200 * time.Millisecond)
				continue
			}
			for {
				if _, err := conn.Read(buf); err != nil {
					break
				}
			}
			conn.Close()
		}
	})

	res := CampaignResult{
		ByDefect: make(map[core.Defect]int),
		ByFault:  make(map[fi.FaultType]int),
	}
	injector := fi.New(sys.Env.Rand())
	seenEvents := 0
	var lastInjection fi.Injection
	nic := sys.Machine.NIC1

	// Inject one fault every 50ms of virtual time while the driver runs;
	// watch the reincarnation server's event log for crashes.
	stall := 0
	for res.Injected < cfg.Faults {
		sys.Run(50 * time.Millisecond)
		if cfg.Progress != nil && res.Injected%1000 == 0 {
			cfg.Progress(res.Injected, res.Crashes, sys.Env.Now())
		}
		stall++
		if stall > 10000 {
			break // safety: the workload or driver is irrecoverably wedged
		}
		// Crash observed?
		events := sys.RS.Events()
		for _, e := range events[seenEvents:] {
			if e.Label != DriverDP8390 {
				continue
			}
			res.Crashes++
			res.ByDefect[e.Defect]++
			res.ByFault[lastInjection.Type]++
			if e.Recovered {
				res.Recovered++
			}
			if e.GaveUp {
				res.GaveUp++
			}
		}
		seenEvents = len(events)
		// The hardware gate: a deeply confused card makes every restart
		// fail its init asserts; give it the paper's BIOS reset.
		if _, deep := nic.Confused(); deep {
			nic.BIOSReset()
			res.BIOSResets++
			continue
		}
		vm := sys.DriverVM(DriverDP8390)
		if vm == nil || sys.RS.ServiceEndpoint(DriverDP8390) < 0 {
			continue // driver down or restarting; no target to mutate
		}
		lastInjection = injector.InjectRandom(vm.Img)
		res.Injected++
		stall = 0
	}
	res.SoftConfusions = nic.Stats.Confusions
	res.DeepConfusions = nic.Stats.DeepConfused
	res.BnryWrites = nic.Stats.BnryWrites
	res.BadBnry = nic.Stats.BadBnry
	// Let any final crash resolve.
	sys.Run(10 * time.Second)
	for _, e := range sys.RS.Events()[seenEvents:] {
		if e.Label != DriverDP8390 {
			continue
		}
		res.Crashes++
		res.ByDefect[e.Defect]++
		res.ByFault[lastInjection.Type]++
		if e.Recovered {
			res.Recovered++
		}
	}
	return res
}
