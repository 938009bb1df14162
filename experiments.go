package resilientos

import (
	"fmt"
	"time"

	"resilientos/internal/hw"
	"resilientos/internal/obs"
)

// Experiment runners regenerating the paper's evaluation (§7): the Fig. 7
// network-driver and Fig. 8 disk-driver throughput-vs-kill-interval
// sweeps. (The §7.2 fault-injection campaign is internal/campaign.)

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
