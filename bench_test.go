package resilientos

// The benchmark harness regenerates the paper's Fig. 3 table plus
// ablations of the design choices DESIGN.md calls out, and times the
// simulator's core paths. Experiment outputs are functions of *virtual*
// time (deterministic); the wall-clock numbers Go reports measure the
// simulator itself.
//
//	go test -bench=Ablation -benchtime=1x # the ablation series
//	go test -bench=. -benchmem            # everything
//
// Figs. 7/8 (the kill-interval sweeps) are `cmd/figures -interval`, and
// the §7.2 campaign is cmd/faultbench; the benches default to reduced
// sizes so `go test -bench=.` stays minutes, not hours.

import (
	"fmt"
	"testing"
	"time"

	"resilientos/internal/core"
	"resilientos/internal/ds"
	"resilientos/internal/kernel"
	"resilientos/internal/policy"
	"resilientos/internal/proc"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// BenchmarkFig3_RecoverySchemes regenerates the Fig. 3 table: which driver
// classes recover transparently (network: yes, in the network server;
// block: yes, in the file server; character: only with application help).
func BenchmarkFig3_RecoverySchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig3Rows(b.Logf)
		for _, r := range rows {
			b.Logf("%s", r)
		}
	}
}

// fig3Rows runs one failure per driver class and reports who recovered it.
func fig3Rows(logf func(string, ...any)) []string {
	// Network driver: INET + TCP mask the kill.
	netSys := New(Config{DisableDisk: true, DisableChar: true})
	netSys.Run(3 * time.Second)
	netSys.ServeFile(80, 1, 8<<20)
	var w WgetResult
	netSys.Wget(DriverRTL8139, 80, 1, 8<<20, &w)
	netSys.After(300*time.Millisecond, func() { netSys.KillDriver(DriverRTL8139) })
	netSys.Run(5 * time.Minute)

	// Block driver: MFS reissues the pending request.
	diskSys := New(Config{DisableNet: true, DisableChar: true,
		PreallocFiles: []PreallocFile{{Name: "f", Size: 16 << 20}}})
	diskSys.Run(3 * time.Second)
	var d DdResult
	diskSys.Dd("/f", 64<<10, &d)
	diskSys.After(200*time.Millisecond, func() { diskSys.KillDriver(DriverSATA) })
	diskSys.Run(5 * time.Minute)

	// Character driver: the error reaches the application.
	chrSys := New(Config{DisableNet: true, DisableDisk: true})
	var chrErr error
	chrSys.Spawn("app", func(p *Proc) {
		p.Sleep(time.Second)
		f, err := p.Open("/dev/" + DriverPrinter)
		if err != nil {
			chrErr = err
			return
		}
		chrSys.After(10*time.Millisecond, func() { chrSys.KillDriver(DriverPrinter) })
		_, chrErr = f.Write([]byte("job"))
	})
	chrSys.Run(time.Minute)

	yesno := func(ok bool) string {
		if ok {
			return "Yes"
		}
		return "Maybe"
	}
	return []string{
		fmt.Sprintf("%-10s %-8s %-16s", "Driver", "Recovery", "Where"),
		fmt.Sprintf("%-10s %-8s %-16s", "Network", yesno(w.OK && w.Err == nil), "Network server"),
		fmt.Sprintf("%-10s %-8s %-16s", "Block", yesno(d.Err == nil && d.Bytes == 16<<20), "File server"),
		fmt.Sprintf("%-10s %-8s %-16s (app saw: %v)", "Character", "Maybe", "Application", chrErr),
	}
}

// ---------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md §5)

// BenchmarkAblation_HeartbeatPeriod measures stuck-driver detection
// latency as a function of the heartbeat period: shorter periods detect
// wedged drivers faster at the cost of more ping traffic.
func BenchmarkAblation_HeartbeatPeriod(b *testing.B) {
	for _, period := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second} {
		b.Run(period.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := New(Config{HeartbeatPeriod: period, DisableNet: true, DisableDisk: true})
				sys.Run(2 * time.Second)
				// Wedge the audio driver by stalling its process: simulate
				// with a kill marked as heartbeat via a stuck body is
				// intricate; instead measure detection of a driver that
				// stops answering by replacing it with a stuck instance.
				sys.RS.StartService(core.ServiceConfig{
					Label:           "wedge",
					Binary:          func(c *kernel.Ctx) { c.Sleep(time.Hour) }, // never answers pings
					Priv:            kernel.Privileges{AllowAllIPC: true},
					HeartbeatPeriod: period,
					HeartbeatMisses: 3,
				})
				start := sys.Env.Now()
				sys.Run(time.Minute)
				var detected time.Duration
				for _, e := range sys.RS.Events() {
					if e.Label == "wedge" && e.Defect == core.DefectHeartbeat {
						detected = e.Time - start
						break
					}
				}
				if detected == 0 {
					b.Fatal("stuck service never detected")
				}
				b.ReportMetric(detected.Seconds(), "detect_s")
			}
		})
	}
}

// BenchmarkAblation_Backoff compares restart storms under a crash loop
// with and without the Fig. 2 exponential backoff policy.
func BenchmarkAblation_Backoff(b *testing.B) {
	backoff := policy.MustParse(`
sleep $((1 << ($3 - 1)))
service restart $1
`)
	run := func(script *policy.Script) int {
		sys := New(Config{DisableNet: true, DisableDisk: true, DisableChar: true})
		sys.RS.StartService(core.ServiceConfig{
			Label:  "crashy",
			Binary: func(c *kernel.Ctx) { c.Sleep(10 * time.Millisecond); c.Panic("bug") },
			Priv:   kernel.Privileges{AllowAllIPC: true},
			Policy: script,
		})
		sys.Run(30 * time.Second)
		return len(sys.RS.Events())
	}
	for i := 0; i < b.N; i++ {
		direct := run(nil)
		withBackoff := run(backoff)
		if withBackoff >= direct {
			b.Fatalf("backoff (%d restarts) did not dampen the crash loop vs direct (%d)",
				withBackoff, direct)
		}
		b.ReportMetric(float64(direct), "direct_restarts/30s")
		b.ReportMetric(float64(withBackoff), "backoff_restarts/30s")
	}
}

// BenchmarkAblation_RTO measures how TCP's initial retransmission timeout
// trades clean-path overhead against recovery speed after a driver kill.
func BenchmarkAblation_RTO(b *testing.B) {
	for _, rto := range []time.Duration{150 * time.Millisecond, 600 * time.Millisecond, 1200 * time.Millisecond} {
		b.Run(rto.String(), func(b *testing.B) {
			const size = 24 << 20
			for i := 0; i < b.N; i++ {
				sys := New(Config{DisableDisk: true, DisableChar: true, RTOInit: rto})
				sys.Run(3 * time.Second)
				sys.ServeFile(80, 1, size)
				var res WgetResult
				sys.Wget(DriverRTL8139, 80, 1, size, &res)
				sys.Every(time.Second, func() {
					if res.Duration == 0 && res.Err == nil {
						sys.KillDriver(DriverRTL8139)
					}
				})
				sys.Run(10 * time.Minute)
				if !res.OK {
					// A huge RTO may fail to converge against 1s kills —
					// that IS the ablation's finding; report zero.
					b.Logf("rto=%v: did not converge (%d bytes)", rto, res.Bytes)
					b.ReportMetric(0, "MB/s_kill1s")
					continue
				}
				b.ReportMetric(mbps(res.Bytes, res.Duration), "MB/s_kill1s")
			}
		})
	}
}

// BenchmarkAblation_BlockCache measures the file server's driver-call
// amplification as a function of block cache size on a metadata-heavy
// workload.
func BenchmarkAblation_BlockCache(b *testing.B) {
	for _, blocks := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("cache%d", blocks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := New(Config{DisableNet: true, DisableChar: true})
				sys.MFS.SetCacheBlocks(blocks)
				done := false
				sys.Spawn("meta", func(p *Proc) {
					// A metadata working set larger than the small caches:
					// 10 directories x 20 files, then repeated stat sweeps.
					for d := 0; d < 10; d++ {
						if err := p.Mkdir(fmt.Sprintf("/d%d", d)); err != nil {
							b.Errorf("mkdir: %v", err)
							return
						}
						for f := 0; f < 20; f++ {
							file, err := p.Create(fmt.Sprintf("/d%d/f%02d", d, f))
							if err != nil {
								b.Errorf("create: %v", err)
								return
							}
							file.Write(make([]byte, 2000))
							file.Close()
						}
					}
					for round := 0; round < 3; round++ {
						for d := 0; d < 10; d++ {
							if _, err := p.Readdir(fmt.Sprintf("/d%d", d)); err != nil {
								b.Errorf("readdir: %v", err)
								return
							}
							for f := 0; f < 20; f++ {
								if _, err := p.Stat(fmt.Sprintf("/d%d/f%02d", d, f)); err != nil {
									b.Errorf("stat: %v", err)
									return
								}
							}
						}
					}
					done = true
				})
				sys.Run(time.Minute)
				if !done {
					b.Fatal("workload did not finish")
				}
				st := sys.MFS.Stats()
				b.ReportMetric(float64(st.CacheMisses), "cache_misses")
				b.ReportMetric(float64(st.CacheHits), "cache_hits")
			}
		})
	}
}

// BenchmarkAblation_PubSub compares the paper's publish/subscribe
// reintegration (the file server learns a restarted driver's endpoint the
// instant the reincarnation server publishes it) against a polling
// strawman: each kill goes unnoticed for up to a poll interval, which
// shows up directly as lost disk throughput.
func BenchmarkAblation_PubSub(b *testing.B) {
	cases := []struct {
		name string
		poll time.Duration
	}{
		{"pubsub", 0},
		{"poll250ms", 250 * time.Millisecond},
		{"poll1s", time.Second},
		{"poll3s", 3 * time.Second},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			const size = 192 << 20
			for i := 0; i < b.N; i++ {
				sys := New(Config{
					DisableNet: true, DisableChar: true,
					MFSPollInterval: tc.poll,
					PreallocFiles:   []PreallocFile{{Name: "f", Size: size}},
				})
				var res DdResult
				sys.Dd("/f", 64<<10, &res)
				sys.Every(4*time.Second, func() {
					if res.Duration == 0 && res.Err == nil {
						sys.KillDriver(DriverSATA)
					}
				})
				sys.Run(30 * time.Minute)
				if res.Err != nil || res.Bytes != size {
					b.Fatalf("dd failed: %d bytes err=%v", res.Bytes, res.Err)
				}
				b.ReportMetric(mbps(res.Bytes, res.Duration), "MB/s_kill4s")
			}
		})
	}
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks (simulator cost, wall-clock meaningful)

// BenchmarkIPCRoundtrip measures the simulator's cost of one rendezvous
// request/reply pair between two system processes.
func BenchmarkIPCRoundtrip(b *testing.B) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	trusted := kernel.Privileges{AllowAllIPC: true}
	srv, _ := k.Spawn("server", trusted, func(c *kernel.Ctx) {
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			c.Send(m.Source, kernel.Message{Type: m.Type + 1})
		}
	})
	done := 0
	k.Spawn("client", trusted, func(c *kernel.Ctx) {
		for i := 0; i < b.N; i++ {
			if _, err := c.SendRec(srv.Endpoint(), kernel.Message{Type: 10}); err != nil {
				return
			}
			done++
		}
		env.Stop()
	})
	b.ResetTimer()
	env.Run(0)
	if done != b.N {
		b.Fatalf("completed %d of %d roundtrips", done, b.N)
	}
}

// BenchmarkPolicyScript measures parsing + executing the paper's Fig. 2
// generic recovery script.
func BenchmarkPolicyScript(b *testing.B) {
	script := policy.MustParse(`
component=$1
reason=$2
repetition=$3
shift 3
if [ ! $reason -eq 6 ]; then
	sleep $((1 << ($repetition - 1)))
fi
service restart $component
status=$?
while getopts a: option; do
	case $option in
	a)
		cat << END | mail -s "Failure Alert" "$OPTARG"
failure: $component, $reason, $repetition
restart status: $status
END
		;;
	esac
done
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := policy.NewInterp(
			policy.WithArgs("eth.rtl8139", "1", "3", "-a", "x@y"),
			policy.WithCommand("service", func(argv []string, stdin string) (string, int) { return "", 0 }),
			policy.WithCommand("mail", func(argv []string, stdin string) (string, int) { return "", 0 }),
		)
		if _, err := in.Run(script); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUcodeVM measures the driver VM's interpretation rate on the
// DP8390 rxdrain hot path.
func BenchmarkUcodeVM(b *testing.B) {
	img := ucode.MustAssemble(`
.entry loop
loop:
	movi r1, 0
	movi r2, 100
inner:
	addi r1, 1
	movi r3, 64
	st   [r3+0], r1
	ld   r4, [r3+0]
	cmp  r1, r2
	jlt  inner
	halt
`, nil)
	vm := ucode.New(img, nopBus{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := vm.Run("loop"); res.Outcome != ucode.OutcomeOK {
			b.Fatal(res.Outcome)
		}
	}
}

type nopBus struct{}

func (nopBus) In(uint32) (uint32, bool) { return 0, true }
func (nopBus) Out(uint32, uint32) bool  { return true }

// BenchmarkDSPublishSubscribe measures naming-update fanout through the
// data store with 16 subscribers.
func BenchmarkDSPublishSubscribe(b *testing.B) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	dsEp, err := ds.Start(k)
	if err != nil {
		b.Fatal(err)
	}
	pmEp, _ := proc.Start(k)
	_ = pmEp
	trusted := kernel.Privileges{AllowAllIPC: true}
	for i := 0; i < 16; i++ {
		k.Spawn(fmt.Sprintf("sub%d", i), trusted, func(c *kernel.Ctx) {
			c.SendRec(dsEp, kernel.Message{Type: proto.DSSubscribe, Name: "eth.*"})
			for {
				if _, err := c.Receive(kernel.Any); err != nil {
					return
				}
			}
		})
	}
	published := 0
	k.Spawn("rs", trusted, func(c *kernel.Ctx) {
		for i := 0; i < b.N; i++ {
			c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "eth.bench", Arg1: 42})
			published++
		}
		env.Stop()
	})
	b.ResetTimer()
	env.Run(0)
	if published != b.N {
		b.Fatalf("completed %d of %d publishes", published, b.N)
	}
}

// BenchmarkSimScheduler measures raw event throughput of the discrete-
// event engine.
func BenchmarkSimScheduler(b *testing.B) {
	env := sim.NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.Schedule(time.Microsecond, tick)
		}
	}
	env.Schedule(0, tick)
	b.ResetTimer()
	env.Run(0)
}

// BenchmarkBootFullSystem measures host cost of booting the whole OS.
func BenchmarkBootFullSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := New(Config{})
		sys.Run(3 * time.Second)
		if sys.RS.ServiceEndpoint(ServerInet) < 0 {
			b.Fatal("boot failed")
		}
	}
}
