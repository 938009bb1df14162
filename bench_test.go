package resilientos

// The benchmark harness regenerates the paper's Fig. 3 table and times
// the simulator's core paths. Experiment outputs are functions of
// *virtual* time (deterministic); the wall-clock numbers Go reports
// measure the simulator itself.
//
//	go test -bench=. -benchmem
//
// Figs. 7/8 (the kill-interval sweeps) are `cmd/figures -interval`, and
// the §7.2 campaign is cmd/faultbench; the benches default to reduced
// sizes so `go test -bench=.` stays minutes, not hours.

import (
	"fmt"
	"testing"
	"time"

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
	_, dsEp, err := ds.StartServer(k)
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
