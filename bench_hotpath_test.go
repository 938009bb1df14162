package resilientos

// Hot-path micro-benchmarks: the inner loops internal/perf's regions
// attribute cost to, each isolated to one operation so a regression in
// simulator speed can be localized without re-running the repo benchmark.
// Run with -benchmem (ReportAllocs is on): allocs/op on these paths is
// the first thing to check when its sim.allocs_per_entry moves.
//
//	go test -bench=Hotpath -benchmem
//
// These measure the simulator's wall-clock cost, not virtual-time
// results — the workloads are deterministic, the ns/op numbers are not.

import (
	"runtime"
	"testing"
	"time"

	"resilientos/internal/check"
	"resilientos/internal/inet"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// gateAllocs fails b when op allocates: these paths allocated nothing when
// the gate was set, and the benchmark's allocs per entry are made of them.
func gateAllocs(b *testing.B, what string, op func()) {
	b.Helper()
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		b.Fatalf("%s allocates %v times", what, allocs)
	}
}

// gateAllocBytes fails b when op allocates more than ceiling bytes a run
// on average. The bulk path it guards moves its payload through buffers
// somebody already holds; what it still allocates is small and of fixed
// size, and is counted here, not hidden: one buffer-sized allocation per
// operation breaks the gate.
func gateAllocBytes(b *testing.B, what string, ceiling uint64, op func()) {
	b.Helper()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > ceiling {
		b.Fatalf("%s allocates %d bytes, ceiling %d", what, per, ceiling)
	}
}

// BenchmarkHotpathFileRead measures one 64 KiB read of a file, warm:
// application → VFS → MFS → disk.sata → hw.Disk and back, the unit of
// work of Fig. 8. The disk fills its own transfer buffer, the driver
// copies through MFS's grant straight into a recycled reply, and the
// reader copies that into its own 64 KiB. Ceiling: 2 KiB per read (193 B
// today) — nothing the size of the payload, where the path allocated
// three such buffers before (DESIGN.md, "Who owns a buffer").
func BenchmarkHotpathFileRead(b *testing.B) {
	const chunk = 64 << 10
	sys := New(Config{DisableNet: true, DisableChar: true,
		PreallocFiles: []PreallocFile{{Name: "big", Size: 256 << 20}}})
	defer sys.Close()
	reads := 0
	sys.Spawn("reader", func(p *Proc) {
		buf := make([]byte, chunk)
		for {
			f, err := p.Open("/big")
			if err != nil {
				b.Errorf("open: %v", err)
				return
			}
			for {
				n, err := f.Read(buf)
				if err != nil {
					break // end of file: start over
				}
				if n != chunk {
					b.Errorf("read %d bytes", n)
				}
				reads++
				sys.Env.Stop() // one Run is one read
			}
			f.Close()
		}
	})
	read := func() { sys.Run(0) }
	for i := 0; i < 8; i++ {
		read() // boot, open, and the buffers' first trip
	}
	gateAllocBytes(b, "a 64 KiB file read", 2<<10, read)
	reads = 0
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
	if reads != b.N {
		b.Fatalf("%d reads in %d runs", reads, b.N)
	}
}

// BenchmarkHotpathTCPFrame measures one full-size TCP data segment on
// its way remote INET → remote driver → card → wire → card → driver →
// INET → reader (and its ACK back), the unit of work of Fig. 7: the
// reader takes one MSS per read from a stream that never ends. The
// frame is drawn from the free list once and changes hands hop by hop;
// the read reply is another recycled buffer; the NIC's serialization and
// the wire's propagation re-arm pooled in-flight records, and the rings
// slide. It allocates nothing: before that, ≈ 0.8–1 KB and 20–24
// allocations a segment (a scheduled event and a closure per hop, the
// rings re-grown).
func BenchmarkHotpathTCPFrame(b *testing.B) {
	sys := New(Config{DisableDisk: true, DisableChar: true})
	defer sys.Close()
	sys.ServeFile(80, 1, 1<<50)
	reads := 0
	sys.Spawn("reader", func(p *Proc) {
		conn, err := p.Dial(NetLocal, DriverRTL8139, 80)
		if err != nil {
			b.Errorf("dial: %v", err)
			return
		}
		for buf := make([]byte, inet.MSS); ; {
			if _, err := conn.Read(buf); err != nil {
				b.Errorf("read: %v", err)
				return
			}
			reads++
			sys.Env.Stop() // one Run is one read
		}
	})
	read := func() { sys.Run(0) }
	for i := 0; i < 2000; i++ {
		read() // boot, handshake, window opened, buffers' first trips
	}
	gateAllocs(b, "a TCP data segment", read)
	reads = 0
	b.SetBytes(inet.MSS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
	if reads != b.N {
		b.Fatalf("%d reads in %d runs", reads, b.N)
	}
}

// BenchmarkHotpathSwitch measures the scheduler's hand-off alone: two
// processes wake each other and park. One iteration is one Wake, one
// run-queue entry and one coroutine switch each way.
func BenchmarkHotpathSwitch(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	var ping, pong *sim.Proc
	switches := 0
	// Each stops the loop on resuming, so one Run is one hand-off.
	ping = env.Spawn("ping", func(p *sim.Proc) {
		for {
			p.Park()
			switches++
			env.Stop()
			pong.Wake(nil)
		}
	})
	pong = env.Spawn("pong", func(p *sim.Proc) {
		for {
			ping.Wake(nil)
			p.Park()
			switches++
			env.Stop()
		}
	})
	handOff := func() { env.Run(0) }
	handOff() // both started
	gateAllocs(b, "a Park/Wake hand-off", handOff)
	switches = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handOff()
	}
	if switches != b.N {
		b.Fatalf("%d hand-offs in %d runs", switches, b.N)
	}
}

// BenchmarkHotpathIPCRendezvous measures one kernel send/receive
// round-trip between two processes: two rendezvous handoffs, two
// coroutine switches, plus dispatch bookkeeping per iteration.
func BenchmarkHotpathIPCRendezvous(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	k := kernel.New(env)
	priv := kernel.Privileges{AllowAllIPC: true}
	srv, err := k.Spawn("echo", priv, func(c *kernel.Ctx) {
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if c.Send(m.Source, m) != nil {
				return
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	trips := 0
	if _, err := k.Spawn("client", priv, func(c *kernel.Ctx) {
		for i := 0; ; i++ {
			if c.Send(srv.Endpoint(), kernel.Message{Type: 1, Arg1: int64(i)}) != nil {
				return
			}
			if _, err := c.Receive(kernel.Any); err != nil {
				return
			}
			trips++
			env.Stop() // one Run is one round-trip
		}
	}); err != nil {
		b.Fatal(err)
	}
	roundTrip := func() { env.Run(0) }
	roundTrip() // both started
	gateAllocs(b, "an IPC round-trip", roundTrip)
	trips = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	if trips != b.N {
		b.Fatalf("completed %d/%d round-trips", trips, b.N)
	}
}

// BenchmarkHotpathTraceAppend measures one trace-event emit through the
// recorder into a ring sink — stamp, mask check, fan-out, ring write —
// the per-event cost the obs region attributes.
func BenchmarkHotpathTraceAppend(b *testing.B) {
	ring := obs.NewRingSink(4096)
	rec := obs.NewRecorder(ring)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(obs.KindIPCSend, "bench", "hotpath", int64(i), 0)
	}
	if rec.Emitted() != uint64(b.N) {
		b.Fatalf("emitted %d/%d", rec.Emitted(), b.N)
	}
}

// BenchmarkHotpathTraceAppendNil measures the same emit against a nil
// recorder — the disabled-telemetry cost every kernel call site pays.
// This must stay within noise of an empty loop.
func BenchmarkHotpathTraceAppendNil(b *testing.B) {
	var rec *obs.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(obs.KindIPCSend, "bench", "hotpath", int64(i), 0)
	}
}

// BenchmarkHotpathEveryTick measures one periodic-timer firing: heap
// pop, callback, re-arm of the ticker's own event, heap push — the
// scheduler's steady-state cost with no process work at all.
func BenchmarkHotpathEveryTick(b *testing.B) {
	env := sim.NewEnv(1)
	ticks := 0
	env.Tick(sim.Time(time.Millisecond), func() { ticks++ })
	gateAllocs(b, "a tick", func() { env.Run(sim.Time(time.Millisecond)) })
	ticks = 0
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(sim.Time(b.N) * sim.Time(time.Millisecond))
	if ticks < b.N-1 {
		b.Fatalf("fired %d/%d ticks", ticks, b.N)
	}
}

// BenchmarkHotpathIdleSecond measures one virtual second of a booted,
// idle default System, char stack on: the codec's 100 Hz capture and
// playback ticks, the audio driver woken by their interrupts, RS's
// heartbeats and its re-armed alarm — 324 events, and nothing else. A
// machine at rest allocates nothing; before PR 25 it took 446
// allocations and 14.8 KB a second (a closure and an event per codec
// tick and per alarm, RS's label list per timer).
func BenchmarkHotpathIdleSecond(b *testing.B) {
	sys := New(Config{Seed: 1})
	defer sys.Close()
	second := func() { sys.Run(time.Second) }
	for i := 0; i < 4; i++ {
		second() // boot settle, rings full, buffers' first trips
	}
	gateAllocs(b, "an idle second", second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		second()
	}
}

// BenchmarkHotpathCheckStepQuiet measures the invariant checker's step
// hook on a booted, settled full system when nothing it inspects has
// changed — all but a few percent of the steps of a real run. It is
// three counter reads and a clock compare, and must not allocate.
func BenchmarkHotpathCheckStepQuiet(b *testing.B) {
	sys := New(Config{Seed: 1})
	defer sys.Close()
	sys.Run(3 * time.Second) // boot settle
	ck := check.New(check.Config{Kernel: sys.Kernel, RS: sys.RS, DS: sys.DS, Now: sys.Env.Now})
	ck.Step() // the first step always scans
	gateAllocs(b, "a quiet step", ck.Step)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck.Step()
	}
	if !ck.Ok() {
		b.Fatalf("settled system violates invariants: %v", ck.Violations())
	}
}

// BenchmarkHotpathUcodeDispatch measures one driver ucode VM
// invocation: entry lookup, register setup, a short instruction burst,
// and outcome classification.
func BenchmarkHotpathUcodeDispatch(b *testing.B) {
	img, err := ucode.Assemble(`
.entry main
main:
	movi r1, 3
	movi r2, 4
	add  r1, r2
	assert r1
	halt
`, nil)
	if err != nil {
		b.Fatal(err)
	}
	vm := ucode.New(img, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := vm.Run("main"); res.Outcome != ucode.OutcomeOK {
			b.Fatalf("outcome %v", res.Outcome)
		}
	}
}

// BenchmarkHotpathPerfRegion measures one Begin/End bracket of the
// wall-clock profiler itself — the instrumentation tax a profiled run
// pays per region entry.
func BenchmarkHotpathPerfRegion(b *testing.B) {
	p := perf.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Begin(perf.RegionKernelIPC)
		p.End(perf.RegionKernelIPC)
	}
}

// BenchmarkHotpathPerfRegionNil measures the same bracket on a nil
// profiler — what every instrumented call site pays when telemetry is
// off. This is the "disabled overhead within noise" acceptance number.
func BenchmarkHotpathPerfRegionNil(b *testing.B) {
	var p *perf.Profiler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Begin(perf.RegionKernelIPC)
		p.End(perf.RegionKernelIPC)
	}
}
