package resilientos

// Hot-path micro-benchmarks: the inner loops BENCH_simspeed.json
// attributes cost to, each isolated to one operation so a regression in
// simulator speed can be localized without re-running the full battery.
// Run with -benchmem (ReportAllocs is on): allocs/op on these paths is
// the first thing to check when simspeed's allocs/event moves.
//
//	go test -bench=Hotpath -benchmem
//
// These measure the simulator's wall-clock cost, not virtual-time
// results — the workloads are deterministic, the ns/op numbers are not.

import (
	"testing"
	"time"

	"resilientos/internal/check"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// BenchmarkHotpathIPCRendezvous measures one kernel send/receive
// round-trip between two processes: two rendezvous handoffs, two
// coroutine switches, plus dispatch bookkeeping per iteration.
func BenchmarkHotpathIPCRendezvous(b *testing.B) {
	env := sim.NewEnv(1)
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
		for i := 0; i < b.N; i++ {
			if c.Send(srv.Endpoint(), kernel.Message{Type: 1, Arg1: int64(i)}) != nil {
				return
			}
			if _, err := c.Receive(kernel.Any); err != nil {
				return
			}
			trips++
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(0)
	if trips != b.N {
		b.Fatalf("completed %d/%d round-trips", trips, b.N)
	}
}

// BenchmarkHotpathTraceAppend measures one trace-event emit through the
// recorder into a ring sink — stamp, mask check, fan-out, ring write —
// the per-event cost the obs region of simspeed attributes.
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
// pop, callback, re-arm, heap push — the scheduler's steady-state cost
// with no process work at all.
func BenchmarkHotpathEveryTick(b *testing.B) {
	env := sim.NewEnv(1)
	ticks := 0
	env.Tick(sim.Time(time.Millisecond), func() { ticks++ })
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(sim.Time(b.N) * sim.Time(time.Millisecond))
	if ticks < b.N-1 {
		b.Fatalf("fired %d/%d ticks", ticks, b.N)
	}
}

// BenchmarkHotpathCheckStepQuiet measures the invariant checker's step
// hook on a booted, settled full system when nothing it inspects has
// changed — all but a few percent of the steps of a real run. It is
// three counter reads and a clock compare, and must not allocate.
func BenchmarkHotpathCheckStepQuiet(b *testing.B) {
	sys := New(Config{Seed: 1})
	sys.Run(3 * time.Second) // boot settle
	ck := check.New(check.Config{Kernel: sys.Kernel, RS: sys.RS, DS: sys.DS, Now: sys.Env.Now})
	ck.Step() // the first step always scans
	if allocs := testing.AllocsPerRun(100, ck.Step); allocs != 0 {
		b.Fatalf("quiet step allocates %v times", allocs)
	}
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
