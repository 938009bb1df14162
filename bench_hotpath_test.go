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
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"hash"
	"io"
	"runtime"
	"testing"
	"time"

	"resilientos/internal/check"
	"resilientos/internal/hw"
	"resilientos/internal/inet"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
	"resilientos/internal/workload"
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
// reader copies that into its own 64 KiB. Ceiling: 384 B per read — 231
// B over the gate's 200 reads today (194 B a read over a long run: a
// grant, MFS's indirect blocks), plus a margin of 153 B. One sector-sized
// allocation per read trips it, let alone one the size of the payload,
// where the path allocated three such buffers before (DESIGN.md, "Who
// owns a buffer"); the disk's completion records are pooled.
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
	gateAllocBytes(b, "a 64 KiB file read", 384, read)
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

// BenchmarkHotpathSHA1 measures what dd does with each such read: one
// 64 KiB write into its SHA-1, on the SHA extensions where the CPU has
// them. It allocates nothing. The crypto/sha1 row beside it hashes the
// same buffer for comparison and is not gated.
func BenchmarkHotpathSHA1(b *testing.B) {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	for _, arm := range []struct {
		name string
		h    hash.Hash
	}{{"dd", newSHA1()}, {"crypto_sha1", sha1.New()}} {
		b.Run(arm.name, func(b *testing.B) {
			write := func() { arm.h.Write(buf) }
			if arm.name == "dd" {
				gateAllocs(b, "a 64 KiB SHA-1 write", write)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write()
			}
		})
	}
}

// BenchmarkHotpathSectorFill measures what the disk does for each of
// dd's reads: one 64 KiB read command on a bare disk whose sectors are
// unwritten, so the generator makes their content — the completion, the
// fill of 128 sectors as interleaved chains, and the hand-over of the
// data. It allocates nothing. The one_chain row beside it fills the same
// sectors one serial chain at a time, as the disk did before, and is not
// gated; its last fill must equal the disk's bytes.
func BenchmarkHotpathSectorFill(b *testing.B) {
	const count = 128
	const seed = 1
	env := sim.NewEnv(1)
	disk := hw.NewDisk(env, kernel.New(env), hw.DiskConfig{Sectors: 1 << 20, Seed: seed})
	read := func(lba uint32) []byte {
		disk.PortOut(hw.PortDisk+hw.DiskRegLBA, lba)
		disk.PortOut(hw.PortDisk+hw.DiskRegCount, count)
		disk.PortOut(hw.PortDisk+hw.DiskRegCmd, hw.DiskCmdRead)
		env.Run(0)
		data := disk.Handle().TakeData()
		if len(data) != count*hw.SectorSize {
			b.Fatal("the read returned no data")
		}
		return data
	}
	lbaOf := func(i int) uint32 { return uint32(i*count) % (1 << 20) }
	b.Run("disk", func(b *testing.B) {
		gateAllocs(b, "a 64 KiB sector fill", func() { read(0) })
		b.SetBytes(count * hw.SectorSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(lbaOf(i))
		}
	})
	b.Run("one_chain", func(b *testing.B) {
		buf := make([]byte, count*hw.SectorSize)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < count; s++ {
				x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(lbaOf(i)+uint32(s))*0xBF58476D1CE4E5B9 + 1
				for w := s * hw.SectorSize; w < (s+1)*hw.SectorSize; w += 8 {
					x ^= x >> 12
					x ^= x << 25
					x ^= x >> 27
					binary.LittleEndian.PutUint64(buf[w:], x*0x2545F4914F6CDD1D)
				}
			}
		}
		b.StopTimer()
		if !bytes.Equal(buf, read(lbaOf(b.N-1))) {
			b.Fatal("the one-chain fill differs from the disk's")
		}
	})
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

// BenchmarkHotpathTCPConnection measures one whole connection: dial the
// remote download server, read its 1 MiB to EOF, close — what the SWIFI
// campaign's wget does after every crash. Each side's window is a ring
// taken from the free list on its first byte and put back when its
// direction ends, so a warm connection reuses the last one's rings. What
// it still allocates is the socket and connection records. Ceiling: 8
// KiB a connection — far under the 128 KiB receive window, where each
// connection used to grow ≈ 1 MB of window arrays.
func BenchmarkHotpathTCPConnection(b *testing.B) {
	const size = 1 << 20
	sys := New(Config{DisableDisk: true, DisableChar: true})
	defer sys.Close()
	sys.ServeFile(80, 1, size)
	conns := 0
	sys.Spawn("reader", func(p *Proc) {
		buf := make([]byte, 64<<10)
		for {
			conn, err := p.Dial(NetLocal, DriverRTL8139, 80)
			if err != nil {
				b.Errorf("dial: %v", err)
				return
			}
			got := 0
			for {
				n, err := conn.Read(buf)
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Errorf("read: %v", err)
					return
				}
				got += n
			}
			conn.Close()
			if got != size {
				b.Errorf("read %d bytes, want %d", got, size)
			}
			conns++
			sys.Env.Stop() // one Run is one connection
		}
	})
	connection := func() { sys.Run(0) }
	for i := 0; i < 4; i++ {
		connection() // boot, and the rings' first trips
	}
	gateAllocBytes(b, "a 1 MiB TCP connection", 8<<10, connection)
	conns = 0
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		connection()
	}
	if conns != b.N {
		b.Fatalf("%d connections in %d runs", conns, b.N)
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
	// Every emit reached the ring: kept or dropped as the oldest.
	if n := len(ring.Events()) + ring.Dropped(); n != b.N {
		b.Fatalf("emitted %d/%d", n, b.N)
	}
}

// retainedRecord is the bytes one event costs a SliceSink past its first
// 4,096 events: its pointer-free record (internal/obs pins the size in
// TestSliceSinkRecordHoldsNoPointers). An obs.Event is 88 B.
const retainedRecord = 56

// retaining returns a recorder whose SliceSink is already past its
// plainly appended first 4,096 events.
func retaining(sinks ...obs.Sink) *obs.Recorder {
	rec := obs.NewRecorder(append([]obs.Sink{&obs.SliceSink{}}, sinks...)...)
	for i := 0; i <= 4096; i++ {
		rec.Emit(obs.KindIPCSend, "bench", "hotpath", int64(i), 0)
	}
	return rec
}

// BenchmarkHotpathTraceRetain measures one emit into a SliceSink past
// its first 4,096 events, the shape of a full-capture run (wget_observed
// keeps 185,472 a unit): stamp, fan-out, store. A retained event costs
// its record's bytes once. Ceiling: retainedRecord plus 8 B of chunk
// overhead per emit; a chunk of whole Events (88 B each) trips it, and a
// sink that regrows one slice copies everything it holds at each growth,
// several hundred bytes per emit.
func BenchmarkHotpathTraceRetain(b *testing.B) {
	// 200 gated runs emit 12,000 events, just under 3 × 4,096: whatever
	// the phase, at most three chunks are allocated among them.
	const perOp = 60
	rec := retaining()
	gateAllocBytes(b, "retaining a trace event", perOp*(retainedRecord+8), func() {
		for i := 0; i < perOp; i++ {
			rec.Emit(obs.KindIPCSend, "bench", "hotpath", int64(i), 0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<16) == 0 { // a fresh sink now and then keeps the heap small
			b.StopTimer()
			rec = retaining()
			b.StartTimer()
		}
		rec.Emit(obs.KindIPCSend, "bench", "hotpath", int64(i), 0)
	}
}

// BenchmarkHotpathTraceFanout measures one span, begin plus end, through
// a recorder carrying wget_observed's sinks: a SliceSink past its first
// 4,096 events, the invariant checker and the window sampler. Each sink
// reads the recorder's own event through its pointer; only the SliceSink
// keeps it. Gates: no allocation per span (the chunks amortize to none),
// and at most the two retained records at TraceRetain's ceiling each. An
// event copied to the heap on its way to the sinks, as passing the
// address of a local through the interface does, costs 96 B each and
// trips the bytes gate.
func BenchmarkHotpathTraceFanout(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	sampler := timeseries.New(timeseries.Config{Window: time.Second})
	sampler.Attach(env)
	ck := check.New(check.Config{Now: env.Now})
	var rec *obs.Recorder
	fresh := func() {
		rec = retaining(ck, sampler)
		rec.SetClock(env.Now)
	}
	span := func() {
		sc := rec.StartSpan("inet", "tcp.segment", obs.SpanContext{})
		rec.EndSpan("inet", sc, 0)
	}
	// As in TraceRetain: 200 gated runs retain 12,000 records, so at most
	// three chunks fall among them.
	const perOp = 30
	fresh()
	spans := func() {
		for i := 0; i < perOp; i++ {
			span()
		}
	}
	gateAllocs(b, "a span through the observed sinks", spans)
	gateAllocBytes(b, "a span through the observed sinks", perOp*2*(retainedRecord+8), spans)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<15) == 0 { // a fresh sink now and then keeps the heap small
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		span()
	}
	b.StopTimer()
	sampler.Finish()
	if !ck.Ok() {
		b.Fatalf("a begun and ended span violates invariants: %v", ck.Violations())
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

// fleetMix is the benchmark's fleet_storm arrival mix over the 20 s its
// workload.generate probe times: net Poisson at 90 rps with a 2 s diurnal
// term, disk gamma at 45, char Weibull at 15, eleven client chains.
const fleetMix = `{"name":"bench-mix","seed":1,"horizon":"20s","classes":[
{"class":"net","clients":6,"rps":90,"arrival":{"process":"poisson"},"size":{"min":1024,"max":65536},"slo":"25ms","periods":[{"period":"2s","amplitude":0.4}]},
{"class":"disk","clients":3,"rps":45,"arrival":{"process":"gamma","shape":4},"size":{"min":4096,"max":131072},"slo":"40ms"},
{"class":"char","clients":2,"rps":15,"arrival":{"process":"weibull","shape":1.5},"size":{"min":256,"max":8192},"slo":"35ms"}]}`

// BenchmarkHotpathGenerate measures one expansion of the fleet mix into
// its arrival sequence, most of a fleet campaign's set-up. An arrival
// costs its 40 B Event once plus its 16 B draw, the draw buffer sized
// from the spec's arrival bound (1.24 times the mean count here).
// Ceiling: 80 B per arrival plus 64 KiB for the random streams; appending
// every arrival to one growing []Event and sorting it cost about 140 B.
func BenchmarkHotpathGenerate(b *testing.B) {
	spec, err := workload.Parse([]byte(fleetMix))
	if err != nil {
		b.Fatal(err)
	}
	n := len(spec.Generate())
	gateAllocBytes(b, "generating the fleet mix", uint64(80*n+64<<10), func() { spec.Generate() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Generate()
	}
	b.ReportMetric(float64(n), "arrivals/op")
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
// playback ticks, RS's heartbeats and its re-armed alarm — 26 events,
// and nothing else (TestIdleSystemExactCounts pins the count). A machine
// at rest allocates nothing; before PR 25 it took 446 allocations and
// 14.8 KB a second (a closure and an event per codec tick and per alarm,
// RS's label list per timer).
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

// BenchmarkHotpathRestart measures one kill-to-settle of eth.rtl8139 on a
// settled seed-1 System: RS's detection, the direct restart, the NIC's
// 120 ms reset and INET's rebind, then idle time to the end of the second
// (which allocates nothing, BenchmarkHotpathIdleSecond). A restart reuses
// what the dead instance held (DESIGN.md, "What a restart reuses"): its
// process-table entry, sim process and coroutine, its VM's RAM block, the
// shared pristine image and privileges. What it still allocates is what
// is new to the successor, 4 allocations and ≈ 0.5–0.7 KB in all:
//
//   - the kernel.Ctx (32 B), the instance's own handle, which keeps
//     answering the dead endpoint after the entry passes on;
//   - the ucode.VM (144 B) without its RAM, one per instance, which the
//     fault injector keys instances by;
//   - the drvlib.Eth (160 B), the driver's Go state;
//   - drvlib's loop state for the instance (a few bytes);
//
// plus, less than once a recovery, the growth of RS's recovery log
// (≈ 270 B a recovery, amortized): the record of the recovery itself.
//
// The gate holds it there: 4 allocations and 1 KB (41 and ≈ 7.7 KB
// before the reuse), so a change to the recovery path cannot add one
// unseen.
func BenchmarkHotpathRestart(b *testing.B) {
	sys := New(Config{Seed: 1})
	defer sys.Close()
	sys.Run(3 * time.Second) // boot settle
	restart := func() {
		sys.KillDriver(DriverRTL8139)
		sys.Run(time.Second)
	}
	restart() // the first recovery's one-time growth
	if allocs := testing.AllocsPerRun(20, restart); allocs > 4 {
		b.Fatalf("a kill-to-settle allocates %v times, gate 4", allocs)
	}
	gateAllocBytes(b, "a kill-to-settle", 1<<10, restart)
	before := len(sys.RS.Events())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restart()
	}
	b.StopTimer()
	for _, ev := range sys.RS.EventsSince(before) {
		if !ev.Recovered || ev.Label != DriverRTL8139 {
			b.Fatalf("event %+v, want every kill recovered", ev)
		}
	}
	if got := len(sys.RS.Events()) - before; got != b.N {
		b.Fatalf("%d recoveries in %d kills", got, b.N)
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
