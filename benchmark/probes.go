package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"resilientos"
	"resilientos/internal/check"
	"resilientos/internal/fi"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/policy"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
	"resilientos/internal/workload"
)

// The probes time public functions of single layers in isolation, so a
// change to one layer can be seen apart from the workloads it serves.
// Each is the median of probeBatches batches of at least 0.2 s.

const probeBatches = 5

// measure runs op(n) — n operations, set-up included — in batches sized
// to last at least batch, and returns the median time and heap
// allocations per operation.
func measure(batch time.Duration, op func(n int)) (nsPerOp, allocsPerOp float64) {
	once := func(n int) (time.Duration, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		op(n)
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		return el, after.Mallocs - before.Mallocs
	}
	n := 1
	for {
		el, _ := once(n)
		if el >= batch {
			break
		}
		grow := 2.0
		if el > 0 {
			grow = 1.2 * float64(batch) / float64(el)
		}
		if grow > 100 {
			grow = 100
		}
		n = int(float64(n)*grow) + 1
	}
	ns := make([]float64, probeBatches)
	allocs := make([]float64, probeBatches)
	for i := range ns {
		el, mallocs := once(n)
		ns[i] = float64(el) / float64(n)
		allocs[i] = float64(mallocs) / float64(n)
	}
	return median(ns), median(allocs)
}

// probe times one named probe and records its span.
func (u *unit) probe(name string, fn func()) {
	u.enter("probe:" + name)
	fn()
}

// fullSystem boots the standard machine with every subsystem and lets
// it settle.
func fullSystem() *resilientos.System {
	sys := resilientos.New(resilientos.Config{
		PreallocFiles: []resilientos.PreallocFile{{Name: "bigdata", Size: 1 << 20}},
	})
	sys.Run(settle)
	return sys
}

// constBus answers every port read with one value; the rtl8139 rx
// routine then sees a frame of that length waiting.
type constBus uint32

func (b constBus) In(uint32) (uint32, bool) { return uint32(b), true }
func (constBus) Out(uint32, uint32) bool    { return true }

// genericPolicy is the paper's Fig. 2 recovery script.
const genericPolicy = `
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
`

func (u *unit) probes() error {
	batch := 200 * time.Millisecond
	if u.opts.Quick {
		batch = 2 * time.Millisecond
	}
	timeOp := func(op func(n int)) (float64, float64) { return measure(batch, op) }
	out := u.rec.Noisy
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("probe: "+format, args...)
		}
	}

	// First, while no other simulation has run in this process: the
	// goroutines a booted system leaves behind once it is dropped.
	u.probe("sim.leaked_goroutines", func() {
		before := runtime.NumGoroutine()
		fullSystem()
		runtime.GC()
		u.rec.Exact["sim.leaked_goroutines"] = float64(runtime.NumGoroutine() - before)
	})

	u.probe("sim.switch", func() {
		// Park/Wake ping-pong: every operation is one coroutine switch
		// through the scheduler.
		ns, allocs := timeOp(func(n int) {
			env := sim.NewEnv(1)
			var a, b *sim.Proc
			a = env.Spawn("a", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Park()
					b.Wake(nil)
				}
			})
			b = env.Spawn("b", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					a.Wake(nil)
					p.Park()
				}
			})
			env.Run(0)
		})
		out["sim.switch_ns"], out["sim.switch_allocs"] = ns/2, allocs/2
	})

	u.probe("sim.tick", func() {
		out["sim.tick_ns"], out["sim.tick_allocs"] = timeOp(func(n int) {
			env := sim.NewEnv(1)
			ticks := 0
			env.Tick(time.Millisecond, func() { ticks++ })
			env.Run(time.Duration(n) * time.Millisecond)
			if ticks < n-1 {
				fail("fired %d of %d ticks", ticks, n)
			}
		})
	})

	u.probe("kernel.sendrec", func() {
		out["kernel.sendrec_ns"], out["kernel.sendrec_allocs"] = timeOp(func(n int) {
			env := sim.NewEnv(1)
			k := kernel.New(env)
			priv := kernel.Privileges{AllowAllIPC: true}
			srv, serr := k.Spawn("echo", priv, func(c *kernel.Ctx) {
				for {
					m, rerr := c.Receive(kernel.Any)
					if rerr != nil || c.Send(m.Source, m) != nil {
						return
					}
				}
			})
			if serr != nil {
				fail("spawn echo: %v", serr)
				return
			}
			trips := 0
			_, serr = k.Spawn("client", priv, func(c *kernel.Ctx) {
				for i := 0; i < n; i++ {
					if _, rerr := c.SendRec(srv.Endpoint(), kernel.Message{Type: 1, Arg1: int64(i)}); rerr != nil {
						return
					}
					trips++
				}
			})
			if serr != nil {
				fail("spawn client: %v", serr)
				return
			}
			env.Run(0)
			if trips != n {
				fail("completed %d of %d round-trips", trips, n)
			}
		})
	})

	u.probe("obs.emit", func() {
		out["obs.emit_ns"], out["obs.emit_allocs"] = timeOp(func(n int) {
			rec := obs.NewRecorder(obs.NewRingSink(4096))
			for i := 0; i < n; i++ {
				rec.Emit(obs.KindIPCSend, "bench", "probe", int64(i), 0)
			}
		})
	})

	u.probe("workload.generate", func() {
		spec, perr := workload.Parse([]byte(fmt.Sprintf(fleetSpec, 1, "20s")))
		if perr != nil {
			fail("%v", perr)
			return
		}
		events := len(spec.Generate())
		ns, _ := timeOp(func(n int) {
			for i := 0; i < n; i++ {
				spec.Generate()
			}
		})
		out["workload.generate_ns_per_event"] = ns / float64(events)
	})

	u.probe("policy.run", func() {
		script, perr := policy.Parse(genericPolicy)
		if perr != nil {
			fail("%v", perr)
			return
		}
		ns, _ := timeOp(func(n int) {
			for i := 0; i < n; i++ {
				in := policy.NewInterp(
					policy.WithArgs("eth.rtl8139", "3", "2", "-a", "operator@localhost"),
					policy.WithCommand("service", func([]string, string) (string, int) { return "", 0 }),
					policy.WithCommand("mail", func([]string, string) (string, int) { return "", 0 }),
				)
				if status, rerr := in.Run(script); rerr != nil || status != 0 {
					fail("policy script: status %d, %v", status, rerr)
					return
				}
			}
		})
		out["policy.run_us"] = ns / 1e3
	})

	u.probe("system.boot", func() {
		var events uint64
		ns, _ := timeOp(func(n int) {
			for i := 0; i < n; i++ {
				events = fullSystem().Env.EventsExecuted()
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fullSystem()
		runtime.ReadMemStats(&after)
		out["system.boot_ms"] = ns / 1e6
		out["system.boot_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		u.rec.Exact["system.boot_events"] = float64(events)
	})

	sys := fullSystem()

	u.probe("check.step", func() {
		ck := check.New(check.Config{Kernel: sys.Kernel, RS: sys.RS, DS: sys.DS, Now: sys.Env.Now})
		out["check.step_ns"], out["check.step_allocs"] = timeOp(func(n int) {
			for i := 0; i < n; i++ {
				ck.Step()
			}
		})
		if !ck.Ok() {
			fail("checker on a settled system: %v", ck.Violations())
		}
	})

	img := sys.DriverVM(resilientos.DriverRTL8139).Img

	u.probe("ucode.run", func() {
		vm := ucode.New(img.Clone(), constBus(64))
		out["ucode.run_ns"], _ = timeOp(func(n int) {
			for i := 0; i < n; i++ {
				if res := vm.Run("rx"); res.Outcome != ucode.OutcomeOK {
					fail("rtl8139 rx routine: %v %s", res.Outcome, res.Reason)
					return
				}
			}
		})
	})

	u.probe("fi.inject", func() {
		injector := fi.New(rand.New(rand.NewSource(1)))
		out["fi.inject_ns"], _ = timeOp(func(n int) {
			// A fresh copy each time: an image mutated over and over
			// runs out of applicable sites and InjectRandom never returns.
			for i := 0; i < n; i++ {
				injector.InjectRandom(img.Clone())
			}
		})
	})
	return err
}
