package perf

import (
	"testing"
	"time"

	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// A nil profiler must be usable everywhere: every call site in the
// kernel, obs stack, and cluster uses p.Begin/p.End unconditionally.
func TestNilProfilerIsNoOp(t *testing.T) {
	var p *Profiler
	p.Begin(RegionStep)
	p.End(RegionStep)
	p.SetSampleEvery(1)
	p.Start(0)
	p.Finish(0)
	p.Attach(sim.NewEnv(1))
	p.AttachVM(&ucode.VM{})
	if p.Depth() != 0 || p.Count(RegionStep) != 0 {
		t.Fatal("nil profiler reported state")
	}
	if got := p.Report(); got.Events != 0 || got.Regions != nil {
		t.Fatal("nil profiler produced a report")
	}
}

// Self-time accounting: a nested region's inclusive time is charged to
// the parent's childNs, so parent self + child total == parent total.
func TestNestingSelfTime(t *testing.T) {
	p := New()
	p.Begin(RegionStep)
	p.Begin(RegionObs)
	time.Sleep(time.Millisecond)
	p.End(RegionObs)
	p.End(RegionStep)

	if p.Depth() != 0 {
		t.Fatalf("stack depth %d after balanced brackets", p.Depth())
	}
	rep := p.Report()
	var step, obs RegionReport
	for _, rr := range rep.Regions {
		switch rr.Region {
		case "step":
			step = rr
		case "obs":
			obs = rr
		}
	}
	if step.Count != 1 || obs.Count != 1 {
		t.Fatalf("counts: step=%d obs=%d, want 1/1", step.Count, obs.Count)
	}
	if obs.TotalNs <= 0 || step.TotalNs < obs.TotalNs {
		t.Fatalf("inclusive times: step=%d obs=%d", step.TotalNs, obs.TotalNs)
	}
	if got := step.SelfNs + obs.TotalNs; got != step.TotalNs {
		t.Fatalf("step self (%d) + obs total (%d) = %d, want step total %d",
			step.SelfNs, obs.TotalNs, got, step.TotalNs)
	}
}

func TestEndMismatchPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("End on empty stack", func() { New().End(RegionStep) })
	mustPanic("End out of order", func() {
		p := New()
		p.Begin(RegionStep)
		p.Begin(RegionObs)
		p.End(RegionStep)
	})
	mustPanic("Finish with open region", func() {
		p := New()
		p.Begin(RegionStep)
		p.Start(0)
		p.Finish(0)
	})
}

// Alloc sampling is count-based: exactly every Kth entry samples,
// independent of wall time, so sample counts are deterministic.
func TestSamplingCadence(t *testing.T) {
	p := New()
	p.SetSampleEvery(4)
	for i := 0; i < 10; i++ {
		p.Begin(RegionUcode)
		p.End(RegionUcode)
	}
	rep := p.Report()
	for _, rr := range rep.Regions {
		if rr.Region != "ucode" {
			continue
		}
		if rr.Count != 10 || rr.Samples != 2 {
			t.Fatalf("count=%d samples=%d, want 10/2", rr.Count, rr.Samples)
		}
	}

	off := New()
	off.SetSampleEvery(0)
	for i := 0; i < 10; i++ {
		off.Begin(RegionUcode)
		off.End(RegionUcode)
	}
	if got := off.Report().Regions[int(RegionUcode)].Samples; got != 0 {
		t.Fatalf("sampling disabled but %d samples taken", got)
	}
}

// Attach counts every executed scheduler event, and the step-hook
// bracket counts every post-event hook invocation — both must agree
// with the Env's own deterministic counters.
func TestAttachCountsSchedulerEvents(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		env := sim.NewEnv(7)
		p := New()
		p.Attach(env)
		hooks := uint64(0)
		env.SetStepHook(func() { hooks++ })
		var tick func(d sim.Time)
		tick = func(d sim.Time) {
			if d > 20*sim.Time(time.Millisecond) {
				return
			}
			env.Schedule(d, func() { tick(d + sim.Time(time.Millisecond)) })
		}
		tick(sim.Time(time.Millisecond))
		p.Start(env.Now())
		env.Run(sim.Time(time.Second))
		p.Finish(env.Now())
		return p.Count(RegionStep), p.Count(RegionCheck), env.EventsExecuted()
	}
	steps, checks, executed := run()
	if steps == 0 || steps != executed {
		t.Fatalf("RegionStep count %d, env executed %d", steps, executed)
	}
	if checks != steps {
		t.Fatalf("RegionCheck count %d, want one per event (%d)", checks, steps)
	}
	steps2, checks2, _ := run()
	if steps2 != steps || checks2 != checks {
		t.Fatalf("counts not reproducible: %d/%d vs %d/%d", steps, checks, steps2, checks2)
	}
}

func TestAttachVMCountsInvocations(t *testing.T) {
	img, err := ucode.Assemble(".entry main\nmain:\n\tmovi r1, 1\n\thalt\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := ucode.New(img, nil)
	p := New()
	p.AttachVM(vm)
	for i := 0; i < 3; i++ {
		if res := vm.Run("main"); res.Outcome != ucode.OutcomeOK {
			t.Fatalf("vm run %d: %v", i, res.Outcome)
		}
	}
	if got := p.Count(RegionUcode); got != 3 {
		t.Fatalf("RegionUcode count %d, want 3", got)
	}
}

// RegionBarrier brackets a whole sim.Each, the way internal/cluster does;
// member events nest inside it, exercising the cross-env LIFO discipline
// the cluster relies on.
func TestBarrierRegionNestsMemberSteps(t *testing.T) {
	a, b := sim.NewEnv(1), sim.NewEnv(2)
	p := New()
	p.Attach(a)
	p.Attach(b)
	for _, env := range []*sim.Env{a, b} {
		env := env
		env.Tick(sim.Time(time.Millisecond), func() {})
	}
	envs := []*sim.Env{a, b}
	p.Start(0)
	p.Begin(RegionBarrier)
	sim.Each(1, len(envs), func(i int) { envs[i].RunUntil(sim.Time(10 * time.Millisecond)) })
	p.End(RegionBarrier)
	p.Finish(sim.Time(10 * time.Millisecond))

	if got := p.Count(RegionBarrier); got != 1 {
		t.Fatalf("RegionBarrier count %d, want 1", got)
	}
	want := a.EventsExecuted() + b.EventsExecuted()
	if got := p.Count(RegionStep); got == 0 || got != want {
		t.Fatalf("RegionStep count %d, want %d", got, want)
	}
	rep := p.Report()
	barrier := rep.Regions[int(RegionBarrier)]
	step := rep.Regions[int(RegionStep)]
	if barrier.TotalNs < step.TotalNs {
		t.Fatalf("barrier inclusive %dns < nested steps %dns", barrier.TotalNs, step.TotalNs)
	}
}

// The report enumerates every region exactly once in canonical order,
// entered or not, so the document structure is deterministic.
func TestReportStructure(t *testing.T) {
	p := New()
	p.Begin(RegionStep)
	p.End(RegionStep)
	p.Start(0)
	p.Finish(sim.Time(time.Second))
	rep := p.Report()
	if len(rep.Regions) != len(Regions()) {
		t.Fatalf("%d region rows, want %d", len(rep.Regions), len(Regions()))
	}
	for i, r := range Regions() {
		if rep.Regions[i].Region != r.String() {
			t.Fatalf("row %d is %q, want %q", i, rep.Regions[i].Region, r)
		}
	}
	if rep.Events != 1 || rep.VirtualNs != int64(time.Second) {
		t.Fatalf("events=%d virtual=%d", rep.Events, rep.VirtualNs)
	}
}
