// Package perf is wall-clock performance telemetry for the simulator
// itself — the meters behind the exact-count battery (battery_test.go)
// and the per-layer table of benchmark/. It lives strictly apart from the
// deterministic virtual-time plane: everything the simulation computes
// (event order, virtual clocks, traces, figures) is identical with and
// without a Profiler attached.
//
// The split is enforced by construction. A Profiler keeps two classes of
// state:
//
//   - Deterministic counters: how many times each region was entered,
//     and which entries were alloc-sampled (every Kth entry of a region,
//     a pure count-based rule). These are byte-reproducible across runs
//     and machines; the battery's committed golden
//     (testdata/BENCH_simspeed_seed1.json) pins them.
//   - Wall-clock samples: nanoseconds and allocation deltas observed
//     while inside a region. These vary run to run; benchmark/ reads
//     them from runs long enough to resolve them.
//
// Regions are cheap nestable brackets (Begin/End) placed on the
// simulator hot path: the scheduler step loop, kernel IPC dispatch,
// ucode VM execution, obs/decision recording, the invariant checker,
// timeseries rollovers, and the fleet's parallel sections. Region entry and
// exit must be strictly LIFO on the executed event stream; a region must
// never span a Park (the kernel ends its IPC region before parking a
// process). End panics on a mismatched region to catch such bugs
// immediately.
//
// A Profiler is single-threaded, like the Env it observes: attach one
// profiler to one environment (or to several environments advanced
// sequentially, e.g. by sim.Each with one worker). A nil *Profiler is
// valid everywhere and all methods are no-ops, mirroring obs.Recorder.
package perf

import (
	"fmt"
	"runtime/metrics"
	"time"

	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// Region identifies one instrumented subsystem of the simulator hot path.
type Region uint8

// The region taxonomy. RegionStep brackets every executed scheduler
// event, so every other region (except RegionBarrier, which contains
// steps) nests inside it and step self-time is "scheduler + everything
// not otherwise attributed".
const (
	RegionStep       Region = iota // one scheduler event: pop, dispatch, run
	RegionKernelIPC                // kernel send/receive/notify dispatch
	RegionUcode                    // driver ucode VM invocations
	RegionObs                      // obs trace-event stamping and fan-out
	RegionCheck                    // live invariant checker (step hook)
	RegionDecision                 // recovery decision-log recording
	RegionTimeseries               // timeseries window rollovers
	RegionBarrier                  // a fleet's members advancing (contains steps)
	regionMax
)

var regionNames = [regionMax]string{
	"step", "kernel.ipc", "ucode", "obs", "check", "decision", "timeseries", "barrier",
}

func (r Region) String() string {
	if r < regionMax {
		return regionNames[r]
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// Regions returns the full region taxonomy in canonical order.
func Regions() []Region {
	rs := make([]Region, regionMax)
	for i := range rs {
		rs[i] = Region(i)
	}
	return rs
}

// DefaultSampleEvery is the default alloc-sampling period: every Kth
// entry of a region pays two runtime/metrics reads; the rest pay only a
// counter increment and a monotonic clock read.
const DefaultSampleEvery = 64

// heapAllocsMetric is the cumulative heap-allocation count sampled
// around region entries. runtime/metrics reads are cheap (no
// stop-the-world, unlike runtime.ReadMemStats).
const heapAllocsMetric = "/gc/heap/allocs:objects"

type frame struct {
	region     Region
	start      int64 // ns since p.base
	childNs    int64 // wall ns spent in nested regions
	sampled    bool
	allocStart uint64
}

// Profiler accumulates per-region wall-clock cost for one simulation
// run. The zero value is not usable; call New. A nil *Profiler is a
// no-op everywhere.
type Profiler struct {
	base        time.Time
	sampleEvery uint64

	counts  [regionMax]uint64 // deterministic: region entries
	samples [regionMax]uint64 // deterministic: alloc-sampled entries
	totalNs [regionMax]int64  // wall: inclusive time
	selfNs  [regionMax]int64  // wall: exclusive of nested regions
	allocs  [regionMax]uint64 // wall: heap objects across sampled entries

	stack       []frame
	allocSample []metrics.Sample

	startVirtual sim.Time
	endVirtual   sim.Time
}

// New returns a profiler with the default alloc-sampling period.
func New() *Profiler {
	return &Profiler{
		base:        time.Now(),
		sampleEvery: DefaultSampleEvery,
		stack:       make([]frame, 0, 16),
		allocSample: []metrics.Sample{{Name: heapAllocsMetric}},
	}
}

// SetSampleEvery changes the alloc-sampling period (0 disables alloc
// sampling entirely). Call before the run starts; changing it mid-run
// changes which entries sample and therefore the deterministic sample
// counts.
func (p *Profiler) SetSampleEvery(k uint64) {
	if p == nil {
		return
	}
	p.sampleEvery = k
}

func (p *Profiler) heapAllocs() uint64 {
	metrics.Read(p.allocSample)
	return p.allocSample[0].Value.Uint64()
}

// Begin enters region r. Every call increments the deterministic entry
// count; every sampleEvery-th entry additionally snapshots the
// cumulative heap-allocation counter.
func (p *Profiler) Begin(r Region) {
	if p == nil {
		return
	}
	p.counts[r]++
	f := frame{region: r, start: int64(time.Since(p.base))}
	if p.sampleEvery != 0 && p.counts[r]%p.sampleEvery == 0 {
		f.sampled = true
		f.allocStart = p.heapAllocs()
	}
	p.stack = append(p.stack, f)
}

// End leaves region r, which must be the innermost open region —
// regions are strictly LIFO and must never span a Park. A mismatch is a
// bug in instrumentation placement and panics.
func (p *Profiler) End(r Region) {
	if p == nil {
		return
	}
	n := len(p.stack)
	if n == 0 {
		panic("perf: End(" + r.String() + ") with empty region stack")
	}
	f := p.stack[n-1]
	if f.region != r {
		panic("perf: End(" + r.String() + ") does not match open region " + f.region.String())
	}
	p.stack = p.stack[:n-1]
	el := int64(time.Since(p.base)) - f.start
	p.totalNs[r] += el
	p.selfNs[r] += el - f.childNs
	if n >= 2 {
		p.stack[n-2].childNs += el
	}
	if f.sampled {
		p.samples[r]++
		p.allocs[r] += p.heapAllocs() - f.allocStart
	}
}

// Depth reports the current region-stack depth (0 outside any region).
func (p *Profiler) Depth() int {
	if p == nil {
		return 0
	}
	return len(p.stack)
}

// Count returns the deterministic entry count for region r.
func (p *Profiler) Count(r Region) uint64 {
	if p == nil {
		return 0
	}
	return p.counts[r]
}

// Start marks the beginning of the measured run on the virtual clock.
func (p *Profiler) Start(virtualNow sim.Time) {
	if p == nil {
		return
	}
	p.startVirtual = virtualNow
}

// Finish marks the end of the measured run. The region stack must be
// empty (all regions closed).
func (p *Profiler) Finish(virtualNow sim.Time) {
	if p == nil {
		return
	}
	p.endVirtual = virtualNow
	if len(p.stack) != 0 {
		panic("perf: Finish with " + p.stack[len(p.stack)-1].region.String() + " still open")
	}
}

// Attach installs the profiler on env's scheduler loop: every executed
// event runs inside RegionStep and the post-event step hook (the live
// invariant checker) inside RegionCheck. Passing a nil profiler leaves
// env untouched.
func (p *Profiler) Attach(env *sim.Env) {
	if p == nil || env == nil {
		return
	}
	env.SetPerfHooks(&sim.PerfHooks{
		EventBegin: func() { p.Begin(RegionStep) },
		EventEnd:   func() { p.End(RegionStep) },
		HookBegin:  func() { p.Begin(RegionCheck) },
		HookEnd:    func() { p.End(RegionCheck) },
	})
}

// AttachVM brackets every invocation of vm in RegionUcode.
func (p *Profiler) AttachVM(vm *ucode.VM) {
	if p == nil || vm == nil {
		return
	}
	vm.PerfBegin = func() { p.Begin(RegionUcode) }
	vm.PerfEnd = func() { p.End(RegionUcode) }
}

// RegionReport is one region's slice of a Report. Count and Samples are
// deterministic; the ns and alloc fields are wall-clock observations.
type RegionReport struct {
	Region         string  // canonical region name
	Count          uint64  // entries (deterministic)
	Samples        uint64  // alloc-sampled entries (deterministic)
	TotalNs        int64   // inclusive wall ns
	SelfNs         int64   // exclusive wall ns
	NsPerEntry     float64 // SelfNs / Count
	AllocsPerEntry float64 // heap objects per entry, from sampled entries
}

// Report is the profiler's summary of one run. Events, VirtualNs, and
// the per-region Count/Samples fields are deterministic; the regions'
// ns and alloc fields observe the host machine.
type Report struct {
	Events    uint64 // scheduler events executed (RegionStep entries)
	VirtualNs int64  // virtual time advanced between Start and Finish
	Regions   []RegionReport
}

// Report summarizes the run. Every region appears exactly once, in
// canonical order, whether or not it was entered — so the structure of
// the report is deterministic even when the numbers are not.
func (p *Profiler) Report() Report {
	if p == nil {
		return Report{}
	}
	rep := Report{
		Events:    p.counts[RegionStep],
		VirtualNs: int64(p.endVirtual - p.startVirtual),
	}
	rep.Regions = make([]RegionReport, 0, regionMax)
	for r := Region(0); r < regionMax; r++ {
		rr := RegionReport{
			Region:  r.String(),
			Count:   p.counts[r],
			Samples: p.samples[r],
			TotalNs: p.totalNs[r],
			SelfNs:  p.selfNs[r],
		}
		if rr.Count > 0 {
			rr.NsPerEntry = float64(rr.SelfNs) / float64(rr.Count)
		}
		if rr.Samples > 0 {
			rr.AllocsPerEntry = float64(p.allocs[r]) / float64(rr.Samples)
		}
		rep.Regions = append(rep.Regions, rr)
	}
	return rep
}
