// Package cluster simulates a fleet of resilient operating systems
// behind a load balancer, extending the single-node reproduction of
// Herder et al.'s failure-resilient OS to the question the paper's
// availability argument implies: how much does driver-level recovery
// buy a *service* when faults hit many machines at once?
//
// Every node is a full resilientos.System — its own microkernel,
// reincarnation server, drivers, and seeded scheduler. A fleet-level event
// loop owns a separate clock on which request arrivals, routing, and
// metric windows are scheduled, and looks at the fleet every 5 ms slice.
// Requests are synthetic here and never enter a member, so a storm strike
// is the only thing the fleet ever does to one, and the storm is a pure
// function of the fleet seed: Boot lists every member's strikes up front,
// as the arrivals are. A member's run is then a function of its seed and
// its strike list and of nothing else, so a campaign has two phases: the
// members, as independent jobs of one sim.Each, run from boot to the end
// of the campaign, each dealing itself its strikes and probing its own
// health at the slice boundaries where it can change into a transition
// list; then the fleet loop runs alone and adopts those answers as its
// clock passes them, stopping only where one changed.
// Cluster-level logic therefore reads exactly the node state it would
// have read by stopping every member at every boundary, and a campaign is
// byte-reproducible from its fleet seed regardless of how many workers
// run the members.
package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"resilientos"
	"resilientos/internal/obs"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
	"resilientos/internal/workload"
)

// Config parameterizes one fleet campaign. The zero value is usable:
// New supplies defaults for everything but the storm (default none).
type Config struct {
	Nodes int   // fleet size (default 4)
	Seed  int64 // fleet seed; node seeds and all draws derive from it (default 1)

	Policy Policy // routing policy (default FailureAware)
	Storm  Storm  // fault schedule (default none)

	Horizon time.Duration // request/storm phase length (default 12s)
	Window  time.Duration // availability window width (default 250ms)

	Workers int // members run in parallel; never changes results (default: see sim.Each)

	// Perf, if set, attaches wall-clock telemetry (internal/perf) to the
	// fleet clock, the members' parallel sections, and every member node.
	// The profiler is single-threaded, so New forces Workers to 1 — which
	// never changes results, only wall-clock speed.
	Perf *perf.Profiler

	// Arrivals is the load: the arrival sequence the fleet serves,
	// generated from a workload spec or replayed from a recorded tracev2
	// trace. Event times are offsets from the end of the settle phase.
	// Empty means workload.Classic at defaultRPS over the horizon.
	Arrivals []workload.Event
	// Classes lists the routable service classes (default net+disk).
	// Workload-driven campaigns derive this from the spec; including the
	// char class boots the character-device subsystem on every node.
	Classes []string
	// Budgets maps a class to its SLO latency budget; classes with a
	// budget get request- and window-level attainment in the report.
	Budgets map[string]time.Duration
	// WorkloadName labels the report with the driving spec or trace.
	WorkloadName string
}

// What every campaign has run with; no caller wanted a second value.
const (
	slice      = 5 * time.Millisecond   // spacing of the fleet's looks at its members
	settle     = 3 * time.Second        // boot settling before the campaign
	drain      = 8 * time.Second        // max extra time for recoveries/in-flight
	retryAfter = 40 * time.Millisecond  // client re-route timeout after a failed attempt
	warmup     = 500 * time.Millisecond // post-recovery distrust of a class (see Node.warmupUntil)
	defaultRPS = 200                    // fleet-wide rate of the default load
)

// fill applies defaults and normalizes the geometry: the window is
// rounded down to a slice multiple and the horizon up to a window
// multiple, so windows tile the campaign exactly.
func (cfg Config) fill() Config {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Policy == nil {
		cfg.Policy = FailureAware{}
	}
	if cfg.Storm.Kind == "" {
		cfg.Storm.Kind = "none"
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 12 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 250 * time.Millisecond
	}
	if cfg.Window < slice {
		cfg.Window = slice
	}
	cfg.Window -= cfg.Window % slice
	if rem := cfg.Horizon % cfg.Window; rem != 0 {
		cfg.Horizon += cfg.Window - rem
	}
	if cfg.Perf != nil {
		cfg.Workers = 1
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = []string{resilientos.ClassNet, resilientos.ClassDisk}
	}
	if len(cfg.Arrivals) == 0 {
		spec, err := workload.Classic(cfg.Seed, defaultRPS, cfg.Horizon)
		if err != nil {
			panic(err) // unreachable: the rate and the horizon are positive here
		}
		cfg.Arrivals, cfg.WorkloadName = spec.Generate(), spec.Name
	}
	return cfg
}

// Cluster is one fleet campaign in flight.
type Cluster struct {
	cfg    Config
	policy Policy

	fleet  *sim.Env // fleet clock: arrivals, routing, kill counts, windows
	nodes  []*Node
	byName []*Node // the nodes in name order, for the window status column

	reg     *obs.Registry
	sampler *timeseries.Sampler
	tracker *tracker

	rng     *rand.Rand // service-time draws
	horizon sim.Time
	classes []string

	// sliceCadence is a test hook: members and fleet loop alternate slice
	// by slice through the whole campaign, as they do in the drain — the
	// reference the one-section run is compared against.
	sliceCadence bool
	ticks        int // boundaries the fleet clock stopped at

	// tick's tally, redone only when an adopted answer moved: healthy
	// nodes per class (indexed as classes) and nodes mid-recovery.
	healthy    []int
	recovering int

	// The request path's counters, each resolved on its first event:
	// every arrival and completion, and per class (indexed as classes),
	// per node (as nodes) and per reroute cause (as rerouteCauses).
	arrived, completed             counter
	arrivals, dispatched, reroutes []counter

	free *request // completed requests, for arrive to reuse

	nextReq      int64
	outstanding  int64
	rerouted     int64
	reroutedReqs int64
	latencies    [][]sim.Time // completed requests' latencies, indexed as classes
	latencyBuf   []sim.Time   // what the latencies are runs of (see sizeLatencies)
}

// Boot boots a fleet and lists its storm; call Run to execute the
// campaign. It refuses a storm that cannot run (see Storm.validate) or
// whose victim no member guards: such a storm would count strikes that RS
// never delivers and report a fleet that rode them out. A wave cannot hit
// more nodes than there are, so K is clamped here, and the report names
// the storm that ran.
func Boot(cfg Config) (*Cluster, error) {
	cfg = cfg.fill()
	if err := cfg.Storm.validate(); err != nil {
		return nil, err
	}
	cfg.Storm.K = min(cfg.Storm.K, cfg.Nodes)
	c := &Cluster{
		cfg:       cfg,
		policy:    cfg.Policy,
		fleet:     sim.NewEnv(cfg.Seed),
		reg:       obs.NewRegistry(),
		horizon:   sim.Time(cfg.Horizon),
		classes:   cfg.Classes,
		latencies: make([][]sim.Time, len(cfg.Classes)),
		healthy:   make([]int, len(cfg.Classes)),
	}
	c.arrived = counter{reg: c.reg, name: "fleet.arrivals"}
	c.completed = counter{reg: c.reg, name: "fleet.complete"}
	c.arrivals = family(c.reg, "fleet.arrivals.", cfg.Classes)
	c.reroutes = family(c.reg, "fleet.reroute.", rerouteCauses)
	withChar := slices.Contains(cfg.Classes, resilientos.ClassChar)
	c.rng = rand.New(rand.NewSource(cfg.Seed ^ 0x466C656574)) // "Fleet"
	c.sampler = timeseries.New(timeseries.Config{
		Window:   sim.Time(cfg.Window),
		Registry: c.reg,
		Status:   c.status,
	})
	if cfg.Perf != nil {
		cfg.Perf.Attach(c.fleet)
		c.sampler.SetPerf(cfg.Perf)
	}
	names := make([]string, cfg.Nodes)
	for i := range names {
		c.nodes = append(c.nodes, newNode(i, cfg.Seed, withChar, cfg.Perf))
		names[i] = c.nodes[i].Name
	}
	c.dispatched = family(c.reg, "fleet.dispatch.", names)
	c.byName = slices.Clone(c.nodes)
	slices.SortFunc(c.byName, func(a, b *Node) int { return strings.Compare(a.Name, b.Name) })
	if s := cfg.Storm; s.Kind != "none" && !c.nodes[0].Sys.RS.Guards(s.Driver) {
		c.Close()
		return nil, fmt.Errorf("cluster: storm victim %q is not a driver the fleet's members guard", s.Driver)
	}
	for i, strikes := range strikeSchedule(cfg.Seed, cfg.Storm, cfg.Nodes, settle+c.horizon) {
		c.nodes[i].victim, c.nodes[i].strikes = cfg.Storm.Driver, strikes
	}
	return c, nil
}

// New is Boot for a Config built in code and known to be valid: it panics
// on the error Boot would return.
func New(cfg Config) *Cluster {
	c, err := Boot(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// advance runs every member to the slice boundary t (see Node.advance),
// in parallel: members share no state and the fleet loop stands still.
func (c *Cluster) advance(t sim.Time) {
	c.cfg.Perf.Begin(perf.RegionBarrier)
	sim.Each(c.cfg.Workers, len(c.nodes), func(i int) { c.nodes[i].advance(t) })
	c.cfg.Perf.End(perf.RegionBarrier)
}

// tick brings the fleet clock to the slice boundary t, which every member
// has reached or passed: fleet events up to t first, then the adoption of
// the members' probe answers for t — so routing between t and the next
// tick sees exactly the state a probe at t saw — then the tally, which
// only an adopted answer can move.
func (c *Cluster) tick(t sim.Time) {
	c.ticks++
	c.fleet.RunUntil(t)
	moved := false
	for _, n := range c.nodes {
		moved = n.adopt(t) || moved
	}
	if moved {
		c.recovering = 0
		clear(c.healthy)
		for _, n := range c.nodes {
			if n.degraded {
				c.recovering++
			}
			for i, cl := range c.classes {
				if n.health.OK(cl) {
					c.healthy[i]++
				}
			}
		}
	}
	if c.tracker != nil {
		c.tracker.sampleBarriers(t, t, c.healthy, c.recovering)
	}
}

// Run executes the campaign. The members go first, in one parallel
// section: boot settling, then the storm phase to its end. Then the fleet
// loop, alone, over what the members left behind, from one boundary where
// an answer changed to the next. The drain that follows waits for in-flight requests and
// recoveries to finish; its end is not known in advance, so there members
// and fleet loop alternate slice by slice. Returns the fleet report.
func (c *Cluster) Run() *Report {
	end := settle + c.horizon
	if c.sliceCadence {
		for _, n := range c.nodes {
			n.everySlice = true
		}
		c.advance(settle)
	} else {
		c.advance(end)
	}

	// Boot settling: let every node reach steady state before windows
	// start, so availability measures the storm, not the boot.
	c.tick(settle)

	c.tracker = newTracker(settle, sim.Time(c.cfg.Window), int(c.horizon/sim.Time(c.cfg.Window)),
		c.classes, c.cfg.Budgets)
	c.sampler.Attach(c.fleet)
	c.armArrivals(end)
	// The fleet clock books each strike, at its instant, that a member
	// dealt itself there (see Node.advance).
	startStorm(c.fleet, c.cfg.Seed, c.cfg.Storm, len(c.nodes), end, func(int) {
		c.reg.Counter("fleet.kills").Add(1)
	})

	for t := settle + slice; t <= end; t += slice {
		if c.sliceCadence {
			c.advance(t)
		} else if next := c.nextChange(end); next > t {
			// No member's answer moves before next: the barriers in
			// between see the tally the last tick left.
			c.tracker.sampleBarriers(t, next-slice, c.healthy, c.recovering)
			t = next
		}
		c.tick(t)
	}

	// Drain: no new arrivals or strikes; keep the fleet stepping until
	// every request completed and every recovery republished (or the
	// drain budget runs out — survivors are reported as Incomplete).
	drainEnd := end + drain
	for t := end + slice; t <= drainEnd; t += slice {
		if c.outstanding == 0 && !c.anyRecovering() {
			break
		}
		c.advance(t)
		c.tick(t)
	}
	c.sampler.Finish()
	return c.buildReport()
}

// nextChange returns the earliest boundary at which some member's change
// list has an entry the fleet has not adopted yet, or limit if none comes
// before it.
func (c *Cluster) nextChange(limit sim.Time) sim.Time {
	for _, n := range c.nodes {
		if n.adopted < len(n.changes) {
			limit = min(limit, n.changes[n.adopted].at)
		}
	}
	return limit
}

func (c *Cluster) anyRecovering() bool {
	for _, n := range c.nodes {
		if n.health.Recovering > 0 {
			return true
		}
	}
	return false
}

// Nodes exposes the fleet members (read-only use).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Now returns the fleet clock (the virtual time the campaign reached).
func (c *Cluster) Now() sim.Time { return c.fleet.Now() }

// Segments returns the fleet window series recorded by the sampler.
func (c *Cluster) Segments() []timeseries.Segment { return c.sampler.Segments() }

// Close tears down the fleet environment and every node's system (see
// resilientos.System.Close). Reports, segments and the nodes' RS event
// logs stay readable.
func (c *Cluster) Close() {
	c.fleet.Close()
	for _, n := range c.nodes {
		n.Sys.Close()
	}
}

// Run is the one-call entry point: boot a fleet from cfg, execute it and
// tear it down.
func Run(cfg Config) *Report {
	c := New(cfg)
	defer c.Close()
	return c.Run()
}
