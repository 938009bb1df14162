package cluster

import (
	"time"

	"resilientos"
	"resilientos/internal/obs"
	"resilientos/internal/sim"
	"resilientos/internal/workload"
)

// request is one fleet-level client request. Requests are synthetic at
// the cluster layer — their latency is a function of real node state:
// a request dispatched to a node whose driver is down (or that loses it
// mid-flight to a storm strike) pays a reroute penalty and is re-routed
// by the active policy, exactly the traffic-diversion story the fleet
// simulation exists to measure.
type request struct {
	id       int64
	class    string // resilientos.ClassNet, ClassDisk, or ClassChar
	arrival  sim.Time
	size     int64 // request payload bytes; the transfer term of serviceTime
	reroutes int
}

// armArrivals starts the request source on the fleet clock: event i of
// the campaign's arrival sequence fires at settle+T_i, up to the campaign
// horizon. The chain keeps one pending timer instead of flooding the
// event heap with the whole trace, and batches all events that share a
// timestamp. Trace order is arrival order, so a recorded campaign
// replays exactly — the generator's own random streams never touch the
// cluster RNG, which keeps service-time draws identical between a
// recording run and its replay.
func (c *Cluster) armArrivals(until sim.Time) {
	events := c.cfg.Arrivals
	base := c.fleet.Now() // the settle barrier
	i := 0
	var pump func()
	pump = func() {
		now := c.fleet.Now()
		for i < len(events) && base+events[i].T <= now {
			if now < until {
				c.arrive(events[i])
			}
			i++
		}
		if i < len(events) && base+events[i].T < until {
			c.fleet.Schedule(base+events[i].T-now, pump)
		}
	}
	pump()
}

// arrive admits one workload event as a request.
func (c *Cluster) arrive(ev workload.Event) {
	c.nextReq++
	r := &request{id: c.nextReq, class: ev.Class, arrival: c.fleet.Now(), size: ev.Size}
	c.outstanding++
	c.reg.Counter("fleet.arrivals").Add(1)
	c.arrivals.inc(ev.Class)
	c.dispatch(r)
}

// family is the counters "<prefix><key>" of one registry, each resolved
// once: a counter is created by its key's first event, as a direct
// Registry.Counter call would, so the registry holds the same names.
type family struct {
	reg    *obs.Registry
	prefix string
	byKey  map[string]*obs.Counter
}

func (f *family) inc(key string) {
	ctr, ok := f.byKey[key]
	if !ok {
		ctr = f.reg.Counter(f.prefix + key)
		f.byKey[key] = ctr
	}
	ctr.Add(1)
}

// Per-class service-cost model: a fixed per-request base, a
// size-proportional transfer term, and exponential jitter. Bandwidths
// are ns-per-byte.
const (
	netBase  = 1 * time.Millisecond
	diskBase = 3 * time.Millisecond
	charBase = 4 * time.Millisecond
)

var nsPerByte = map[string]float64{
	resilientos.ClassNet:  1e9 / (16 << 20), // 16 MiB/s
	resilientos.ClassDisk: 1e9 / (32 << 20), // 32 MiB/s
	resilientos.ClassChar: 1e9 / (1 << 20),  // 1 MiB/s
}

// serviceTime draws a deterministic service time for one attempt:
// base + size/bandwidth + jitter.
func (c *Cluster) serviceTime(class string, size int64) sim.Time {
	var base sim.Time
	var jitter time.Duration
	switch class {
	case resilientos.ClassDisk:
		base, jitter = sim.Time(diskBase), 2500*time.Microsecond
	case resilientos.ClassChar:
		base, jitter = sim.Time(charBase), 2000*time.Microsecond
	default:
		base, jitter = sim.Time(netBase), 1500*time.Microsecond
	}
	return base + sim.Time(float64(size)*nsPerByte[class]) +
		sim.Time(c.rng.ExpFloat64()*float64(jitter))
}

// dispatch routes a request to a node chosen by the active policy, using
// only barrier health snapshots and cluster bookkeeping (so routing is
// independent of node-advance order).
func (c *Cluster) dispatch(r *request) {
	n := c.nodes[c.policy.Pick(r.class, c.nodes)]
	n.inflight++
	c.dispatched.inc(n.Name)
	if !n.health.OK(r.class) {
		// Routed onto a sick node (health-blind policy, or a fleet-wide
		// outage): the attempt stalls until the client re-routes.
		c.bounce(r, n, "sick")
		return
	}
	st := c.serviceTime(r.class, r.size)
	c.fleet.Schedule(st, func() { c.finish(r, n) })
}

// bounce records a failed attempt and re-dispatches after the client's
// retry timeout.
func (c *Cluster) bounce(r *request, n *Node, why string) {
	r.reroutes++
	c.rerouted++
	c.reroutes.inc(why)
	c.tracker.noteBounce(r.class, c.fleet.Now())
	c.fleet.Schedule(retryAfter, func() {
		n.inflight--
		c.dispatch(r)
	})
}

// finish completes one attempt. If the node lost the request's service
// class mid-flight (a storm strike landed during service), the attempt's
// work is lost and the request re-routes immediately.
func (c *Cluster) finish(r *request, n *Node) {
	if !n.health.OK(r.class) {
		r.reroutes++
		c.rerouted++
		c.reroutes.inc("midflight")
		c.tracker.noteBounce(r.class, c.fleet.Now())
		n.inflight--
		c.dispatch(r)
		return
	}
	n.inflight--
	c.outstanding--
	c.reg.Counter("fleet.complete").Add(1)
	lat := c.fleet.Now() - r.arrival
	c.latencies[r.class] = append(c.latencies[r.class], lat)
	c.tracker.noteComplete(r.class, c.fleet.Now(), lat)
	if r.reroutes > 0 {
		c.reroutedReqs++
	}
}
