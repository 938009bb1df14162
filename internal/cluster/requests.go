package cluster

import (
	"fmt"
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
//
// Requests are pooled: arrive takes one off the cluster's free list and
// finish puts it back, so a steady campaign allocates none. A request has
// at most one attempt pending; its one timer, made with it, ends that
// attempt in finish, and dispatch records where the attempt runs and
// whether it bounced.
type request struct {
	class    int // index into Cluster.classes
	arrival  sim.Time
	size     int64 // request payload bytes; the transfer term of serviceTime
	reroutes int

	node  *Node // where the pending attempt was dispatched
	retry bool  // the attempt bounced: finish dispatches it again
	timer *sim.Timer
	next  *request // free-list link
}

// armArrivals starts the request source on the fleet clock: event i of
// the campaign's arrival sequence fires at settle+T_i, up to the campaign
// horizon. One timer, re-armed for the next instant, keeps the chain's one
// pending event instead of flooding the event heap with the whole trace,
// and batches all events that share a timestamp. Trace order is arrival
// order, so a recorded campaign replays exactly — the generator's own
// random streams never touch the cluster RNG, which keeps service-time
// draws identical between a recording run and its replay.
func (c *Cluster) armArrivals(until sim.Time) {
	events := c.cfg.Arrivals
	base := c.fleet.Now() // the settle barrier
	i := 0
	var next *sim.Timer
	pump := func() {
		now := c.fleet.Now()
		for i < len(events) && base+events[i].T <= now {
			if now < until {
				c.arrive(events[i])
			}
			i++
		}
		if i < len(events) && base+events[i].T < until {
			next.Reset(base + events[i].T - now)
		}
	}
	next = c.fleet.NewTimer(pump)
	pump()
}

// arrive admits one workload event as a request.
func (c *Cluster) arrive(ev workload.Event) {
	c.nextReq++
	r := c.free
	if r == nil {
		r = &request{}
		r.timer = c.fleet.NewTimer(func() { c.finish(r) })
	} else {
		c.free = r.next
	}
	*r = request{class: c.classIndex(ev.Class), arrival: c.fleet.Now(), size: ev.Size, timer: r.timer}
	c.outstanding++
	c.arrived.inc()
	c.arrivals[r.class].inc()
	c.dispatch(r)
}

// classIndex is class's index in the campaign's classes. An arrival of a
// class the campaign does not route is a caller's bug: no node serves it.
func (c *Cluster) classIndex(class string) int {
	for i, cl := range c.classes {
		if cl == class {
			return i
		}
	}
	panic(fmt.Sprintf("cluster: an arrival of class %q, not one of the campaign's classes %v", class, c.classes))
}

// counter is one counter of a registry, resolved on its first event —
// where a direct Registry.Counter call would create it, so the registry
// holds the same names at every instant.
type counter struct {
	reg  *obs.Registry
	name string
	ctr  *obs.Counter
}

func (k *counter) inc() {
	if k.ctr == nil {
		k.ctr = k.reg.Counter(k.name)
	}
	k.ctr.Add(1)
}

// family is the counters "<prefix><key>", indexed as keys.
func family(reg *obs.Registry, prefix string, keys []string) []counter {
	f := make([]counter, len(keys))
	for i, key := range keys {
		f[i] = counter{reg: reg, name: prefix + key}
	}
	return f
}

// Why an attempt was rerouted, indexing Cluster.reroutes: it was
// dispatched onto a sick node, or its node fell sick while serving it.
const (
	rerouteSick = iota
	rerouteMidflight
)

var rerouteCauses = []string{rerouteSick: "sick", rerouteMidflight: "midflight"}

// Per-class service-cost model: a fixed per-request base, a
// size-proportional transfer term, and exponential jitter.
const (
	netBase  = 1 * time.Millisecond
	diskBase = 3 * time.Millisecond
	charBase = 4 * time.Millisecond
)

// serviceTime draws a deterministic service time for one attempt:
// base + size/bandwidth + jitter, the bandwidth in ns per byte.
func (c *Cluster) serviceTime(class string, size int64) sim.Time {
	base, jitter, nsPerByte := netBase, 1500*time.Microsecond, 1e9/float64(16<<20) // 16 MiB/s
	switch class {
	case resilientos.ClassDisk:
		base, jitter, nsPerByte = diskBase, 2500*time.Microsecond, 1e9/float64(32<<20) // 32 MiB/s
	case resilientos.ClassChar:
		base, jitter, nsPerByte = charBase, 2000*time.Microsecond, 1e9/float64(1<<20) // 1 MiB/s
	}
	return sim.Time(base) + sim.Time(float64(size)*nsPerByte) +
		sim.Time(c.rng.ExpFloat64()*float64(jitter))
}

// dispatch routes a request to a node chosen by the active policy, using
// only barrier health snapshots and cluster bookkeeping (so routing is
// independent of node-advance order), and arms the end of the attempt.
func (c *Cluster) dispatch(r *request) {
	class := c.classes[r.class]
	n := c.nodes[c.policy.Pick(class, c.nodes)]
	n.inflight++
	c.dispatched[n.Index].inc()
	r.node = n
	if !n.health.OK(class) {
		// Routed onto a sick node (health-blind policy, or a fleet-wide
		// outage): the attempt stalls until the client re-routes, after
		// its retry timeout.
		c.reroute(r, rerouteSick)
		r.retry = true
		r.timer.Reset(retryAfter)
		return
	}
	r.retry = false
	r.timer.Reset(c.serviceTime(class, r.size))
}

// reroute books one failed attempt of r.
func (c *Cluster) reroute(r *request, why int) {
	r.reroutes++
	c.rerouted++
	c.reroutes[why].inc()
	c.tracker.noteBounce(r.class, c.fleet.Now())
}

// finish ends the pending attempt, at its timer. A bounced attempt is
// dispatched again. If the node lost the request's service class
// mid-flight (a storm killed its driver during service), the attempt's work
// is lost and the request re-routes immediately. Otherwise the request
// completes and goes back to the free list.
func (c *Cluster) finish(r *request) {
	n := r.node
	n.inflight--
	if r.retry {
		c.dispatch(r)
		return
	}
	if !n.health.OK(c.classes[r.class]) {
		c.reroute(r, rerouteMidflight)
		c.dispatch(r)
		return
	}
	c.outstanding--
	c.completed.inc()
	now := c.fleet.Now()
	lat := now - r.arrival
	c.latencies[r.class] = append(c.latencies[r.class], lat)
	c.tracker.noteComplete(r.class, now, lat)
	if r.reroutes > 0 {
		c.reroutedReqs++
	}
	r.node, r.next, c.free = nil, c.free, r
}
