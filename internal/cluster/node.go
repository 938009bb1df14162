package cluster

import (
	"fmt"
	"math/rand"
	"strings"

	"resilientos"
	"resilientos/internal/fi"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
)

// Node is one member OS of the fleet: a full resilientos.System (its own
// microkernel, reincarnation server, drivers, and seeded scheduler)
// wrapped with the fleet-level bookkeeping the load balancer and the
// fault-storm driver need. All cross-node interaction happens here, at
// the cluster layer — member systems never talk to each other directly.
type Node struct {
	Index int
	Name  string // stable label, e.g. "node03"
	Seed  int64  // per-node seed, derived from the fleet seed
	Sys   *resilientos.System

	// health is the sample the fleet loop adopted at its last tick, and
	// degraded whether that sample showed the node mid-recovery or warming
	// up. Routing decisions between ticks read this, never live RS state,
	// so results cannot depend on when or in what order nodes were advanced.
	health   resilientos.Health
	degraded bool

	// inflight is the number of requests currently dispatched to this
	// node (the least-loaded policy's signal).
	inflight int

	// injector mutates this node's running driver images for fault-mode
	// storms. Its RNG is derived from the node seed but separate from the
	// node's simulation RNG, so storms do not perturb the node's own
	// deterministic execution stream.
	injector   *fi.Injector
	kills      int
	injections int

	// The node's share of the storm (see strikeSchedule): which driver is
	// struck and how, and the instants, in time order. The member deals
	// itself strikes[:struck] as it advances; the fleet clock books
	// strikes[:counted] as it passes them.
	storm   Storm
	strikes []strike
	struck  int
	counted int

	// next is the slice boundary advance stops at next.
	next sim.Time

	// Probe state, written only by whoever advances this node (one worker
	// at a time). rsHealth is System.Health as of rsVersion, and
	// seenEvents how many RS recovery events were folded into the warmup
	// deadlines so far: both move only when RS.Version does. A warmup
	// deadline is when a service class is trusted again
	// after a recovery. Driver restart itself is near-instant in virtual
	// time, but the service built on it is not — the paper's measurements
	// show network stalls of seconds (TCP retransmission backoff) after a
	// NIC driver restart. The cluster's health channel models that as a
	// fixed warmup window following each recovery's republish, the same
	// hysteresis a real load balancer's health probes impose.
	rsVersion  uint64
	rsHealth   resilientos.Health
	seenEvents int

	netWarmUntil, diskWarmUntil, charWarmUntil sim.Time

	// changes lists the boundaries at which the probe's answer differed
	// from the boundary before, in time order; probed is the latest answer
	// and adopted how many entries the fleet loop has taken over into
	// health.
	changes []healthChange
	probed  healthChange
	adopted int
}

// strike is one entry of a node's strike list. landed is the member's to
// write: false for an injection that found nothing to mutate.
type strike struct {
	at     sim.Time
	landed bool
}

// healthChange is one entry of a node's transition list: what the probe
// at boundary at answered, recorded because the previous boundary's
// answer was different.
type healthChange struct {
	at       sim.Time
	health   resilientos.Health
	degraded bool
}

// classOf maps a guarded service label to the fleet service class it
// carries, or "" for services outside the routable classes.
func classOf(label string) string {
	switch {
	case strings.HasPrefix(label, "eth.") || label == resilientos.ServerInet:
		return resilientos.ClassNet
	case strings.HasPrefix(label, "disk.") ||
		label == resilientos.ServerVFS || label == resilientos.ServerMFS:
		return resilientos.ClassDisk
	case strings.HasPrefix(label, "chr."):
		return resilientos.ClassChar
	}
	return ""
}

// deriveSeed expands the fleet seed into statistically independent
// per-node seeds (splitmix64 over fleet seed and node index). Seed 0 is
// remapped: resilientos.Config treats 0 as "default".
func deriveSeed(fleetSeed int64, index int) int64 {
	x := uint64(fleetSeed)*0x9E3779B97F4A7C15 + uint64(index+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	s := int64(x >> 1) // keep it positive for readable reports
	if s == 0 {
		s = 1
	}
	return s
}

// newNode boots one member system. Nodes always run the network and disk
// stacks; the character devices boot only when the campaign's class set
// routes char jobs (withChar), keeping net+disk fleets lean.
func newNode(index int, fleetSeed int64, withChar bool, p *perf.Profiler) *Node {
	seed := deriveSeed(fleetSeed, index)
	n := &Node{
		Index: index,
		Name:  fmt.Sprintf("node%02d", index),
		Seed:  seed,
		Sys: resilientos.New(resilientos.Config{
			Seed:        seed,
			DisableChar: !withChar,
			Perf:        p,
		}),
		injector: fi.New(rand.New(rand.NewSource(seed ^ 0x5DEECE66D))),
		next:     settle,
	}
	return n
}

// probe answers a health probe at the member's boundary time now: the RS
// view of every service class, minus the classes still inside their
// post-recovery warmup, and whether the node is degraded (mid-recovery or
// warming up). RS state and its event log are written only by RS's own
// process (kills arrive through its message loop), so while RS.Version
// stands still there is nothing to re-read and the probe is a few
// comparisons; when it moved, the snapshot is retaken and the new tail of
// the event log extends the warmup deadlines.
func (n *Node) probe(now sim.Time) (h resilientos.Health, degraded bool) {
	if v := n.Sys.RS.Version(); v != n.rsVersion {
		n.rsVersion = v
		n.rsHealth = n.Sys.Health()
		tail := n.Sys.RS.EventsSince(n.seenEvents)
		n.seenEvents += len(tail)
		for _, ev := range tail {
			if !ev.Recovered {
				continue
			}
			var until *sim.Time
			switch classOf(ev.Label) {
			case resilientos.ClassNet:
				until = &n.netWarmUntil
			case resilientos.ClassDisk:
				until = &n.diskWarmUntil
			case resilientos.ClassChar:
				until = &n.charWarmUntil
			default:
				continue
			}
			if end := ev.Time + ev.Duration + warmup; end > *until {
				*until = end
			}
		}
	}
	h = n.rsHealth
	warming := false
	if now < n.netWarmUntil {
		h.NetOK = false
		warming = true
	}
	if now < n.diskWarmUntil {
		h.DiskOK = false
		warming = true
	}
	if now < n.charWarmUntil {
		h.CharOK = false
		warming = true
	}
	return h, warming || h.Recovering > 0
}

// advance is the member's whole part in a campaign: it runs the member
// through the slice boundaries it has not reached yet (settle first, then
// every slice) up to to, dealing it the strikes of its list that fall in
// each slice before running it — so a strike lands on a member standing on
// the boundary just before its instant — and probing at each boundary
// exactly as a fleet that stopped there would. The answers that differ
// from their predecessor go to changes for the fleet loop to adopt as its
// own clock passes them. It touches only this node, so nodes advance
// concurrently, each as far ahead of the fleet clock as it is told.
func (n *Node) advance(to sim.Time) {
	for ; n.next <= to; n.next += slice {
		t := n.next
		for ; n.struck < len(n.strikes) && n.strikes[n.struck].at <= t; n.struck++ {
			n.strikes[n.struck].landed = n.strike()
		}
		n.Sys.Env.RunUntil(t)
		h, degraded := n.probe(t)
		if h != n.probed.health || degraded != n.probed.degraded {
			n.probed = healthChange{at: t, health: h, degraded: degraded}
			n.changes = append(n.changes, n.probed)
		}
	}
}

// adopt makes the probe answer for boundary t the node's routing health,
// and reports whether that took over a new answer.
func (n *Node) adopt(t sim.Time) bool {
	from := n.adopted
	for n.adopted < len(n.changes) && n.changes[n.adopted].at <= t {
		ch := n.changes[n.adopted]
		n.health, n.degraded = ch.health, ch.degraded
		n.adopted++
	}
	return n.adopted != from
}

// Health returns the sample the fleet loop adopted last.
func (n *Node) Health() resilientos.Health { return n.health }

// strike damages the storm's victim driver on this node according to the
// storm's fault mode, and reports whether there was anything to damage.
func (n *Node) strike() bool {
	if n.storm.Mode == ModeInject {
		return n.inject(n.storm.Driver)
	}
	n.kill(n.storm.Driver)
	return true
}

// kill delivers a SIGKILL crash to the named driver — the §7.1 fault
// model, applied fleet-wide by the storm driver.
func (n *Node) kill(driver string) {
	n.Sys.KillDriver(driver)
	n.kills++
}

// inject mutates the named driver's running code image with one random
// fault (§7.2 fault model). It reports false when the driver has no live
// VM to mutate (down or mid-restart) or its image has no instruction
// left that any fault class applies to.
func (n *Node) inject(driver string) bool {
	vm := n.Sys.DriverVM(driver)
	if vm == nil || n.Sys.RS.ServiceEndpoint(driver) < 0 {
		return false
	}
	if _, ok := n.injector.InjectRandom(vm.Img); !ok {
		return false
	}
	n.injections++
	return true
}
