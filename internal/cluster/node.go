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

	// health is the snapshot taken at the last lockstep barrier. Routing
	// decisions between barriers read this, never live RS state, so
	// results cannot depend on the order nodes were advanced in.
	health resilientos.Health

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

	// seenEvents is how many RS recovery events were folded into the
	// warmup state so far; warmupUntil tracks, per service class, when the
	// class is trusted again after a recovery. Driver restart itself is
	// near-instant in virtual time, but the service built on it is not —
	// the paper's measurements show network stalls of seconds (TCP
	// retransmission backoff) after a NIC driver restart. The cluster's
	// health channel models that as a fixed warmup window following each
	// recovery's republish, the same hysteresis a real load balancer's
	// health probes impose.
	seenEvents  int
	warmupUntil map[string]sim.Time
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
		injector:    fi.New(rand.New(rand.NewSource(seed ^ 0x5DEECE66D))),
		warmupUntil: make(map[string]sim.Time, 3),
	}
	return n
}

// sampleHealth refreshes the node's barrier health snapshot at barrier
// time now, extending per-class warmup windows for any recovery episodes
// since the previous barrier, and reports whether the node is degraded
// (mid-recovery or warming up).
func (n *Node) sampleHealth(now sim.Time) bool {
	evs := n.Sys.RS.Events()
	for _, ev := range evs[n.seenEvents:] {
		cl := classOf(ev.Label)
		if cl == "" || !ev.Recovered {
			continue
		}
		if end := ev.Time + ev.Duration + warmup; end > n.warmupUntil[cl] {
			n.warmupUntil[cl] = end
		}
	}
	n.seenEvents = len(evs)
	h := n.Sys.Health()
	warming := false
	if now < n.warmupUntil[resilientos.ClassNet] {
		h.NetOK = false
		warming = true
	}
	if now < n.warmupUntil[resilientos.ClassDisk] {
		h.DiskOK = false
		warming = true
	}
	if now < n.warmupUntil[resilientos.ClassChar] {
		h.CharOK = false
		warming = true
	}
	n.health = h
	return warming || h.Recovering > 0
}

// Health returns the node's last barrier snapshot.
func (n *Node) Health() resilientos.Health { return n.health }

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
