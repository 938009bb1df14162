package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"resilientos"
	"resilientos/internal/sim"
)

// FaultMode is how a storm damages a driver.
type FaultMode int

// Fault modes.
const (
	// ModeKill delivers SIGKILL — the §7.1 crash-simulation fault model.
	ModeKill FaultMode = iota
	// ModeInject mutates the running driver image with one random fault
	// via the internal/fi injector — the §7.2 SWIFI fault model. The
	// driver keeps running until the corrupted code path is exercised.
	ModeInject
)

func (m FaultMode) String() string {
	if m == ModeInject {
		return "inject"
	}
	return "kill"
}

// Storm is a fleet-wide fault schedule. The zero value is no storm.
type Storm struct {
	// Kind is "none", "correlated", or "poisson".
	Kind string
	// Driver is the victim driver label (default eth.rtl8139).
	Driver string
	// Mode selects SIGKILL or SWIFI injection.
	Mode FaultMode

	// Correlated storms: every Interval, the same driver is hit on K
	// nodes at once (rotating through the fleet wave by wave), modeling a
	// bad rollout or a shared environmental trigger — the scenario that
	// forces parallel recovery.
	K        int
	Interval time.Duration

	// Poisson storms: each node independently draws exponential
	// inter-fault gaps with the given mean — uncorrelated wear-and-tear.
	Mean time.Duration
}

func (s Storm) String() string {
	switch s.Kind {
	case "", "none":
		return "none"
	case "correlated":
		return fmt.Sprintf("correlated:%s,k=%d,every=%s,mode=%s", s.Driver, s.K, s.Interval, s.Mode)
	case "poisson":
		return fmt.Sprintf("poisson:%s,mean=%s,mode=%s", s.Driver, s.Mean, s.Mode)
	}
	return s.Kind
}

// minStormGap is the shortest strike spacing a storm may ask for. Every
// strike is a fleet event, so a nanosecond interval would be 10⁹ of them
// per virtual second; the Poisson arm clamps its drawn gaps to the same
// floor.
const minStormGap = time.Millisecond

// validate rejects a schedule that cannot run: an unknown kind, or a
// strike spacing below minStormGap (zero and negative included). Whether
// the victim exists is Boot's question, which has the members to ask.
func (s Storm) validate() error {
	switch s.Kind {
	case "", "none":
	case "correlated":
		if s.Interval < minStormGap {
			return fmt.Errorf("cluster: storm interval %s is below %s", s.Interval, minStormGap)
		}
	case "poisson":
		if s.Mean < minStormGap {
			return fmt.Errorf("cluster: storm mean %s is below %s", s.Mean, minStormGap)
		}
	default:
		return fmt.Errorf("cluster: unknown storm kind %q (want none, correlated, or poisson)", s.Kind)
	}
	return nil
}

// ParseStorm parses a storm spec:
//
//	none
//	correlated:<driver>[,k=N][,every=DUR][,mode=kill|inject]
//	poisson:<driver>[,mean=DUR][,mode=kill|inject]
//
// Durations use Go syntax ("2s", "750ms"). Defaults: driver
// eth.rtl8139, k=2, every=2s, mean=1s, mode=kill.
func ParseStorm(spec string) (Storm, error) {
	s := Storm{Kind: "none", Driver: resilientos.DriverRTL8139, K: 2,
		Interval: 2 * time.Second, Mean: time.Second}
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return s, nil
	}
	kind, rest, _ := strings.Cut(spec, ":")
	s.Kind = kind
	for i, tok := range strings.Split(rest, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			if i == 0 {
				s.Driver = tok
				continue
			}
			return s, fmt.Errorf("cluster: storm token %q is not key=value", tok)
		}
		switch key {
		case "k":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return s, fmt.Errorf("cluster: bad storm k %q", val)
			}
			s.K = n
		case "every":
			d, err := time.ParseDuration(val)
			if err != nil {
				return s, fmt.Errorf("cluster: bad storm interval %q", val)
			}
			s.Interval = d
		case "mean":
			d, err := time.ParseDuration(val)
			if err != nil {
				return s, fmt.Errorf("cluster: bad storm mean %q", val)
			}
			s.Mean = d
		case "mode":
			switch val {
			case "kill":
				s.Mode = ModeKill
			case "inject":
				s.Mode = ModeInject
			default:
				return s, fmt.Errorf("cluster: bad storm mode %q (want kill or inject)", val)
			}
		default:
			return s, fmt.Errorf("cluster: unknown storm key %q", key)
		}
	}
	return s, s.validate()
}

// strike damages the victim driver on one node according to the storm's
// fault mode. It is the fleet's only reach into a member, so it is where
// the run-ahead rule is held: the member must not have passed the slice
// boundary just before the strike's instant.
func (c *Cluster) strike(n *Node, s Storm) {
	if at, limit := n.Sys.Env.Now(), boundaryBefore(c.fleet.Now()); at > limit {
		panic(fmt.Sprintf("cluster: %s stands at %s, past %s, for a strike at %s",
			n.Name, at, limit, c.fleet.Now()))
	}
	switch s.Mode {
	case ModeInject:
		if n.inject(s.Driver) {
			c.reg.Counter("fleet.injections").Add(1)
		}
	default:
		n.kill(s.Driver)
		c.reg.Counter("fleet.kills").Add(1)
	}
}

// noStrike is the next-strike instant of a fleet nothing will strike.
const noStrike = sim.Time(math.MaxInt64)

// boundaryBefore returns the last slice boundary strictly before the
// instant s > 0 — (ceil(s/slice)-1)·slice, where a member stands when a
// fleet event at s reaches it.
func boundaryBefore(s sim.Time) sim.Time { return (s - 1) / slice * slice }

// nextStrike returns the earliest instant at which a scheduled strike can
// still land. Every chain of strikes publishes the instant of its next
// one in its strikeAt slot the moment it schedules it, and nothing else
// in the fleet reaches into a member, so members may run up to the
// boundary before this instant without being asked.
func (c *Cluster) nextStrike() sim.Time {
	next := noStrike
	for _, at := range c.strikeAt {
		if at < next {
			next = at
		}
	}
	return next
}

// startStorm schedules the storm on the fleet clock. Returned tickers and
// events live until the fleet env drains; the campaign horizon bounds
// them naturally (a chain's slot goes stale only once it is past until,
// where the drain no longer looks ahead).
func (c *Cluster) startStorm(s Storm, until sim.Time) {
	switch s.Kind {
	case "correlated":
		c.strikeAt = []sim.Time{c.fleet.Now() + s.Interval}
		wave := 0
		c.fleet.Tick(s.Interval, func() {
			c.strikeAt[0] = c.fleet.Now() + s.Interval
			if c.fleet.Now() > until {
				return
			}
			k := s.K
			if k > len(c.nodes) {
				k = len(c.nodes)
			}
			// Rotate the wave's victim window so every node takes turns
			// being hit; all k strikes land at the same instant.
			for i := 0; i < k; i++ {
				c.strike(c.nodes[(wave+i)%len(c.nodes)], s)
			}
			wave = (wave + 1) % len(c.nodes)
		})
	case "poisson":
		// One exponential arrival chain per node, driven by a dedicated
		// RNG so storm draws never interleave with request-path draws.
		rng := rand.New(rand.NewSource(c.cfg.Seed ^ 0x53746F726D)) // "Storm"
		c.strikeAt = make([]sim.Time, len(c.nodes))
		var arm func(n *Node)
		arm = func(n *Node) {
			gap := time.Duration(rng.ExpFloat64() * float64(s.Mean))
			if gap < minStormGap {
				gap = minStormGap
			}
			c.strikeAt[n.Index] = c.fleet.Now() + gap
			c.fleet.Schedule(gap, func() {
				if c.fleet.Now() > until {
					return
				}
				c.strike(n, s)
				arm(n)
			})
		}
		for _, n := range c.nodes {
			arm(n)
		}
	}
}
