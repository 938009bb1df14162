package cluster

import (
	"fmt"
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

// strikeSchedule lists, per node, the instants at which the storm strikes
// it, in time order and none past until: the storm's chains run to until on
// a clock of their own that starts, like the campaign, at the end of the
// settle phase. The schedule is a pure function of its arguments, exactly
// as cfg.Arrivals is of the workload spec.
func strikeSchedule(seed int64, s Storm, nodes int, until sim.Time) [][]strike {
	clock := sim.NewEnv(seed)
	defer clock.Close()
	clock.RunUntil(settle)
	strikes := make([][]strike, nodes)
	startStorm(clock, seed, s, nodes, until, func(node int) {
		strikes[node] = append(strikes[node], strike{at: clock.Now()})
	})
	clock.RunUntil(until)
	return strikes
}

// startStorm schedules the storm's strike chains on env and calls hit(node)
// at every strike up to until. The chains depend on nothing but their own
// events, so any two clocks they run on see the same strikes: the one
// strikeSchedule lists them on, and the fleet clock, where a strike is only
// counted. Tickers and events live until env drains; until bounds them.
func startStorm(env *sim.Env, seed int64, s Storm, nodes int, until sim.Time, hit func(node int)) {
	switch s.Kind {
	case "correlated":
		wave := 0
		env.Tick(s.Interval, func() {
			if env.Now() > until {
				return
			}
			// Rotate the wave's victim window so every node takes turns
			// being hit; all K strikes land at the same instant.
			for i := 0; i < s.K; i++ {
				hit((wave + i) % nodes)
			}
			wave = (wave + 1) % nodes
		})
	case "poisson":
		// One exponential arrival chain per node, driven by a dedicated
		// RNG so storm draws never interleave with request-path draws.
		rng := rand.New(rand.NewSource(seed ^ 0x53746F726D)) // "Storm"
		var arm func(node int)
		arm = func(node int) {
			gap := time.Duration(rng.ExpFloat64() * float64(s.Mean))
			if gap < minStormGap {
				gap = minStormGap
			}
			env.Schedule(gap, func() {
				if env.Now() > until {
					return
				}
				hit(node)
				arm(node)
			})
		}
		for node := 0; node < nodes; node++ {
			arm(node)
		}
	}
}
