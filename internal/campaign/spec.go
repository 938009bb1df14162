package campaign

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"resilientos/internal/drvlib"
	"resilientos/internal/fi"
	"resilientos/internal/hw"
	"resilientos/internal/policy"
)

// SpecUsage is the one grammar that names a campaign wherever one is named
// in text — faultbench -matrix, whatif -matrix and -override, the header of
// a whatif recording, the repro line of a violation report — worded as flag
// help. Keys apply left to right, so a key given twice keeps the last; how a campaign is run (workers,
// invariants, decision log) is not part of its name.
const SpecUsage = `campaign spec: comma-separated key=value, ';' between list items
  seeds=N | seed=a;b  seeds 1..N | exactly these seeds
  victims=a;b|all     driver labels (eth.dp8390, eth.rtl8139, disk.sata)
  faults=f;g|all      fault classes, e.g. bit-flip, or random: a fresh
                      draw among the seven per injection (the paper's run)
  per-cell=N          faults injected per cell
  hb=<dur>|off        heartbeat period (off disables liveness pings)
  misses=N            consecutive misses before a driver is declared stuck
  budget=N            restart budget per driver (0 = unlimited)
  backoff=<dur>       attach the backoff policy script with this base
  policy=on|off       off: detach it (direct restart); on: attach it with
                      the standard 1s base unless one is attached
  mech=<name>         respawn, microreboot or standby
  hw=on|off           real-hardware gate: confusable NIC, no master reset
example: seeds=8,victims=eth.dp8390;disk.sata,faults=bit-flip,per-cell=25`

// maxSeedCount bounds seeds=N so a typo cannot allocate the machine away.
const maxSeedCount = 1 << 16

// maxKnobDuration bounds hb and backoff; it keeps the script's last arm
// (8× base) far from overflow.
const maxKnobDuration = 24 * time.Hour

// hwGate is the machine behind hw=on: a garbage value in a control
// register wedges the card half the time, and a quarter of wedges are
// deep — only a BIOS reset, or the master reset the authors' card
// lacked, clears them.
var hwGate = hw.MachineConfig{NICConfuseProb: 0.5, NICDeepProb: 0.25}

// ParseSpec builds a campaign from a spec; the empty spec is the default
// matrix (seed 1, DefaultVictims, AllFaultTypes, standard system).
func ParseSpec(spec string) (Config, error) {
	if strings.TrimSpace(spec) == "" {
		return Config{}, nil
	}
	return Config{}.Override(spec)
}

// Override returns cfg with the spec's keys applied on top (cfg itself is
// not modified). A spec that names no key is an error.
func (cfg Config) Override(spec string) (Config, error) {
	if strings.Trim(spec, ", \t") == "" {
		return cfg, fmt.Errorf("spec: empty")
	}
	sys := &cfg.System
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return cfg, fmt.Errorf("spec: %q is not key=value", tok)
		}
		var err error
		switch key {
		case "seeds":
			var n int
			if n, err = parseInt(val, 1, maxSeedCount); err == nil {
				cfg.Seeds = Seq(n)
			}
		case "seed":
			cfg.Seeds, err = parseList(val, nil, func(it string) (int64, error) {
				return strconv.ParseInt(it, 10, 64)
			})
		case "victims":
			cfg.Victims, err = parseList(val, DefaultVictims, func(it string) (string, error) {
				if !slices.Contains(DefaultVictims, it) {
					return "", fmt.Errorf("unknown victim (known: %s)", joinList(DefaultVictims))
				}
				return it, nil
			})
		case "faults":
			cfg.FaultTypes, err = parseList(val, AllFaultTypes, parseFaultType)
		case "per-cell":
			cfg.FaultsPerCell, err = parseInt(val, 1, math.MaxInt32)
		case "hb":
			if val == "off" {
				sys.HeartbeatPeriod = -1
				break
			}
			sys.HeartbeatPeriod, err = parseDuration(val)
		case "misses":
			sys.HeartbeatMisses, err = parseInt(val, 1, math.MaxInt32)
		case "budget":
			sys.MaxRestarts, err = parseInt(val, 0, math.MaxInt32)
		case "backoff":
			var base time.Duration
			if base, err = parseDuration(val); err == nil {
				sys.NetPolicy = backoffScript(base)
			}
		case "policy":
			switch {
			case val == "off":
				sys.NetPolicy = nil
			case val != "on":
				err = fmt.Errorf("want on or off")
			case sys.NetPolicy == nil:
				sys.NetPolicy = backoffScript(time.Second) // the standard base
			}
		case "mech":
			var ok bool
			if sys.Mechanism, ok = drvlib.ParseMechanism(val); !ok {
				err = fmt.Errorf("want respawn, microreboot or standby")
			}
		case "hw":
			switch val {
			case "on":
				sys.Machine = hwGate
			case "off":
				sys.Machine = hw.MachineConfig{}
			default:
				err = fmt.Errorf("want on or off")
			}
		default:
			return cfg, fmt.Errorf("spec: unknown key %q (seeds, seed, victims, faults, per-cell, hb, misses, budget, backoff, policy, mech, hw)", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("spec: bad %s: %v", tok, err)
		}
	}
	return cfg, nil
}

// Spec renders the campaign canonically, every key spelled out; ParseSpec
// inverts it. A Config built in code around a policy script or machine
// the grammar cannot name renders that key as "custom", which ParseSpec
// rejects — nothing is silently dropped.
func (cfg Config) Spec() string {
	cfg.fill()
	sys := cfg.System
	hb := "off"
	if sys.HeartbeatPeriod >= 0 {
		hb = cmp.Or(sys.HeartbeatPeriod, 500*time.Millisecond).String() // 0 = the standard period
	}
	pol := "policy=off"
	if sys.NetPolicy != nil {
		pol = "policy=custom"
		if base, ok := backoffBase(sys.NetPolicy); ok {
			pol = fmt.Sprintf("backoff=%s,policy=on", base)
		}
	}
	gate := "custom"
	switch sys.Machine {
	case hw.MachineConfig{}:
		gate = "off"
	case hwGate:
		gate = "on"
	}
	return fmt.Sprintf("seed=%s,victims=%s,faults=%s,per-cell=%d,hb=%s,misses=%d,budget=%d,%s,mech=%s,hw=%s",
		joinList(cfg.Seeds), joinList(cfg.Victims), joinList(cfg.FaultTypes), cfg.FaultsPerCell,
		hb, cmp.Or(sys.HeartbeatMisses, 3), sys.MaxRestarts, pol, sys.Mechanism, gate)
}

func joinList[T any](items []T) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprint(it)
	}
	return strings.Join(parts, ";")
}

// parseList splits a ';' list and parses every item; an empty list or an
// empty item is an error. Where the key has one, "all" is the full list.
func parseList[T any](val string, all []T, item func(string) (T, error)) ([]T, error) {
	if val == "all" && all != nil {
		return all, nil
	}
	var out []T
	for _, it := range strings.Split(val, ";") {
		it = strings.TrimSpace(it)
		v, err := item(it)
		if err != nil {
			return nil, fmt.Errorf("item %q: %v", it, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt(val string, min, max int) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil || n < min || n > max {
		return 0, fmt.Errorf("want an integer in [%d, %d]", min, max)
	}
	return n, nil
}

func parseDuration(val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d <= 0 || d > maxKnobDuration {
		return 0, fmt.Errorf("want a duration in (0, %v]", maxKnobDuration)
	}
	return d, nil
}

// parseFaultType resolves a fault-class name: the seven, or random.
func parseFaultType(name string) (fi.FaultType, error) {
	for ft := fi.FaultType(1); ft <= fi.FaultRandom; ft++ {
		if ft.String() == name {
			return ft, nil
		}
	}
	return 0, fmt.Errorf("unknown fault class (known: %s;random)", joinList(AllFaultTypes))
}

// backoffScript generates the paper-shaped recovery policy (Fig. 2):
// exponential backoff from the given base, doubling per repetition and
// capping at the fourth arm, skipped for dynamic updates ($2 = 6), then
// a restart of the failed component.
func backoffScript(base time.Duration) *policy.Script {
	secs := func(mult int) string {
		d := time.Duration(mult) * base
		return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
	}
	src := fmt.Sprintf(`component=$1
reason=$2
repetition=$3
if [ ! $reason -eq 6 ]; then
	case $repetition in
	1) sleep %s ;;
	2) sleep %s ;;
	3) sleep %s ;;
	*) sleep %s ;;
	esac
fi
service restart $component
`, secs(1), secs(2), secs(4), secs(8))
	return policy.MustParse(src)
}

// backoffBase recovers the base a backoffScript was generated from: the
// first arm's sleep, accepted only if regenerating from it gives the
// same source.
func backoffBase(s *policy.Script) (time.Duration, bool) {
	_, rest, _ := strings.Cut(s.Source(), "1) sleep ")
	arm, _, _ := strings.Cut(rest, " ;;")
	secs, err := strconv.ParseFloat(arm, 64)
	if err != nil || secs <= 0 || secs > maxKnobDuration.Seconds() {
		return 0, false
	}
	base := time.Duration(math.Round(secs * float64(time.Second)))
	return base, backoffScript(base).Source() == s.Source()
}
