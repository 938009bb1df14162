package resilientos

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"resilientos/internal/core"
	"resilientos/internal/drvlib"
	"resilientos/internal/policy"
)

// SpecUsage lists the system keys of Config.Override, worded as flag help
// for every command that takes a system spec. Keys apply left to right,
// so a key given twice keeps the last.
const SpecUsage = `  hb=<dur>|off        heartbeat period (off disables liveness pings)
  misses=N            consecutive misses before a driver is declared stuck
  budget=N            restart budget per driver (0 = unlimited)
  backoff=<dur>       attach the backoff policy script with this base
  policy=on|off       off: detach it (direct restart); on: attach it with
                      the standard 1s base unless one is attached
  mech=<name>         respawn, microreboot or standby
  hw=on|off           real-hardware gate: confusable NIC, no master reset`

// The standard heartbeat period: what New boots with and Spec renders for
// a zero HeartbeatPeriod. A zero HeartbeatMisses gets
// core.DefaultHeartbeatMisses.
const defaultHeartbeatPeriod = 500 * time.Millisecond

// maxKnobDuration bounds hb and backoff; it keeps the script's last arm
// (8× base) far from overflow.
const maxKnobDuration = 24 * time.Hour

// Override returns cfg with the spec's system keys applied on top (cfg
// itself is not modified). A spec that names no key, or any key but the
// seven of SpecUsage, is an error.
func (cfg Config) Override(spec string) (Config, error) {
	if strings.Trim(spec, ", \t") == "" {
		return cfg, errors.New("spec: empty")
	}
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
		case "hb":
			cfg.HeartbeatPeriod = -1 // off
			if val != "off" {
				cfg.HeartbeatPeriod, err = parseKnobDuration(val)
			}
		case "misses":
			cfg.HeartbeatMisses, err = parseKnobInt(val, 1)
		case "budget":
			cfg.MaxRestarts, err = parseKnobInt(val, 0)
		case "backoff":
			var base time.Duration
			if base, err = parseKnobDuration(val); err == nil {
				cfg.NetPolicy = backoffScript(base)
			}
		case "policy":
			switch {
			case val == "off":
				cfg.NetPolicy = nil
			case val != "on":
				err = errors.New("want on or off")
			case cfg.NetPolicy == nil:
				cfg.NetPolicy = backoffScript(time.Second) // the standard base
			}
		case "mech":
			var ok bool
			if cfg.Mechanism, ok = drvlib.ParseMechanism(val); !ok {
				err = errors.New("want respawn, microreboot or standby")
			}
		case "hw":
			// hw=on: a garbage value in a control register can wedge a
			// NIC, and a deep wedge yields only to a BIOS reset, since
			// the card, like the authors', has no master reset.
			switch val {
			case "on", "off":
				cfg.Machine.ConfusableNICs = val == "on"
			default:
				err = errors.New("want on or off")
			}
		default:
			return cfg, fmt.Errorf("spec: unknown key %q (system keys: hb, misses, budget, backoff, policy, mech, hw)", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("spec: bad %s: %v", tok, err)
		}
	}
	return cfg, nil
}

// Spec renders the system keys canonically, every key spelled out;
// Override on the zero Config inverts it. A Config built in code around a
// policy script the grammar cannot name renders it as "policy=custom",
// which Override rejects — nothing is silently dropped. Like Seed, the
// machine's DiskSeed is what a run is about, not a knob.
func (cfg Config) Spec() string {
	hb := "off"
	if cfg.HeartbeatPeriod >= 0 {
		hb = cmp.Or(cfg.HeartbeatPeriod, defaultHeartbeatPeriod).String()
	}
	pol := "policy=off"
	if cfg.NetPolicy != nil {
		pol = "policy=custom"
		if base, ok := backoffBase(cfg.NetPolicy); ok {
			pol = fmt.Sprintf("backoff=%s,policy=on", base)
		}
	}
	gate := "off"
	if cfg.Machine.ConfusableNICs {
		gate = "on"
	}
	return fmt.Sprintf("hb=%s,misses=%d,budget=%d,%s,mech=%s,hw=%s",
		hb, cmp.Or(cfg.HeartbeatMisses, core.DefaultHeartbeatMisses), cfg.MaxRestarts, pol, cfg.Mechanism, gate)
}

func parseKnobInt(val string, min int) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil || n < min || n > math.MaxInt32 {
		return 0, fmt.Errorf("want an integer in [%d, %d]", min, math.MaxInt32)
	}
	return n, nil
}

func parseKnobDuration(val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d <= 0 || d > maxKnobDuration {
		return 0, fmt.Errorf("want a duration in (0, %v]", maxKnobDuration)
	}
	return d, nil
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
