package campaign

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"resilientos"
	"resilientos/internal/fi"
)

// SpecUsage is the one grammar that names a campaign wherever one is named
// in text — faultbench -matrix and -override, the header of a -record
// file, the repro line of a violation report — worded as flag help: the
// matrix keys, then resilientos.SpecUsage. How a campaign is run
// (workers, invariants, decision log) is not part of its name.
const SpecUsage = `campaign spec: comma-separated key=value, ';' between list items
  seeds=N | seed=a;b  seeds 1..N | exactly these seeds
  victims=a;b|all     driver labels (eth.dp8390, eth.rtl8139, disk.sata)
  faults=f;g|all      fault classes, e.g. bit-flip, or random: a fresh
                      draw among the seven per injection (the paper's run)
  per-cell=N          faults injected per cell
` + resilientos.SpecUsage + `
example: seeds=8,victims=eth.dp8390;disk.sata,faults=bit-flip,per-cell=25`

// maxSeedCount bounds seeds=N so a typo cannot allocate the machine away.
const maxSeedCount = 1 << 16

// ParseSpec builds a campaign from a spec; the empty spec is the default
// matrix (seed 1, DefaultVictims, AllFaultTypes, standard system).
func ParseSpec(spec string) (Config, error) {
	if strings.TrimSpace(spec) == "" {
		return Config{}, nil
	}
	return Config{}.Override(spec)
}

// Override returns a copy of cfg with the spec's keys applied: the matrix
// keys here, the rest by cfg.System.Override. An empty spec is an error.
func (cfg Config) Override(spec string) (Config, error) {
	if strings.Trim(spec, ", \t") == "" {
		return cfg, fmt.Errorf("spec: empty")
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, _ := strings.Cut(tok, "=")
		var err error
		switch key {
		case "seeds":
			var n int
			if n, err = parseInt(val, 1, maxSeedCount); err == nil {
				cfg.Seeds = seq(n)
			}
		case "seed":
			cfg.Seeds, err = parseList(val, nil, func(it string) (int64, error) {
				n, err := strconv.ParseInt(it, 10, 64)
				if err == nil && n == 0 {
					err = fmt.Errorf("seed 0 would boot as seed 1")
				}
				return n, err
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
		default:
			if cfg.System, err = cfg.System.Override(tok); err != nil {
				return cfg, err
			}
		}
		if err != nil {
			return cfg, fmt.Errorf("spec: bad %s: %v", tok, err)
		}
	}
	return cfg, nil
}

// Spec renders the campaign canonically, every key spelled out: the
// matrix keys, then cfg.System.Spec(). ParseSpec inverts it, and rejects
// a system key Spec renders as "custom".
func (cfg Config) Spec() string {
	cfg.fill()
	return fmt.Sprintf("seed=%s,victims=%s,faults=%s,per-cell=%d,%s",
		joinList(cfg.Seeds), joinList(cfg.Victims), joinList(cfg.FaultTypes), cfg.FaultsPerCell, cfg.System.Spec())
}

func joinList[T any](items []T) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprint(it)
	}
	return strings.Join(parts, ";")
}

// parseList splits a ';' list and parses every item; an empty list, an
// empty item or an item given twice is an error. Where the key has one,
// "all" is the full list.
func parseList[T comparable](val string, all []T, item func(string) (T, error)) ([]T, error) {
	if val == "all" && all != nil {
		return all, nil
	}
	var out []T
	for _, it := range strings.Split(val, ";") {
		it = strings.TrimSpace(it)
		v, err := item(it)
		if err == nil && slices.Contains(out, v) {
			err = fmt.Errorf("given twice")
		}
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

// parseFaultType resolves a fault-class name: the seven, or random.
func parseFaultType(name string) (fi.FaultType, error) {
	for ft := fi.FaultType(1); ft <= fi.FaultRandom; ft++ {
		if ft.String() == name {
			return ft, nil
		}
	}
	return 0, fmt.Errorf("unknown fault class (known: %s;random)", joinList(AllFaultTypes))
}
