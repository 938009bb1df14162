// Package workload is the declarative workload generator of the fleet
// simulation: JSON specs describe multi-client request streams — per
// service class an arrival process (Poisson, Gamma, Weibull, or
// deterministic fixed-rate), a client population, a request-size range,
// an SLO latency budget, and optional diurnal multi-period rate
// modulation — and the generator expands a spec into the exact arrival
// sequence a fleet campaign (internal/cluster) serves.
//
// Everything is derived from the spec seed through splitmix64 stream
// splitting: every (class, client) pair owns a statistically independent
// random stream, so a spec is byte-reproducible — the same spec always
// generates the same sequence, independent of every other configuration
// knob (fleet size, policy, storm, workers).
//
// A generated sequence can be recorded as a canonical tracev2 JSONL
// file (trace.go) and replayed later: the replayer re-drives exactly the
// recorded (vtime, class, client, size) events through the load
// balancer, which turns any interesting campaign into a pinned
// regression artifact.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// Service classes a workload can address. The literals mirror the
// resilientos.Class* constants; they are restated here so the package
// depends only on the simulation clock and can be fuzzed in isolation.
const (
	ClassNet  = "net"  // web fetch via INET + the primary NIC driver
	ClassDisk = "disk" // block I/O via VFS/MFS + the SATA driver
	ClassChar = "char" // character-device jobs via the chr.* drivers
)

// KnownClass reports whether c names a routable service class.
func KnownClass(c string) bool {
	return c == ClassNet || c == ClassDisk || c == ClassChar
}

// Duration is a JSON duration: it unmarshals from either a Go duration
// string ("250ms") or a plain nanosecond integer, and marshals as the
// string form.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("workload: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("workload: duration must be a string or nanosecond integer, got %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Arrival process names.
const (
	ProcessFixed   = "fixed"   // deterministic fixed-rate (CV 0)
	ProcessPoisson = "poisson" // exponential inter-arrivals (CV 1)
	ProcessGamma   = "gamma"   // gamma inter-arrivals (CV 1/sqrt(shape))
	ProcessWeibull = "weibull" // weibull inter-arrivals (bursty for shape<1)
)

// ArrivalSpec selects the inter-arrival process of one class. The mean
// inter-arrival time is always set by the class rate; Shape tunes the
// distribution family where it has one (gamma, weibull).
type ArrivalSpec struct {
	Process string `json:"process"`
	// Shape is the gamma/weibull shape parameter (default 1, which makes
	// both families degenerate to the exponential).
	Shape float64 `json:"shape,omitempty"`
}

// SizeSpec is the per-request size range in bytes; sizes are drawn
// uniformly from [Min, Max]. Min == Max pins a fixed size.
type SizeSpec struct {
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

// Period is one diurnal modulation term: the class arrival rate is
// multiplied by 1 + Sum_i Amplitude_i * sin(2*pi*t/Period_i + Phase_i),
// floored at 5% of the base rate. Several periods superpose, so a spec
// can model a daily cycle with a weekly envelope on a compressed clock.
type Period struct {
	Period    Duration `json:"period"`
	Amplitude float64  `json:"amplitude"`
	Phase     float64  `json:"phase,omitempty"` // radians
}

// ClassSpec is one service class's request stream.
type ClassSpec struct {
	Class string `json:"class"`
	// Clients is the number of independent arrival chains; each runs at
	// RPS/Clients so the class aggregate matches RPS (default 1).
	Clients int `json:"clients,omitempty"`
	// RPS is the class-aggregate arrival rate per virtual second.
	RPS     float64     `json:"rps"`
	Arrival ArrivalSpec `json:"arrival"`
	Size    SizeSpec    `json:"size,omitempty"`
	// SLO is the class latency budget; per-class attainment (requests and
	// windows within budget) is reported against it. 0 declares no SLO.
	SLO     Duration `json:"slo,omitempty"`
	Periods []Period `json:"periods,omitempty"`
}

// Spec is one declarative workload: what the fleet serves and how the
// load arrives. See testdata specs and EXPERIMENTS.md for examples.
type Spec struct {
	Name    string      `json:"name"`
	Seed    int64       `json:"seed"`
	Horizon Duration    `json:"horizon"`
	Classes []ClassSpec `json:"classes"`
}

// defaultSizes supplies a per-class size range when the spec leaves the
// size block zero.
var defaultSizes = map[string]SizeSpec{
	ClassNet:  {Min: 1024, Max: 65536},
	ClassDisk: {Min: 4096, Max: 131072},
	ClassChar: {Min: 256, Max: 8192},
}

// Parse decodes and validates a workload spec. Unknown fields are
// rejected so a typo in a spec fails loudly instead of silently running
// the default.
func Parse(b []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: parse spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("workload: trailing data after spec")
	}
	if err := s.normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Classic is the fleet's built-in request mix as an ordinary spec named
// "classic": one Poisson chain per class, net at three quarters of rps
// and disk at one quarter. The two fixed sizes are the ones at which the
// cluster's sized service model (base + size/bandwidth + jitter) costs
// 2 ms + Exp(1.5 ms) for a net request and 6 ms + Exp(2.5 ms) for a disk
// request, to the microsecond.
func Classic(seed int64, rps float64, horizon time.Duration) (*Spec, error) {
	poisson := ArrivalSpec{Process: ProcessPoisson}
	s := &Spec{
		Name:    "classic",
		Seed:    seed,
		Horizon: Duration(horizon),
		Classes: []ClassSpec{
			{Class: ClassNet, RPS: 0.75 * rps, Arrival: poisson, Size: SizeSpec{Min: 16777, Max: 16777}},
			{Class: ClassDisk, RPS: 0.25 * rps, Arrival: poisson, Size: SizeSpec{Min: 100663, Max: 100663}},
		},
	}
	if err := s.normalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

// normalize applies defaults and validates the spec in place.
func (s *Spec) normalize() error {
	if s.Name == "" {
		s.Name = "workload"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("workload: spec %q: horizon must be positive", s.Name)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("workload: spec %q: at least one class required", s.Name)
	}
	seen := make(map[string]bool, len(s.Classes))
	for i := range s.Classes {
		cs := &s.Classes[i]
		if !KnownClass(cs.Class) {
			return fmt.Errorf("workload: spec %q: unknown class %q (want %s, %s, or %s)",
				s.Name, cs.Class, ClassNet, ClassDisk, ClassChar)
		}
		if seen[cs.Class] {
			return fmt.Errorf("workload: spec %q: class %q declared twice", s.Name, cs.Class)
		}
		seen[cs.Class] = true
		if cs.Clients == 0 {
			cs.Clients = 1
		}
		if cs.Clients < 0 {
			return fmt.Errorf("workload: class %q: clients must be positive", cs.Class)
		}
		if !(cs.RPS > 0) || math.IsInf(cs.RPS, 0) { // !(x > 0) is also true of NaN
			return fmt.Errorf("workload: class %q: rps must be positive and finite", cs.Class)
		}
		switch cs.Arrival.Process {
		case ProcessFixed, ProcessPoisson:
			if cs.Arrival.Shape != 0 {
				return fmt.Errorf("workload: class %q: %s takes no shape", cs.Class, cs.Arrival.Process)
			}
		case ProcessGamma, ProcessWeibull:
			if cs.Arrival.Shape == 0 {
				cs.Arrival.Shape = 1
			}
			if cs.Arrival.Shape < 0 {
				return fmt.Errorf("workload: class %q: shape must be positive", cs.Class)
			}
		case "":
			return fmt.Errorf("workload: class %q: arrival.process required (fixed, poisson, gamma, or weibull)", cs.Class)
		default:
			return fmt.Errorf("workload: class %q: unknown arrival process %q", cs.Class, cs.Arrival.Process)
		}
		if cs.Size == (SizeSpec{}) {
			cs.Size = defaultSizes[cs.Class]
		}
		if cs.Size.Min < 1 || cs.Size.Max < cs.Size.Min {
			return fmt.Errorf("workload: class %q: size range [%d,%d] invalid", cs.Class, cs.Size.Min, cs.Size.Max)
		}
		if cs.SLO < 0 {
			return fmt.Errorf("workload: class %q: slo must be non-negative", cs.Class)
		}
		for _, p := range cs.Periods {
			if p.Period <= 0 {
				return fmt.Errorf("workload: class %q: modulation period must be positive", cs.Class)
			}
			if p.Amplitude < 0 {
				return fmt.Errorf("workload: class %q: modulation amplitude must be non-negative", cs.Class)
			}
		}
	}
	return nil
}

// ClassNames returns the spec's class names in declaration order.
func (s *Spec) ClassNames() []string {
	out := make([]string, len(s.Classes))
	for i, cs := range s.Classes {
		out[i] = cs.Class
	}
	return out
}

// Budgets returns the per-class SLO latency budgets (classes without a
// declared SLO are omitted).
func (s *Spec) Budgets() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, cs := range s.Classes {
		if cs.SLO > 0 {
			out[cs.Class] = time.Duration(cs.SLO)
		}
	}
	return out
}
