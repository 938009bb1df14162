package workload

import (
	"math"
	"math/rand"

	"resilientos/internal/sim"
)

// minGap floors generated inter-arrival times so a heavy-tailed draw (a
// Weibull burst, a deep diurnal peak) cannot collapse the sequence into
// a zero-width pile-up or stall generation.
const minGap = sim.Time(1000) // 1µs

// splitmix64 is the SplitMix64 finalizer — the stream-splitting hash the
// whole repo derives independent seeds with (cluster node seeds use the
// same constants).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// streamSeed returns the seed of the random stream owned by one (class,
// client) chain: the spec seed split through splitmix64 twice, so chains
// are statistically independent and reordering classes in a spec only
// permutes — never perturbs — the per-chain draws.
func streamSeed(seed int64, class, client int) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ uint64(class+1)*0xBF58476D1CE4E5B9)
	x = splitmix64(x ^ uint64(client+1)*0x94D049BB133111EB)
	s := int64(x >> 1) // rand.NewSource ignores the sign bit's entropy anyway
	if s == 0 {
		s = 1
	}
	return s
}

// process draws unit-mean inter-arrival gaps; the generator scales them
// by the chain's mean gap and the diurnal modulation at the draw time.
type process interface {
	gap(r *rand.Rand) float64
}

type fixedProcess struct{}

func (fixedProcess) gap(*rand.Rand) float64 { return 1 }

type poissonProcess struct{}

func (poissonProcess) gap(r *rand.Rand) float64 { return r.ExpFloat64() }

// gammaProcess draws Gamma(shape, 1/shape): unit mean, CV 1/sqrt(shape).
// Shape > 1 is smoother than Poisson, shape < 1 burstier.
type gammaProcess struct{ shape float64 }

func (p gammaProcess) gap(r *rand.Rand) float64 { return gammaDraw(r, p.shape) / p.shape }

// gammaDraw samples Gamma(k, 1) by Marsaglia–Tsang squeeze for k >= 1,
// boosted by the U^(1/k) identity for k < 1.
func gammaDraw(r *rand.Rand, k float64) float64 {
	if k < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return gammaDraw(r, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// weibullProcess draws Weibull(shape, lambda) with lambda chosen for unit
// mean: gap = Exp(1)^(1/shape) / Gamma(1+1/shape). Shape < 1 produces
// the heavy-tailed bursty arrivals of real user traffic; shape > 1 is
// more regular than Poisson.
type weibullProcess struct {
	shape float64
	norm  float64 // Gamma(1 + 1/shape), precomputed
}

func newWeibull(shape float64) weibullProcess {
	return weibullProcess{shape: shape, norm: math.Gamma(1 + 1/shape)}
}

func (p weibullProcess) gap(r *rand.Rand) float64 {
	return math.Pow(r.ExpFloat64(), 1/p.shape) / p.norm
}

// newProcess builds the sampler for one validated arrival spec.
func newProcess(a ArrivalSpec) process {
	switch a.Process {
	case ProcessFixed:
		return fixedProcess{}
	case ProcessGamma:
		return gammaProcess{shape: a.Shape}
	case ProcessWeibull:
		return newWeibull(a.Shape)
	default:
		return poissonProcess{}
	}
}

// modAt evaluates the diurnal rate multiplier at virtual time t:
// 1 + sum of the period terms, floored at 0.05 so the rate never
// reaches zero (which would stall a chain forever).
func modAt(periods []Period, t sim.Time) float64 {
	if len(periods) == 0 {
		return 1
	}
	m := 1.0
	for _, p := range periods {
		m += p.Amplitude * math.Sin(2*math.Pi*float64(t)/float64(p.Period)+p.Phase)
	}
	if m < 0.05 {
		m = 0.05
	}
	return m
}

// Event is one arrival of a generated workload: at virtual time T from
// campaign start, client Client of class Class issues a request of Size
// bytes.
type Event struct {
	T      sim.Time // nanoseconds from campaign start
	Class  string
	Client int
	Size   int64
}

// arrival is one draw of a chain: its instant and request size. It holds
// no pointer, so a buffer of them costs the collector nothing to scan.
type arrival struct {
	t    sim.Time
	size int64
}

// chain is one (class, client) run of draws, buf[lo:hi] of Generate's
// buffer; its instants strictly increase.
type chain struct {
	class  string
	client int
	lo, hi int
}

// Generate expands the spec into its full arrival sequence over
// [0, Horizon), merged across classes and clients in time order (ties
// keep class-declaration then client order). The output depends only on
// the spec, so generating twice — or on different machines — yields the
// same slice element for element.
//
// Every (class, client) chain draws from its own stream into one
// pointer-free buffer, sized from the spec's arrival bound (Spec.bound),
// and a binary heap keyed on (instant, chain index) merges the chains
// into an output allocated once at its exact length: O(n log k) for n
// arrivals over k chains. Chains are numbered in class-declaration, then
// client order, and every gap is at least minGap, so no two draws of one
// chain tie and the heap's tie rule is exactly a stable sort of the
// concatenated chains by instant.
func (s *Spec) Generate() []Event {
	horizon := sim.Time(s.Horizon)
	// The bound is a mean, so the draws may overrun it: four Poisson
	// standard deviations on top spare the append its regrowth in the
	// common case. normalize holds the bound to MaxArrivals.
	n := s.bound()
	buf := make([]arrival, 0, int(n+4*math.Sqrt(n)))
	var chains []chain
	// One stream, re-seeded per chain: the same draws as a fresh source
	// per chain, without one 5 KB source apiece.
	r := rand.New(rand.NewSource(1))
	for ci, cs := range s.Classes {
		// Each client chain runs at RPS/Clients so the class aggregate
		// matches the spec rate.
		meanGapSec := float64(cs.Clients) / cs.RPS
		p := newProcess(cs.Arrival)
		for cl := 0; cl < cs.Clients; cl++ {
			r.Seed(streamSeed(s.Seed, ci, cl))
			lo := len(buf)
			t := sim.Time(0)
			for {
				g := p.gap(r) * meanGapSec / modAt(cs.Periods, t) * 1e9
				if g >= float64(horizon) {
					break // also: a near-zero rate's gap must not overflow sim.Time below
				}
				gap := sim.Time(g)
				if gap < minGap {
					gap = minGap
				}
				t += gap
				if t >= horizon {
					break
				}
				size := cs.Size.Min
				if cs.Size.Max > cs.Size.Min {
					size += r.Int63n(cs.Size.Max - cs.Size.Min + 1)
				}
				buf = append(buf, arrival{t: t, size: size})
			}
			if len(buf) > lo {
				chains = append(chains, chain{class: cs.Class, client: cl, lo: lo, hi: len(buf)})
			}
		}
	}

	// heads is a binary min-heap of each unfinished chain's next draw.
	heads := make(heap, len(chains))
	for c := range chains {
		heads[c] = head{t: buf[chains[c].lo].t, chain: c}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		heads.down(i)
	}
	out := make([]Event, len(buf))
	for i := range out {
		c := &chains[heads[0].chain]
		a := buf[c.lo]
		out[i] = Event{T: a.t, Class: c.class, Client: c.client, Size: a.size}
		if c.lo++; c.lo < c.hi {
			heads[0].t = buf[c.lo].t
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		heads.down(0)
	}
	return out
}

// head is a chain's next draw in Generate's merge.
type head struct {
	t     sim.Time
	chain int
}

// heap is a binary min-heap of heads ordered by instant, then chain index.
type heap []head

func (h heap) before(i, j int) bool {
	return h[i].t < h[j].t || h[i].t == h[j].t && h[i].chain < h[j].chain
}

// down sifts h[i] to its place below i.
func (h heap) down(i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h.before(l, m) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h.before(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
