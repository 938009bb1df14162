package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"resilientos/internal/sim"
)

const specMixed = `{
  "name": "mixed",
  "seed": 11,
  "horizon": "4s",
  "classes": [
    {"class": "net", "clients": 4, "rps": 80, "arrival": {"process": "poisson"}, "slo": "25ms"},
    {"class": "disk", "clients": 2, "rps": 40, "arrival": {"process": "gamma", "shape": 4}, "slo": "40ms"},
    {"class": "char", "rps": 10, "arrival": {"process": "weibull", "shape": 1.5}}
  ]
}`

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte(specMixed))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mixed" || s.Seed != 11 {
		t.Fatalf("name/seed = %q/%d", s.Name, s.Seed)
	}
	if got := time.Duration(s.Horizon); got != 4*time.Second {
		t.Fatalf("horizon = %v", got)
	}
	if got := s.ClassNames(); !reflect.DeepEqual(got, []string{"net", "disk", "char"}) {
		t.Fatalf("classes = %v", got)
	}
	// Unset knobs default: one client, family shape 1, per-class sizes.
	if s.Classes[2].Clients != 1 {
		t.Fatalf("char clients = %d, want default 1", s.Classes[2].Clients)
	}
	if s.Classes[0].Size != defaultSizes[ClassNet] || s.Classes[2].Size != defaultSizes[ClassChar] {
		t.Fatalf("default sizes not applied: %+v / %+v", s.Classes[0].Size, s.Classes[2].Size)
	}
	want := map[string]time.Duration{"net": 25 * time.Millisecond, "disk": 40 * time.Millisecond}
	if got := s.Budgets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("budgets = %v, want %v", got, want)
	}
}

func TestParseMinimalDefaults(t *testing.T) {
	s, err := Parse([]byte(`{"horizon": "1s", "classes": [{"class": "net", "rps": 5, "arrival": {"process": "fixed"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "workload" || s.Seed != 1 {
		t.Fatalf("defaults: name=%q seed=%d", s.Name, s.Seed)
	}
	if len(s.Budgets()) != 0 {
		t.Fatalf("no SLO declared but budgets = %v", s.Budgets())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"garbage", `{`, "parse spec"},
		{"trailing", `{"horizon":"1s","classes":[{"class":"net","rps":1,"arrival":{"process":"fixed"}}]} {}`, "trailing data"},
		{"unknown field", `{"horizon":"1s","rsp":5,"classes":[]}`, "unknown field"},
		{"no horizon", `{"classes":[{"class":"net","rps":1,"arrival":{"process":"fixed"}}]}`, "horizon must be positive"},
		{"bad duration", `{"horizon":"4 furlongs","classes":[]}`, "bad duration"},
		{"no classes", `{"horizon":"1s","classes":[]}`, "at least one class"},
		{"unknown class", `{"horizon":"1s","classes":[{"class":"gpu","rps":1,"arrival":{"process":"fixed"}}]}`, "unknown class"},
		{"dup class", `{"horizon":"1s","classes":[{"class":"net","rps":1,"arrival":{"process":"fixed"}},{"class":"net","rps":1,"arrival":{"process":"fixed"}}]}`, "declared twice"},
		{"zero rps", `{"horizon":"1s","classes":[{"class":"net","rps":0,"arrival":{"process":"fixed"}}]}`, "rps must be positive"},
		{"negative clients", `{"horizon":"1s","classes":[{"class":"net","clients":-2,"rps":1,"arrival":{"process":"fixed"}}]}`, "clients must be positive"},
		{"no process", `{"horizon":"1s","classes":[{"class":"net","rps":1}]}`, "arrival.process required"},
		{"unknown process", `{"horizon":"1s","classes":[{"class":"net","rps":1,"arrival":{"process":"pareto"}}]}`, "unknown arrival process"},
		{"poisson shape", `{"horizon":"1s","classes":[{"class":"net","rps":1,"arrival":{"process":"poisson","shape":2}}]}`, "takes no shape"},
		{"negative shape", `{"horizon":"1s","classes":[{"class":"net","rps":1,"arrival":{"process":"gamma","shape":-1}}]}`, "shape must be positive"},
		{"weibull shape below the floor", `{"horizon":"2s","classes":[{"class":"net","rps":1,"arrival":{"process":"weibull","shape":0.005}}]}`, "shape must be positive and at least 0.2, got 0.005"},
		{"gamma shape below the floor", `{"horizon":"2s","classes":[{"class":"net","rps":1,"arrival":{"process":"gamma","shape":1e-6}}]}`, "shape must be positive and at least 0.2, got 1e-06"},
		{"too many clients", `{"horizon":"2s","classes":[{"class":"net","clients":100000,"rps":1,"arrival":{"process":"poisson"}}]}`, "clients must be positive and at most 1000, got 100000"},
		{"bad size range", `{"horizon":"1s","classes":[{"class":"net","rps":1,"arrival":{"process":"fixed"},"size":{"min":100,"max":10}}]}`, "size range"},
		{"negative slo", `{"horizon":"1s","classes":[{"class":"net","rps":1,"arrival":{"process":"fixed"},"slo":"-5ms"}]}`, "slo must be non-negative"},
		{"zero period", `{"horizon":"1s","classes":[{"class":"net","rps":1,"arrival":{"process":"fixed"},"periods":[{"period":"0s","amplitude":0.5}]}]}`, "period must be positive"},
		{"negative amplitude", `{"horizon":"1s","classes":[{"class":"net","rps":1,"arrival":{"process":"fixed"},"periods":[{"period":"1s","amplitude":-0.5}]}]}`, "amplitude must be non-negative"},
		{"arrival cap by rate", `{"horizon":"1h","classes":[{"class":"net","rps":1e9,"arrival":{"process":"poisson"}}]}`, "up to 3600000000000 arrivals over its 1h0m0s horizon, more than the cap of 10000000"},
		{"arrival cap by amplitude", `{"horizon":"1h","classes":[{"class":"net","rps":100,"arrival":{"process":"fixed"},"periods":[{"period":"1s","amplitude":1e6}]}]}`, "up to 360000360000 arrivals over its 1h0m0s horizon, more than the cap of 10000000"},
		{"arrival cap summed over classes", `{"horizon":"1h","classes":[{"class":"net","rps":2000,"arrival":{"process":"poisson"}},{"class":"disk","rps":2000,"arrival":{"process":"poisson"}}]}`, "up to 14400000 arrivals over its 1h0m0s horizon, more than the cap of 10000000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.spec))
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestArrivalBound: the cap counts every class at its modulation's peak
// over the whole horizon, and an hour of the benchmark's fleet mix stays
// far below it.
func TestArrivalBound(t *testing.T) {
	s, err := Parse([]byte(strings.Replace(fmt.Sprintf(benchMix, 1), `"200s"`, `"1h"`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// net 90 rps at 1 + 0.4, disk 45, char 15, for 3,600 s.
	if got, want := s.bound(), (90*1.4+45+15)*3600.0; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("bound = %.0f, want %.0f", got, want)
	}
}

func TestDurationForms(t *testing.T) {
	// Nanosecond integers and Go duration strings are the same duration.
	a, err := Parse([]byte(`{"horizon": 1000000000, "classes": [{"class":"net","rps":5,"arrival":{"process":"fixed"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(`{"horizon": "1s", "classes": [{"class":"net","rps":5,"arrival":{"process":"fixed"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Horizon != b.Horizon {
		t.Fatalf("horizons differ: %d vs %d", a.Horizon, b.Horizon)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, err := Parse([]byte(specMixed))
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Generate(), s.Generate()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of the same spec differ")
	}
	if len(a) == 0 {
		t.Fatal("no events generated")
	}

	other := *s
	other.Seed = 12
	c := other.Generate()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical sequences")
	}
}

func TestGenerateOrderedInHorizon(t *testing.T) {
	s, err := Parse([]byte(specMixed))
	if err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(s.Horizon)
	sizes := map[string]SizeSpec{}
	for _, cs := range s.Classes {
		sizes[cs.Class] = cs.Size
	}
	var prev sim.Time
	for i, ev := range s.Generate() {
		if ev.T < prev {
			t.Fatalf("event %d out of order: %d after %d", i, ev.T, prev)
		}
		if ev.T <= 0 || ev.T >= horizon {
			t.Fatalf("event %d outside (0, horizon): %d", i, ev.T)
		}
		sz := sizes[ev.Class]
		if ev.Size < sz.Min || ev.Size > sz.Max {
			t.Fatalf("event %d size %d outside [%d, %d]", i, ev.Size, sz.Min, sz.Max)
		}
		prev = ev.T
	}
}

// TestGenerateRate checks end-to-end rate conformance: a 200 rps Poisson
// spec over 50 virtual seconds must land within 5% of 10k events.
func TestGenerateRate(t *testing.T) {
	spec := `{"seed": 7, "horizon": "50s", "classes": [
      {"class": "net", "clients": 8, "rps": 200, "arrival": {"process": "poisson"}}]}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(s.Generate()))
	want := 200.0 * 50
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("generated %.0f events, want %.0f +-5%%", got, want)
	}
}

// TestDiurnalModulation splits a one-period sinusoidal workload into its
// peak and trough halves; the peak half must carry clearly more arrivals.
func TestDiurnalModulation(t *testing.T) {
	spec := `{"seed": 3, "horizon": "10s", "classes": [
      {"class": "net", "clients": 4, "rps": 400, "arrival": {"process": "poisson"},
       "periods": [{"period": "10s", "amplitude": 0.8}]}]}`
	s, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	// sin is positive on the first half-period and negative on the second.
	half := sim.Time(5 * time.Second)
	var peak, trough int
	for _, ev := range s.Generate() {
		if ev.T < half {
			peak++
		} else {
			trough++
		}
	}
	if trough == 0 {
		t.Fatal("trough half empty — floor failed")
	}
	if ratio := float64(peak) / float64(trough); ratio < 2 {
		t.Fatalf("peak/trough ratio %.2f, want > 2 (peak %d, trough %d)", ratio, peak, trough)
	}
}

func TestModAtFloor(t *testing.T) {
	periods := []Period{{Period: Duration(time.Second), Amplitude: 10}}
	// At 3/4 period the sine is -1: 1 - 10 would be negative without the floor.
	if got := modAt(periods, sim.Time(750*time.Millisecond)); got != 0.05 {
		t.Fatalf("modAt floor = %v, want 0.05", got)
	}
	if got := modAt(nil, 123); got != 1 {
		t.Fatalf("modAt(nil) = %v, want 1", got)
	}
}

func TestStreamIndependence(t *testing.T) {
	// Distinct (class, client) chains must not share a stream.
	seen := map[int64]string{}
	for ci := 0; ci < 3; ci++ {
		for cl := 0; cl < 4; cl++ {
			v := stream(11, ci, cl).Int63()
			key := fmt.Sprintf("class %d client %d", ci, cl)
			if prev, ok := seen[v]; ok {
				t.Fatalf("%s collides with %s", key, prev)
			}
			seen[v] = key
		}
	}
}

// TestClassic pins the built-in mix as a spec: reproducible from the
// seed, Poisson net:disk at 3:1 adding up to the asked rate, the two
// fixed sizes, and a rate that is not a positive finite number or that
// asks for more than MaxArrivals refused — a near-zero one generating
// nothing instead of overflowing into a flood.
func TestClassic(t *testing.T) {
	const rps, horizon = 200, 60 * time.Second
	s, err := Classic(11, rps, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "classic" {
		t.Fatalf("name = %q, want classic", s.Name)
	}
	events := s.Generate()
	again, _ := Classic(11, rps, horizon)
	if !reflect.DeepEqual(events, again.Generate()) {
		t.Fatal("same seed generated a different sequence")
	}
	other, _ := Classic(12, rps, horizon)
	if reflect.DeepEqual(events, other.Generate()) {
		t.Fatal("a different seed generated the same sequence")
	}

	count := map[string]float64{}
	for _, ev := range events {
		count[ev.Class]++
		if want := map[string]int64{ClassNet: 16777, ClassDisk: 100663}[ev.Class]; ev.Size != want {
			t.Fatalf("%s request of %d bytes, want %d", ev.Class, ev.Size, want)
		}
	}
	if want := rps * horizon.Seconds(); math.Abs(float64(len(events))-want) > 0.05*want {
		t.Fatalf("%d events over %s, want %.0f within 5%%", len(events), horizon, want)
	}
	if ratio := count[ClassNet] / count[ClassDisk]; math.Abs(ratio-3) > 0.15 {
		t.Fatalf("net:disk = %.0f:%.0f (%.2f), want 3:1 within 5%%", count[ClassNet], count[ClassDisk], ratio)
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5} {
		if _, err := Classic(11, bad, horizon); err == nil || !strings.Contains(err.Error(), "rps") {
			t.Errorf("Classic(rps=%v) = %v, want an error naming rps", bad, err)
		}
	}
	if _, err := Classic(1, 1e9, time.Hour); err == nil || !strings.Contains(err.Error(), "more than the cap") {
		t.Errorf("Classic(rps=1e9, 1h) = %v, want the arrival cap's error", err)
	}
	slow, err := Classic(11, 1e-12, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(slow.Generate()); n != 0 {
		t.Fatalf("rps 1e-12 generated %d events in %s, want none", n, horizon)
	}
}

// benchMix is the repo benchmark's fleet_storm mix: net Poisson with a
// diurnal term, disk gamma, char Weibull, over 200 s.
const benchMix = `{"name":"bench-mix","seed":%d,"horizon":"200s","classes":[
{"class":"net","clients":6,"rps":90,"arrival":{"process":"poisson"},"size":{"min":1024,"max":65536},"slo":"25ms","periods":[{"period":"2s","amplitude":0.4}]},
{"class":"disk","clients":3,"rps":45,"arrival":{"process":"gamma","shape":4},"size":{"min":4096,"max":131072},"slo":"40ms"},
{"class":"char","clients":2,"rps":15,"arrival":{"process":"weibull","shape":1.5},"size":{"min":256,"max":8192},"slo":"35ms"}]}`

// stream returns a fresh random stream for one (class, client) chain.
func stream(seed int64, class, client int) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, class, client)))
}

// referenceGenerate is Generate as it was before the merge: every chain
// drawn from its own fresh stream and appended to one slice, which a
// stable sort then orders by instant.
func referenceGenerate(s *Spec) []Event {
	horizon := sim.Time(s.Horizon)
	var out []Event
	for ci, cs := range s.Classes {
		// Each client chain runs at RPS/Clients so the class aggregate
		// matches the spec rate.
		meanGapSec := float64(cs.Clients) / cs.RPS
		for cl := 0; cl < cs.Clients; cl++ {
			r := stream(s.Seed, ci, cl)
			p := newProcess(cs.Arrival)
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
				out = append(out, Event{T: t, Class: cs.Class, Client: cl, Size: size})
			}
		}
	}
	slices.SortStableFunc(out, func(a, b Event) int { return cmp.Compare(a.T, b.T) })
	return out
}

// fuzzSpec builds a small spec from fuzz bytes: 1–3 classes of 1–8
// clients, each with its process and shape and 0–2 modulation periods,
// over at most 5 s. Rates stay low enough that a run is milliseconds.
func fuzzSpec(seed int64, horizonMS uint16, knobs []byte) *Spec {
	knob := func(i int) int { // knobs cycle, so any length describes a spec
		if len(knobs) == 0 {
			return 0
		}
		return int(knobs[i%len(knobs)])
	}
	processes := []string{ProcessFixed, ProcessPoisson, ProcessGamma, ProcessWeibull}
	s := &Spec{Seed: seed, Horizon: Duration(time.Duration(1+int(horizonMS)%5000) * time.Millisecond)}
	classes := []string{ClassNet, ClassDisk, ClassChar}
	for ci := 0; ci < 1+knob(0)%3; ci++ {
		k := 1 + 13*ci // a class reads 13 knobs: 7, then 3 per period
		cs := ClassSpec{
			Class:   classes[ci],
			Clients: 1 + knob(k)%8,
			RPS:     1 + float64(knob(k+1)*4),
			Arrival: ArrivalSpec{Process: processes[knob(k+2)%4]},
			Size:    SizeSpec{Min: 1 + int64(knob(k+3)), Max: 1 + int64(knob(k+3)) + int64(knob(k+4)%3*100)},
		}
		if cs.Arrival.Process == ProcessGamma || cs.Arrival.Process == ProcessWeibull {
			cs.Arrival.Shape = 0.25 + float64(knob(k+5))/32 // 0.25 to 8.2
		}
		for pi := 0; pi < knob(k+6)%3; pi++ {
			j := k + 7 + 3*pi
			cs.Periods = append(cs.Periods, Period{
				Period:    Duration(time.Duration(1+knob(j)) * 20 * time.Millisecond),
				Amplitude: float64(knob(j+1)) / 64, // to 4: deep enough to reach the floor
				Phase:     float64(knob(j+2)) / 40,
			})
		}
		s.Classes = append(s.Classes, cs)
	}
	if err := s.normalize(); err != nil {
		panic(err) // every spec built above is valid
	}
	return s
}

// FuzzGenerateOrderMatchesReference: Generate's merge returns what the
// per-chain draws plus a stable sort returned, element for element, for
// any spec. The reference does not read Generate's output, so a lost
// arrival or a wrong draw shows, not only a misordering. A spec is either
// built from the seed, horizon and knob bytes (fuzzSpec) or, when js is
// set, parsed from it. The seed corpus is the benchmark's fleet mix and
// its fixed-rate twin, whose clients tie on every instant, at seeds 1, 7
// and 11, the fleetbench spec file, and three knob-built specs.
func FuzzGenerateOrderMatchesReference(f *testing.F) {
	fixed := regexp.MustCompile(`"arrival":\{[^}]*\}`)
	var seeds []string
	for _, mix := range []string{benchMix, fixed.ReplaceAllString(benchMix, `"arrival":{"process":"fixed"}`)} {
		for _, seed := range []int64{1, 7, 11} {
			seeds = append(seeds, fmt.Sprintf(mix, seed))
		}
	}
	b, err := os.ReadFile("../../cmd/fleetbench/testdata/workload_seed11.json")
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, string(b))
	for _, js := range seeds {
		f.Add(int64(0), uint16(0), []byte(nil), js)
	}
	// Knob-built seeds: net Poisson under two periods, disk gamma(4) and
	// char Weibull(0.5) under one deep enough to reach the floor; three
	// classes of eight fixed-rate clients, tied on every instant; and the
	// smallest spec, one fixed-rate client of net at 1 rps.
	f.Add(int64(1), uint16(3000), []byte{2,
		5, 22, 1, 7, 2, 0, 2, 99, 26, 0, 9, 64, 63,
		2, 11, 2, 40, 1, 120, 0, 0, 0, 0, 0, 0, 0,
		1, 4, 3, 3, 2, 8, 1, 4, 200, 100, 0, 0, 0}, "")
	f.Add(int64(7), uint16(2000), []byte{2,
		7, 10, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		7, 5, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		7, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, "")
	f.Add(int64(11), uint16(4999), []byte(nil), "")
	f.Fuzz(func(t *testing.T, seed int64, horizonMS uint16, knobs []byte, js string) {
		var s *Spec
		if js == "" {
			s = fuzzSpec(seed, horizonMS, knobs)
		} else if s, err = Parse([]byte(js)); err != nil || s.bound() > 1e5 {
			t.Skip() // a mutated spec file: only a valid, small one is compared
		}
		got, want := s.Generate(), referenceGenerate(s)
		if len(got) != len(want) {
			t.Fatalf("%d events, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("event %d is %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}
