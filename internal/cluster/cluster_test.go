package cluster

import (
	"bytes"
	"testing"
	"time"

	"resilientos/internal/obs/timeseries"
	"resilientos/internal/ucode"
	"resilientos/internal/workload"
)

func testConfig() Config {
	const horizon = 4 * time.Second
	spec, err := workload.Classic(11, 150, horizon)
	if err != nil {
		panic(err)
	}
	return Config{
		Nodes:    4,
		Seed:     11,
		Horizon:  horizon,
		Window:   200 * time.Millisecond,
		Arrivals: spec.Generate(),
	}
}

func runBytes(t *testing.T, cfg Config) (csv, report []byte) {
	t.Helper()
	c := New(cfg)
	r := c.Run()
	var csvBuf, jsonBuf bytes.Buffer
	if err := timeseries.WriteCSV(&csvBuf, c.Segments()); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := timeseries.Validate(c.Segments(), c.sampler.Segments()[0].Windows[0].End-c.sampler.Segments()[0].Windows[0].Start); err != nil {
		t.Fatalf("timeseries.Validate: %v", err)
	}
	if err := r.WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return csvBuf.Bytes(), jsonBuf.Bytes()
}

// TestFleetDeterminism is the reproducibility contract: the same fleet
// seed yields byte-identical window series and reports across repeated
// in-process runs AND across node-advance parallelism levels.
func TestFleetDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Storm = Storm{Kind: "correlated", Driver: "eth.rtl8139", K: 2,
		Interval: 1500 * time.Millisecond}

	csv1, rep1 := runBytes(t, cfg)
	csv2, rep2 := runBytes(t, cfg)
	if !bytes.Equal(csv1, csv2) {
		t.Fatalf("repeated run: CSV differs\nrun1:\n%s\nrun2:\n%s", csv1, csv2)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("repeated run: report differs\nrun1:\n%s\nrun2:\n%s", rep1, rep2)
	}

	for _, workers := range []int{2, 3, 8} {
		wcfg := cfg
		wcfg.Workers = workers
		csvW, repW := runBytes(t, wcfg)
		if !bytes.Equal(csv1, csvW) {
			t.Fatalf("workers=%d: CSV differs from workers=1", workers)
		}
		if !bytes.Equal(rep1, repW) {
			t.Fatalf("workers=%d: report differs from workers=1\nbase:\n%s\nworkers:\n%s",
				workers, rep1, repW)
		}
	}
}

// TestFailureAwareBeatsRoundRobin is the campaign acceptance check: under
// a correlated NIC-kill storm, routing around known-sick nodes yields
// strictly higher served availability and strictly lower p99 latency
// than health-blind round-robin, while every crash still recovers.
func TestFailureAwareBeatsRoundRobin(t *testing.T) {
	base := testConfig()
	base.Storm = Storm{Kind: "correlated", Driver: "eth.rtl8139", K: 2,
		Interval: time.Second}

	rrCfg := base
	rrCfg.Policy = &RoundRobin{}
	rr := Run(rrCfg)

	faCfg := base
	faCfg.Policy = FailureAware{}
	fa := Run(faCfg)

	if rr.Policy != "round-robin" || fa.Policy != "failure-aware" {
		t.Fatalf("policy labels: %q vs %q", rr.Policy, fa.Policy)
	}
	if rr.Crashes == 0 {
		t.Fatalf("storm produced no crashes: %+v", rr)
	}
	for _, r := range []*Report{rr, fa} {
		if r.RecoveredPct != 100 || r.GaveUp != 0 {
			t.Fatalf("%s: recovery not 100%%: recovered=%.1f%% gaveup=%d crashes=%d",
				r.Policy, r.RecoveredPct, r.GaveUp, r.Crashes)
		}
		if r.Incomplete != 0 {
			t.Fatalf("%s: %d requests never completed", r.Policy, r.Incomplete)
		}
	}
	if fa.AvailabilityPct <= rr.AvailabilityPct {
		t.Fatalf("failure-aware availability %.2f%% not above round-robin %.2f%%",
			fa.AvailabilityPct, rr.AvailabilityPct)
	}
	if fa.Latency.P99 >= rr.Latency.P99 {
		t.Fatalf("failure-aware p99 %s not below round-robin %s",
			time.Duration(fa.Latency.P99), time.Duration(rr.Latency.P99))
	}
	// The node-level floor is storm-driven, not policy-driven: both runs
	// kill the same drivers at the same times.
	if rr.NodeAvailabilityPct != fa.NodeAvailabilityPct {
		t.Fatalf("node availability floor should be policy-independent: %.2f%% vs %.2f%%",
			rr.NodeAvailabilityPct, fa.NodeAvailabilityPct)
	}
}

// TestPoissonInjectStorm exercises the SWIFI storm mode end to end:
// independent per-node fault injection, detection via the nodes' own
// defect machinery, and full recovery accounting.
func TestPoissonInjectStorm(t *testing.T) {
	cfg := testConfig()
	cfg.Storm = Storm{Kind: "poisson", Driver: "eth.rtl8139",
		Mean: 900 * time.Millisecond, Mode: ModeInject}
	r := Run(cfg)
	if r.Injections == 0 {
		t.Fatalf("no injections recorded: %+v", r)
	}
	if r.GaveUp != 0 {
		t.Fatalf("gave up %d times", r.GaveUp)
	}
	if r.Completed == 0 {
		t.Fatalf("no requests completed")
	}
}

// TestInjectRefusesExhaustedImage: a SWIFI storm that outlasts a driver's
// image (every instruction already mutated into a NOP) must see inject
// report "nothing to mutate", not spin inside the injector.
func TestInjectRefusesExhaustedImage(t *testing.T) {
	n := newNode(0, 11, false, nil)
	defer n.Sys.Close()
	n.Sys.Run(3 * time.Second)
	const driver = "eth.rtl8139"
	if !n.inject(driver) {
		t.Fatal("inject into a freshly booted driver refused")
	}
	img := n.Sys.DriverVM(driver).Img
	for pc := range img.Code {
		img.Code[pc] = ucode.Enc(ucode.OpNop, 0, 0, 0)
	}
	if n.inject(driver) || n.injections != 1 {
		t.Fatalf("inject into an all-NOP image: injections = %d, want it refused", n.injections)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"round-robin", "least-loaded", "failure-aware"} {
		p, err := ParsePolicy(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatalf("ParsePolicy(bogus) succeeded")
	}
}

func TestParseStorm(t *testing.T) {
	cases := []struct {
		spec string
		want Storm
		ok   bool
	}{
		{"none", Storm{Kind: "none", Driver: "eth.rtl8139", K: 2,
			Interval: 2 * time.Second, Mean: time.Second}, true},
		{"", Storm{Kind: "none", Driver: "eth.rtl8139", K: 2,
			Interval: 2 * time.Second, Mean: time.Second}, true},
		{"correlated:disk.sata,k=3,every=500ms,mode=inject",
			Storm{Kind: "correlated", Driver: "disk.sata", K: 3,
				Interval: 500 * time.Millisecond, Mean: time.Second, Mode: ModeInject}, true},
		{"poisson:eth.dp8390,mean=750ms",
			Storm{Kind: "poisson", Driver: "eth.dp8390", K: 2,
				Interval: 2 * time.Second, Mean: 750 * time.Millisecond}, true},
		{"hail:everything", Storm{}, false},
		{"correlated:eth.rtl8139,k=0", Storm{}, false},
		{"poisson:eth.rtl8139,mean=xyz", Storm{}, false},
		// A spacing below 1 ms is 10⁹ fleet events per virtual second at
		// the extreme; the floor is the Poisson arm's own gap clamp.
		{"correlated:eth.rtl8139,every=1ns", Storm{}, false},
		{"correlated:eth.rtl8139,every=999us", Storm{}, false},
		{"correlated:eth.rtl8139,every=0s", Storm{}, false},
		{"correlated:eth.rtl8139,every=-1s", Storm{}, false},
		{"poisson:eth.rtl8139,mean=1us", Storm{}, false},
		{"correlated:eth.rtl8139,every=1ms", Storm{Kind: "correlated", Driver: "eth.rtl8139", K: 2,
			Interval: time.Millisecond, Mean: time.Second}, true},
		{"poisson:eth.rtl8139,mean=1ms", Storm{Kind: "poisson", Driver: "eth.rtl8139", K: 2,
			Interval: 2 * time.Second, Mean: time.Millisecond}, true},
	}
	for _, tc := range cases {
		got, err := ParseStorm(tc.spec)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseStorm(%q): err=%v, want ok=%v", tc.spec, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("ParseStorm(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	// Round trip: String output re-parses to the same storm.
	for _, spec := range []string{
		"correlated:disk.sata,k=3,every=500ms,mode=inject",
		"poisson:eth.dp8390,mean=750ms,mode=kill",
	} {
		s, err := ParseStorm(spec)
		if err != nil {
			t.Fatalf("ParseStorm(%q): %v", spec, err)
		}
		again, err := ParseStorm(s.String())
		if err != nil || again != s {
			t.Fatalf("round trip %q -> %q -> %+v (err %v)", spec, s.String(), again, err)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for fleet := int64(0); fleet < 4; fleet++ {
		for i := 0; i < 16; i++ {
			s := deriveSeed(fleet, i)
			if s <= 0 {
				t.Fatalf("deriveSeed(%d,%d) = %d, want positive", fleet, i, s)
			}
			if seen[s] {
				t.Fatalf("deriveSeed(%d,%d) = %d collides", fleet, i, s)
			}
			seen[s] = true
		}
	}
}
