package cluster

import (
	"bytes"
	"testing"
	"time"

	"resilientos/internal/workload"
)

const testSpec = `{
  "name": "mixed-test",
  "seed": 11,
  "horizon": "4s",
  "classes": [
    {"class": "net", "clients": 4, "rps": 80, "arrival": {"process": "poisson"},
     "slo": "25ms", "periods": [{"period": "2s", "amplitude": 0.4}]},
    {"class": "disk", "clients": 2, "rps": 40, "arrival": {"process": "gamma", "shape": 4}, "slo": "40ms"},
    {"class": "char", "clients": 2, "rps": 12, "arrival": {"process": "weibull", "shape": 1.5}, "slo": "35ms"}
  ]
}`

func workloadConfig(t *testing.T) Config {
	t.Helper()
	spec, err := workload.Parse([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Nodes = 3
	cfg.Arrivals = spec.Generate()
	cfg.Classes = spec.ClassNames()
	cfg.Budgets = spec.Budgets()
	cfg.WorkloadName = spec.Name
	cfg.Horizon = time.Duration(spec.Horizon)
	cfg.Storm = Storm{Kind: "correlated", Driver: "eth.rtl8139", K: 1,
		Interval: 1500 * time.Millisecond}
	return cfg
}

// TestWorkloadDeterminism extends the reproducibility contract to
// workload-driven campaigns: the same generated arrival sequence —
// including the char class, which the classic spec never exercises —
// yields byte-identical series and reports across repeated runs and
// worker counts 1/2/8.
func TestWorkloadDeterminism(t *testing.T) {
	cfg := workloadConfig(t)

	csv1, rep1 := runBytes(t, cfg)
	csv2, rep2 := runBytes(t, cfg)
	if !bytes.Equal(csv1, csv2) {
		t.Fatalf("repeated workload run: CSV differs")
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("repeated workload run: report differs\nrun1:\n%s\nrun2:\n%s", rep1, rep2)
	}

	for _, workers := range []int{2, 8} {
		wcfg := workloadConfig(t)
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

// TestWorkloadReport checks the per-class accounting a workload-driven
// campaign adds: every declared class serves traffic, every request
// completes, and the report carries the workload name.
func TestWorkloadReport(t *testing.T) {
	cfg := workloadConfig(t)
	r := Run(cfg)
	if r.Workload != "mixed-test" {
		t.Fatalf("workload name = %q", r.Workload)
	}
	if r.Requests != int64(len(cfg.Arrivals)) {
		t.Fatalf("requests %d, want %d arrivals", r.Requests, len(cfg.Arrivals))
	}
	if r.Incomplete != 0 {
		t.Fatalf("%d requests never completed", r.Incomplete)
	}
	if len(r.Classes) != 3 {
		t.Fatalf("classes = %d, want 3", len(r.Classes))
	}
	for _, cr := range r.Classes {
		if cr.Requests == 0 {
			t.Fatalf("class %q served no requests", cr.Class)
		}
		if cr.SLO == nil {
			t.Fatalf("class %q missing SLO report", cr.Class)
		}
	}
}

// TestSLOAttainment pins the SLO math at its extremes: a generous budget
// attains 100% of requests and windows; a budget below the service floor
// attains (close to) none.
func TestSLOAttainment(t *testing.T) {
	run := func(budget time.Duration) *Report {
		cfg := workloadConfig(t)
		cfg.Storm = Storm{Kind: "none"}
		for cl := range cfg.Budgets {
			cfg.Budgets[cl] = budget
		}
		return Run(cfg)
	}

	generous := run(10 * time.Second)
	for _, cr := range generous.Classes {
		if cr.SLO == nil || cr.SLO.AttainedPct != 100 || cr.SLO.WindowPct != 100 {
			t.Fatalf("generous budget: class %q SLO = %+v, want 100/100", cr.Class, cr.SLO)
		}
	}

	// The service floor is >= 1ms per class, so a 1ns budget is unmeetable.
	impossible := run(time.Nanosecond)
	for _, cr := range impossible.Classes {
		if cr.SLO == nil || cr.SLO.AttainedPct != 0 || cr.SLO.WindowPct == 100 {
			t.Fatalf("impossible budget: class %q SLO = %+v, want 0 attained", cr.Class, cr.SLO)
		}
	}
}

// TestDefaultLoadIsClassic: a campaign that names no arrivals serves
// exactly workload.Classic at 200 rps over its horizon — the built-in
// mix is a spec like any other, not a second arrival path.
func TestDefaultLoadIsClassic(t *testing.T) {
	implicit := testConfig()
	implicit.Arrivals = nil
	implicit.Storm = Storm{Kind: "correlated", Driver: "eth.rtl8139", K: 2, Interval: time.Second}

	spec, err := workload.Classic(implicit.Seed, 200, implicit.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	explicit := implicit
	explicit.Arrivals = spec.Generate()
	explicit.WorkloadName = spec.Name

	csv1, rep1 := runBytes(t, implicit)
	csv2, rep2 := runBytes(t, explicit)
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("default load: CSV differs from Classic(seed, 200, horizon) passed explicitly")
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("default load: report differs from Classic(seed, 200, horizon) passed explicitly\ndefault:\n%s\nexplicit:\n%s", rep1, rep2)
	}
}
