package resilientos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"resilientos/internal/check"
	"resilientos/internal/core"
	"resilientos/internal/fi"
	"resilientos/internal/obs"
)

// mechanismComparisonConfig is the committed-golden configuration of the
// recovery-mechanism comparison — the same shape `cmd/figures -mechanisms
// -seed 11 -size 32 -interval 1` runs, pinned byte-for-byte in testdata.
func mechanismComparisonConfig() FigureConfig {
	return FigureConfig{Fig: 7, System: Config{Seed: 11}, Size: 32 << 20, Interval: time.Second}
}

// TestRecoveryMechanismGoldens pins the seed-11 per-mechanism Fig. 7
// curves against committed goldens and asserts the headline claims: a
// warm standby's dip is measurably shallower than a respawn's, and a
// microreboot's dip is narrower. Regenerate with:
// go test -run RecoveryMechanismGoldens -update
func TestRecoveryMechanismGoldens(t *testing.T) {
	results, doc := RunMechanismComparison(mechanismComparisonConfig())
	for i, res := range results {
		mech := RecoveryMechanisms[i]
		if res.Violation != nil {
			t.Fatalf("%s: window series invariant violated: %v", mech, res.Violation)
		}
		if !res.OK {
			t.Fatalf("%s: transfer failed integrity check: %d of %d bytes",
				mech, res.Bytes, res.Size)
		}
		if res.Kills < 2 {
			t.Fatalf("%s: only %d crashes — run too short to compare mechanisms",
				mech, res.Kills)
		}

		var got bytes.Buffer
		if err := WriteFigureCSV(&got, res); err != nil {
			t.Fatal(err)
		}
		golden := fmt.Sprintf("testdata/fig7_seed11_%s.csv", mech)
		if *updateGolden {
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s curve differs from %s (%d vs %d bytes); "+
				"if the change is intentional, regenerate with -update",
				mech, golden, got.Len(), len(want))
		}
	}
	// The table `figures -mechanisms` writes as BENCH_recovery.json.
	checkBenchGolden(t, "testdata/BENCH_recovery_seed11.json", doc)

	value := func(name string) float64 {
		v, ok := doc.Value(name)
		if !ok {
			t.Fatalf("bench document lacks %q", name)
		}
		return v
	}
	if s, r := value("standby/mean_dip_depth_pct"), value("respawn/mean_dip_depth_pct"); s >= r {
		t.Errorf("standby dip depth %.1f%% not shallower than respawn's %.1f%%", s, r)
	}
	if m, r := value("microreboot/mean_dip_width_ms"), value("respawn/mean_dip_width_ms"); m >= r {
		t.Errorf("microreboot dip width %.1fms not narrower than respawn's %.1fms", m, r)
	}
	if d, w := value("standby_depth_gain_pct"), value("micro_width_gain_ms"); d <= 0 || w <= 0 {
		t.Errorf("headline gains not positive: depth %.1f pct points, width %.1f ms", d, w)
	}
}

// TestRecoveryMechanismRunToRun reruns the whole comparison from scratch
// and demands byte-identical curves and an identical bench document —
// the reproducibility property the committed BENCH_recovery golden relies on.
func TestRecoveryMechanismRunToRun(t *testing.T) {
	encode := func() ([][]byte, []byte) {
		results, doc := RunMechanismComparison(mechanismComparisonConfig())
		var curves [][]byte
		for _, res := range results {
			var buf bytes.Buffer
			if err := WriteFigureCSV(&buf, res); err != nil {
				t.Fatal(err)
			}
			curves = append(curves, buf.Bytes())
		}
		blob, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return curves, blob
	}
	curvesA, docA := encode()
	curvesB, docB := encode()
	for i := range curvesA {
		if !bytes.Equal(curvesA[i], curvesB[i]) {
			t.Errorf("%s curve not reproducible across runs: %d vs %d bytes",
				RecoveryMechanisms[i], len(curvesA[i]), len(curvesB[i]))
		}
	}
	if !bytes.Equal(docA, docB) {
		t.Error("bench recovery document not reproducible across runs")
	}
}

// TestFailoverInvariantsSWIFI is the property test for the new failover
// invariants: across a 64-seed SWIFI sweep against the network driver —
// half the seeds under warm-standby failover, half under microreboot,
// all with state salvage armed — the checker must never observe a live
// standby serving requests, two owners of one endpoint, or a
// non-monotone capsule version, no matter where the corruption lands.
func TestFailoverInvariantsSWIFI(t *testing.T) {
	const seeds = 64
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		mech := core.MechStandby
		if seed%2 == 0 {
			mech = core.MechMicroreboot
		}
		t.Run(fmt.Sprintf("seed=%d,%s", seed, mech), func(t *testing.T) {
			t.Parallel()
			rec := obs.NewRecorder()
			rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
			sys := New(Config{
				Seed:        seed,
				DisableDisk: true,
				DisableChar: true,
				Obs:         rec,
				Mechanism:   mech,
				Salvage:     true,
			})
			ck := check.Attach(sys.Env, rec, check.Config{
				Kernel: sys.Kernel, RS: sys.RS, DS: sys.DS,
			})
			sys.Run(3 * time.Second)
			sys.ServeFile(80, seed, 4<<20)
			var w WgetResult
			sys.Wget(DriverRTL8139, 80, seed, 4<<20, &w)

			injector := fi.New(sys.Env.Rand())
			injected, stall := 0, 0
			for injected < 8 && stall < 400 {
				sys.Run(50 * time.Millisecond)
				stall++
				vm := sys.DriverVM(DriverRTL8139)
				if vm == nil || sys.RS.ServiceEndpoint(DriverRTL8139) < 0 {
					continue // down or restarting: nothing to mutate
				}
				injector.InjectRandom(vm.Img)
				injected++
				stall = 0
			}
			sys.Run(10 * time.Second) // let the last crash resolve
			ck.Finish()
			for _, v := range ck.Violations() {
				t.Errorf("invariant violation: %v", v)
			}
			if injected == 0 {
				t.Error("no faults injected — sweep cell never exercised recovery")
			}
		})
	}
}

// TestSalvageAcrossDriverUpdate exercises the crash-consistent salvage
// handshake end to end on the standard machine: a dynamic update of the
// NIC driver mid-transfer must flush a state capsule on the SIGTERM-able
// shutdown and the successor must validate and adopt it — and the
// transfer must still complete intact.
func TestSalvageAcrossDriverUpdate(t *testing.T) {
	sink := &obs.SliceSink{}
	rec := obs.NewRecorder(sink)
	rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
	sys := New(Config{
		Seed:        5,
		DisableDisk: true,
		DisableChar: true,
		Obs:         rec,
		Salvage:     true,
	})
	sys.Run(3 * time.Second)
	sys.ServeFile(80, 5, 4<<20)
	var w WgetResult
	sys.Wget(DriverRTL8139, 80, 5, 4<<20, &w)
	sys.After(300*time.Millisecond, func() {
		sys.UpdateDriver(core.ServiceConfig{Label: DriverRTL8139, Version: "v2"})
	})
	sys.Run(2 * time.Minute)
	if w.Err != nil || !w.OK {
		t.Fatalf("transfer across salvaging update failed: ok=%v err=%v", w.OK, w.Err)
	}

	saves, adopts, rejects := 0, 0, 0
	var savedVer, adoptedVer int64
	for _, e := range sink.Events() {
		if e.Comp != DriverRTL8139 {
			continue
		}
		switch e.Kind {
		case obs.KindCapsuleSave:
			saves++
			savedVer = e.V1
		case obs.KindCapsuleAdopt:
			if e.V2 != 0 {
				rejects++
				continue
			}
			adopts++
			adoptedVer = e.V1
		}
	}
	if saves == 0 || adopts == 0 {
		t.Fatalf("salvage handshake incomplete: %d saves, %d adopts, %d rejects",
			saves, adopts, rejects)
	}
	if rejects != 0 {
		t.Errorf("%d capsules rejected during a clean update", rejects)
	}
	if adoptedVer != savedVer {
		t.Errorf("successor adopted capsule v%d, predecessor saved v%d", adoptedVer, savedVer)
	}
}
