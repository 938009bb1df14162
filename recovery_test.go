package resilientos

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"resilientos/internal/check"
	"resilientos/internal/core"
	"resilientos/internal/fi"
	"resilientos/internal/obs"
)

// mechanismRuns runs the committed-golden recovery-mechanism comparison:
// the respawn baseline, then the same Fig. 7 run under each alternative
// mechanism, crashes injected into the driver's VM — what `cmd/figures
// -seed 11 -size 32 -interval 1 -override mech=microreboot -override
// mech=standby` runs, pinned byte-for-byte in testdata.
func mechanismRuns(t *testing.T) map[string]FigureResult {
	mechs := []string{"respawn", "microreboot", "standby"}
	runs := make([]FigureConfig, len(mechs))
	for i, mech := range mechs {
		runs[i] = FigureConfig{Fig: 7, Size: 32 << 20, Interval: time.Second, CrashVM: true}
		var err error
		if runs[i].System, err = (Config{Seed: 11}).Override("mech=" + mech); err != nil {
			t.Fatal(err)
		}
	}
	results := map[string]FigureResult{}
	for i, res := range RunFigures(runs) {
		results[mechs[i]] = res
	}
	return results
}

// TestRecoveryMechanismGoldens pins the seed-11 per-mechanism Fig. 7
// curves against committed goldens and asserts the headline claims: a
// warm standby's dip is measurably shallower than a respawn's, and a
// microreboot's dip is narrower. Regenerate with:
// go test -run RecoveryMechanismGoldens -update
func TestRecoveryMechanismGoldens(t *testing.T) {
	results := mechanismRuns(t)
	for mech, res := range results {
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
	respawnDepth, respawnWidth := results["respawn"].MeanDip()
	if s, _ := results["standby"].MeanDip(); s >= respawnDepth {
		t.Errorf("standby dip depth %.1f%% not shallower than respawn's %.1f%%", s, respawnDepth)
	}
	if _, m := results["microreboot"].MeanDip(); m >= respawnWidth {
		t.Errorf("microreboot dip width %.1fms not narrower than respawn's %.1fms", m, respawnWidth)
	}
}

// TestRecoveryMechanismRunToRun reruns the whole comparison from scratch
// in the same process and demands byte-identical curves — the
// reproducibility property the committed goldens rely on.
func TestRecoveryMechanismRunToRun(t *testing.T) {
	encode := func() map[string][]byte {
		curves := map[string][]byte{}
		for mech, res := range mechanismRuns(t) {
			var buf bytes.Buffer
			if err := WriteFigureCSV(&buf, res); err != nil {
				t.Fatal(err)
			}
			curves[mech] = buf.Bytes()
		}
		return curves
	}
	curvesA, curvesB := encode(), encode()
	for mech := range curvesA {
		if !bytes.Equal(curvesA[mech], curvesB[mech]) {
			t.Errorf("%s curve not reproducible across runs: %d vs %d bytes",
				mech, len(curvesA[mech]), len(curvesB[mech]))
		}
	}
}

// TestFigureRecoveryMatchesTimeline: a figure run stitches its recovery
// spans as events arrive and keeps no trace, and its summary equals the
// one obs.Timeline makes of the whole trace captured beside it, under
// each mechanism (crashes injected into the VM beyond respawn), on both
// figures' drivers. An in-place reset publishes no restart, so a
// microreboot closes no span and both summaries are empty there (ROADMAP
// item 4); RS still completes its recoveries.
func TestFigureRecoveryMatchesTimeline(t *testing.T) {
	for _, fig := range []struct {
		n        int
		size     int64
		interval time.Duration
	}{{7, 8 << 20, 500 * time.Millisecond}, {8, 64 << 20, time.Second}} {
		for _, mech := range []string{"respawn", "microreboot", "standby"} {
			t.Run(fmt.Sprintf("fig%d/%s", fig.n, mech), func(t *testing.T) {
				trace := &obs.SliceSink{}
				cfg := FigureConfig{Fig: fig.n, Size: fig.size, Interval: fig.interval, Trace: trace, CrashVM: mech != "respawn"}
				var err error
				if cfg.System, err = (Config{Seed: 3}).Override("mech=" + mech); err != nil {
					t.Fatal(err)
				}
				res := RunFigure(cfg)
				if !res.OK || res.Recoveries == 0 || res.Recovery.Count == 0 && mech != "microreboot" {
					t.Fatalf("ok=%v kills=%d recoveries=%d spans=%d: not the run this test needs",
						res.OK, res.Kills, res.Recoveries, res.Recovery.Count)
				}
				want := obs.Summarize(obs.RecoveryLatencies(obs.Timeline(trace.Events()), res.Driver))
				if res.Recovery != want {
					t.Errorf("recovery %+v, from the captured trace %+v", res.Recovery, want)
				}
			})
		}
	}
}

// TestFailoverInvariantsSWIFI is the property test for the new failover
// invariants: across a 64-seed SWIFI sweep against the network driver —
// half the seeds under warm-standby failover, half under microreboot —
// the checker must never observe a live standby serving requests or two
// owners of one endpoint, no matter where the corruption lands.
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

// TestRAMDiskAndCharUpdate: a dynamic update shuts down and replaces a
// block driver without hardware (disk.ram) and a character driver alike.
func TestRAMDiskAndCharUpdate(t *testing.T) {
	sys := New(Config{DisableNet: true})
	defer sys.Close()
	sys.Run(time.Second)
	for _, label := range []string{DriverRAMDisk, DriverAudio} {
		sys.UpdateDriver(core.ServiceConfig{Label: label, Version: "v2"})
	}
	sys.Run(5 * time.Second)

	updated := map[string]bool{}
	for _, e := range sys.RS.Events() {
		if e.Defect == core.DefectUpdate && e.Recovered {
			updated[e.Label] = true
		}
	}
	if !updated[DriverRAMDisk] || !updated[DriverAudio] {
		t.Errorf("updates completed: %v, want disk.ram and chr.audio", updated)
	}
}
