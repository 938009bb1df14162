package campaign

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"resilientos"
	"resilientos/internal/fi"
	"resilientos/internal/obs"
	"resilientos/internal/ucode"
)

// TestPoisonCampaignCells runs one SWIFI cell per victim under each
// recovery mechanism, invariants on, twice: as is, and with every buffer
// the free list takes back overwritten. Mutated drivers die holding
// frames and replies; none of those may ever be read again, so the two
// reports must agree byte for byte.
func TestPoisonCampaignCells(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	for _, mech := range resilientos.RecoveryMechanisms {
		cfg := Config{
			Seeds:         []int64{1},
			FaultTypes:    []fi.FaultType{fi.FaultRandom},
			FaultsPerCell: 8,
			Invariants:    true,
			Decisions:     true,
			System:        resilientos.Config{Mechanism: mech},
		}
		var clean bytes.Buffer
		rep := Run(cfg)
		rep.Render(&clean)
		if !rep.Ok() || rep.Crashes == 0 {
			t.Fatalf("%s: ok=%v crashes=%d: not the run this test needs\n%s", mech, rep.Ok(), rep.Crashes, clean.String())
		}
		t.Run(mech.String(), func(t *testing.T) {
			poison(t)
			var poisoned bytes.Buffer
			Run(cfg).Render(&poisoned)
			if !bytes.Equal(clean.Bytes(), poisoned.Bytes()) {
				t.Errorf("reports differ:\n--- unpoisoned ---\n%s\n--- poisoned ---\n%s", clean.String(), poisoned.String())
			}
		})
	}
}

// TestCellHeapBounded: the benchmark's long cell (eth.rtl8139, dst-reg,
// seed 1: ten faults, none of which wedges the download) emits 1.3 M
// events and must not hold them. The heap in use, sampled after every
// injection, stays under 32 MB — and the cell reports exactly what it
// reports when its slice keeps every kind, as it did when the timeline
// was stitched from the whole trace.
func TestCellHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := Config{FaultsPerCell: 10, Invariants: true, Decisions: true}
	cfg.fill()
	cell := Cell{Seed: 1, Victim: resilientos.DriverRTL8139, Fault: fi.FaultDstReg}

	runtime.GC() // what earlier tests left behind is not this cell's
	var peak uint64
	samples := 0
	got := runCellKeeping(cell, cfg, obs.TimelineKinds, func(*ucode.VM, fi.Injection) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		peak = max(peak, m.HeapInuse)
		samples++
	})
	if samples != cfg.FaultsPerCell || got.Injected != samples {
		t.Fatalf("%d samples for %d injections of %d", samples, got.Injected, cfg.FaultsPerCell)
	}
	t.Logf("heap in use peaked at %.1f MB over %d samples", float64(peak)/(1<<20), samples)
	if peak > 32<<20 {
		t.Errorf("heap in use peaked at %d MB, want at most 32", peak>>20)
	}

	want := runCellKeeping(cell, cfg, obs.Kinds(), nil)
	if len(want.Latencies) == 0 {
		t.Fatal("the reference cell recovered nothing: not the run this test needs")
	}
	if !reflect.DeepEqual(got.Latencies, want.Latencies) {
		t.Errorf("latencies %v, from the whole trace %v", got.Latencies, want.Latencies)
	}
	if !reflect.DeepEqual(got.Decisions, want.Decisions) {
		t.Errorf("decision traces differ: %d events, from the whole trace %d", len(got.Decisions), len(want.Decisions))
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Errorf("violations %v, from the whole trace %v", got.Violations, want.Violations)
	}
}
