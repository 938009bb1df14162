package campaign

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"resilientos"
	"resilientos/internal/core"
	"resilientos/internal/fi"
	"resilientos/internal/obs/decision"
)

func TestSeq(t *testing.T) {
	s := Seq(3)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("Seq(3) = %v", s)
	}
}

func TestCellsCanonicalOrder(t *testing.T) {
	cfg := Config{
		Seeds:      []int64{1, 2},
		Victims:    []string{"a", "b"},
		FaultTypes: []fi.FaultType{fi.FaultBitFlip, fi.FaultElide},
	}
	cells := Cells(cfg)
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Seed-major, then victim, then fault type; Index matches position.
	want := []Cell{
		{0, 1, "a", fi.FaultBitFlip}, {1, 1, "a", fi.FaultElide},
		{2, 1, "b", fi.FaultBitFlip}, {3, 1, "b", fi.FaultElide},
		{4, 2, "a", fi.FaultBitFlip}, {5, 2, "a", fi.FaultElide},
		{6, 2, "b", fi.FaultBitFlip}, {7, 2, "b", fi.FaultElide},
	}
	for i, c := range cells {
		if c != want[i] {
			t.Fatalf("cell %d = %+v, want %+v", i, c, want[i])
		}
	}
}

// testConfig is a small but real matrix: two seeds, one network victim,
// two fault types, three faults per cell.
func testConfig(workers int) Config {
	return Config{
		Seeds:         []int64{1, 2},
		Victims:       []string{resilientos.DriverDP8390},
		FaultTypes:    []fi.FaultType{fi.FaultBitFlip, fi.FaultPointer},
		FaultsPerCell: 3,
		Workers:       workers,
		Invariants:    true,
	}
}

// TestWorkersByteIdentical is the campaign's core determinism contract:
// the rendered report of a sharded run must be byte-identical no matter
// how many workers of the shared pool (sim.Each) executed it, and every
// cell reports its completion once.
func TestWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell campaign in -short mode")
	}
	var seq bytes.Buffer
	Run(testConfig(1)).Render(&seq)
	for _, workers := range []int{2, 8} {
		cfg := testConfig(workers)
		var calls []int
		cfg.Progress = func(done, total int) { calls = append(calls, done) } // serialized by Run
		var par bytes.Buffer
		Run(cfg).Render(&par)
		if !bytes.Equal(seq.Bytes(), par.Bytes()) {
			t.Fatalf("workers=1 and workers=%d reports differ:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, seq.String(), workers, par.String())
		}
		if fmt.Sprint(calls) != "[1 2 3 4]" {
			t.Errorf("workers=%d: progress reported %v, want one call per cell, counting up", workers, calls)
		}
	}
}

// TestCampaignHoldsInvariants runs a real injection campaign with the
// live checker attached to every scheduler step of every cell: the
// recovery architecture must hold every invariant while being shot at.
func TestCampaignHoldsInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := Config{
		Seeds:         []int64{7},
		Victims:       []string{resilientos.DriverDP8390},
		FaultTypes:    []fi.FaultType{fi.FaultBitFlip},
		FaultsPerCell: 5,
		Workers:       2,
		Invariants:    true,
	}
	rep := Run(cfg)
	if !rep.Ok() {
		var b bytes.Buffer
		rep.Render(&b)
		t.Fatalf("campaign surfaced invariant violations:\n%s", b.String())
	}
	if rep.Injected == 0 {
		t.Fatal("campaign injected nothing")
	}
}

func TestRenderLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := Config{
		Seeds:         []int64{3},
		Victims:       []string{resilientos.DriverDP8390},
		FaultTypes:    []fi.FaultType{fi.FaultElide},
		FaultsPerCell: 3,
		Invariants:    true,
	}
	var b bytes.Buffer
	Run(cfg).Render(&b)
	out := b.String()
	for _, want := range []string{
		"SWIFI campaign:", "fault type", "injected", "recovered",
		"recovery latency, elided-instruction:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestProgressSerialized(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := testConfig(4)
	cfg.Invariants = false
	var calls []int
	cfg.Progress = func(done, total int) {
		calls = append(calls, done)
		if total != 4 {
			t.Errorf("total = %d, want 4", total)
		}
	}
	Run(cfg)
	if len(calls) != 4 || calls[len(calls)-1] != 4 {
		t.Fatalf("progress calls = %v", calls)
	}
}

// TestDecisionLogWorkerIndependent extends the determinism contract to
// the merged decision trace: the encoded log (including cell-boundary
// marks) must be byte-identical for any worker count, well-formed under
// the offline verifier, and carry a sane availability figure.
func TestDecisionLogWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell campaign in -short mode")
	}
	cfg := testConfig(1)
	cfg.Decisions = true
	seq := Run(cfg)
	cfg = testConfig(8)
	cfg.Decisions = true
	par := Run(cfg)

	a, b := decision.Encode(seq.DecisionLog), decision.Encode(par.DecisionLog)
	if !bytes.Equal(a, b) {
		t.Fatalf("workers=1 and workers=8 decision logs differ (%d vs %d bytes)", len(a), len(b))
	}
	if len(seq.DecisionLog) == 0 {
		t.Fatal("campaign with Decisions produced an empty log")
	}
	if problems := decision.Check(seq.DecisionLog); len(problems) != 0 {
		t.Fatalf("merged decision log ill-formed: %v", problems)
	}
	// Cell-boundary marks: one per cell, in canonical order.
	var marks []string
	for _, e := range seq.DecisionLog {
		if e.Kind == decision.KindMark {
			marks = append(marks, e.Detail)
		}
	}
	cells := Cells(cfg)
	if len(marks) != len(cells) {
		t.Fatalf("got %d cell marks, want %d", len(marks), len(cells))
	}
	for i, c := range cells {
		if marks[i] != c.String() {
			t.Fatalf("mark %d = %q, want %q", i, marks[i], c.String())
		}
	}
	if seq.Horizon <= 0 {
		t.Fatal("no measurement horizon")
	}
	av := seq.Availability()
	if av <= 0 || av > 100 {
		t.Fatalf("availability = %v", av)
	}
	// Direct restarts complete in the same virtual instant as detection,
	// so downtime can be zero even with crashes; it must never be
	// negative or exceed the horizon.
	if seq.Downtime < 0 || seq.Downtime > seq.Horizon {
		t.Fatalf("downtime %v outside [0, %v]", seq.Downtime, seq.Horizon)
	}
}

// TestCampaignKnobsChangeBehavior: the counterfactual knobs must be
// plumbed through to the per-cell system — a capped restart budget shows
// up as give-ups in the report and in the decision trace.
func TestCampaignKnobsChangeBehavior(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := Config{
		Seeds:         []int64{7},
		Victims:       []string{resilientos.DriverDP8390},
		FaultTypes:    []fi.FaultType{fi.FaultRandom},
		FaultsPerCell: 300,
		System:        resilientos.Config{MaxRestarts: 1},
		Decisions:     true,
	}
	rep := Run(cfg)
	if rep.Crashes < 2 {
		t.Fatalf("seed produced only %d crashes; cannot exercise budget", rep.Crashes)
	}
	if rep.GaveUp == 0 {
		t.Fatal("MaxRestarts=1 produced no give-ups")
	}
	gaveUp := 0
	for _, e := range rep.DecisionLog {
		if e.Kind == decision.KindOutcome && e.Action == "gave-up" {
			gaveUp++
		}
	}
	if gaveUp != rep.GaveUp {
		t.Fatalf("decision trace has %d gave-up outcomes, report says %d", gaveUp, rep.GaveUp)
	}
}

// paperCell runs the paper's own §7.2 experiment — randomly drawn faults
// into one running DP8390 driver — as the one-cell matrix it is.
func paperCell(t testing.TB, spec string) *Report {
	t.Helper()
	cfg, err := ParseSpec("victims=eth.dp8390,faults=random," + spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Invariants = true
	rep := Run(cfg)
	if !rep.Ok() {
		var b bytes.Buffer
		rep.Render(&b)
		t.Fatalf("%s: invariant violations:\n%s", spec, b.String())
	}
	return rep
}

// TestPaperCampaignNumbers pins the equivalence that let the separate
// single-system §7.2 runner be deleted: the one-cell faults=random matrix
// reproduces its table digit for digit — crashes by defect class, all
// recovered, and behind the hardware gate the paper's handful of BIOS
// resets. (Seed 1 at 12,500 is EXPERIMENTS.md's measured column.)
func TestPaperCampaignNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size campaign in -short mode")
	}
	for _, tc := range []struct {
		spec                              string
		crashes, exit, exc, hbeat, resets int
	}{
		{"seed=1,per-cell=2500", 40, 22, 17, 1, 0},
		{"seed=1,per-cell=12500", 203, 104, 82, 17, 0},
		{"seed=5,per-cell=12500,hw=on", 268, 148, 108, 12, 2},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			t.Parallel()
			rep := paperCell(t, tc.spec)
			c := rep.Cells[0]
			got := []int{rep.Injected, c.Crashes, c.ByDefect[core.DefectExit],
				c.ByDefect[core.DefectException], c.ByDefect[core.DefectHeartbeat],
				rep.Recovered, rep.GaveUp, rep.BIOSResets}
			want := []int{rep.Config.FaultsPerCell, tc.crashes, tc.exit, tc.exc, tc.hbeat, tc.crashes, 0, tc.resets}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("injected/crashes/exit/exc/hbeat/recovered/gaveup/resets = %v, want %v", got, want)
			}
			// Every crash is attributed to the class of the fault before it.
			sum := 0
			for _, n := range rep.ByTrigger {
				sum += n
			}
			if sum != tc.crashes {
				t.Errorf("crash-triggering classes sum to %d, want %d", sum, tc.crashes)
			}
		})
	}
}

// TestRandomCellStopsOnExhaustedImage: for three of the first twelve
// seeds the driver goes so long between crashes that every instruction of
// its image has been mutated into a NOP before 12,500 faults are in. The
// cell must stop there and report the shortfall — the single-system
// runner this replaced resampled forever.
func TestRandomCellStopsOnExhaustedImage(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size campaign in -short mode")
	}
	for seed, injected := range map[int64]int{2: 10768, 7: 2964, 9: 2108} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Parallel()
			rep := paperCell(t, fmt.Sprintf("seed=%d,per-cell=12500", seed))
			if rep.Injected != injected {
				t.Errorf("injected %d faults, want the cell to stop at %d", rep.Injected, injected)
			}
			if rep.Recovered != rep.Crashes || rep.GaveUp != 0 {
				t.Errorf("%d crashes, %d recovered, %d gave up", rep.Crashes, rep.Recovered, rep.GaveUp)
			}
		})
	}
}

// TestRunClosesItsSystems: a campaign boots one system per cell and must
// close each once harvested, or every parked process stays a goroutine.
func TestRunClosesItsSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := Config{ // two cells that end early: the budget runs out
		Seeds:         []int64{1, 7},
		Victims:       []string{resilientos.DriverDP8390},
		FaultTypes:    []fi.FaultType{fi.FaultRandom},
		FaultsPerCell: 300,
		Workers:       2,
		System:        resilientos.Config{MaxRestarts: 1},
	}
	before := runtime.NumGoroutine()
	Run(cfg)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the campaigns, %d after", before, after)
	}
}

// BenchmarkTable_FaultInjection regenerates the §7.2 campaign numbers
// (paper: 12,500 faults, 347 crashes — 65% panic / 31% exception / 4%
// heartbeat — and 100% recovery).
func BenchmarkTable_FaultInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := paperCell(b, "seed=1,per-cell=2500")
		var table bytes.Buffer
		rep.Render(&table)
		b.Logf("\n%s", table.String())
		if rep.Crashes == 0 {
			b.Fatal("campaign produced no crashes")
		}
		byDefect := rep.Cells[0].ByDefect
		b.ReportMetric(float64(rep.Crashes), "crashes")
		b.ReportMetric(100*float64(rep.Recovered)/float64(rep.Crashes), "recovered_%")
		b.ReportMetric(100*float64(byDefect[core.DefectExit])/float64(rep.Crashes), "panic_%")
		b.ReportMetric(100*float64(byDefect[core.DefectException])/float64(rep.Crashes), "exception_%")
		b.ReportMetric(100*float64(byDefect[core.DefectHeartbeat])/float64(rep.Crashes), "heartbeat_%")
	}
}

// BenchmarkTable_FaultInjectionHardware regenerates the §7.2 real-hardware
// variant: a confusable NIC without a master-reset command occasionally
// needs a host-level BIOS reset (paper: >99% recovery, <5 BIOS resets).
func BenchmarkTable_FaultInjectionHardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := paperCell(b, "seed=1,per-cell=2500,hw=on")
		var table bytes.Buffer
		rep.Render(&table)
		b.Logf("\n%s", table.String())
		b.ReportMetric(float64(rep.BIOSResets), "bios_resets")
		if rep.Crashes > 0 {
			b.ReportMetric(100*float64(rep.Recovered)/float64(rep.Crashes), "recovered_%")
		}
	}
}
