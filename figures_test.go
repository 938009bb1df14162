package resilientos

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"resilientos/internal/bench"
	"resilientos/internal/obs"
	"resilientos/internal/obs/export"
	"resilientos/internal/obs/profile"
)

// figureGoldenConfig is the committed-golden configuration — the same
// shape `cmd/figures -seed 11` runs, pinned byte-for-byte in testdata.
func figureGoldenConfig(fig int) FigureConfig {
	return FigureConfig{Fig: fig, System: Config{Seed: 11}, Interval: 2 * time.Second}
}

// TestFigureGoldens pins the Fig. 7/8 throughput-curve CSVs for seed 11
// against the committed goldens and asserts the paper's qualitative
// shape: every kill produces a visible dip, and the curve recovers to at
// least 90% of the pre-kill baseline. Regenerate with:
// go test -run FigureGoldens -update
func TestFigureGoldens(t *testing.T) {
	for _, fig := range []int{7, 8} {
		fig := fig
		t.Run(fmt.Sprintf("fig%d", fig), func(t *testing.T) {
			t.Parallel()
			res := RunFigure(figureGoldenConfig(fig))
			if res.Violation != nil {
				t.Fatalf("window series invariant violated: %v", res.Violation)
			}
			if !res.OK {
				t.Fatalf("transfer failed integrity check: %d of %d bytes", res.Bytes, res.Size)
			}
			if res.Kills < 2 {
				t.Fatalf("only %d kills — run too short to show dips", res.Kills)
			}
			if len(res.Dips) != res.Kills {
				t.Fatalf("%d dips for %d kills", len(res.Dips), res.Kills)
			}
			for i, d := range res.Dips {
				if d.DepthPct <= 5 {
					t.Errorf("dip %d: depth %.1f%% — kill at %v left no visible dip", i, d.DepthPct, d.Kill)
				}
				if !d.Truncated && d.RecoveredPct < 90 {
					t.Errorf("dip %d: recovered to %.1f%% of baseline, want >= 90%%", i, d.RecoveredPct)
				}
			}
			if res.RecoveredPct < 90 {
				t.Errorf("recovered throughput %.1f%% of baseline, want >= 90%%", res.RecoveredPct)
			}

			var got bytes.Buffer
			if err := WriteFigureCSV(&got, res); err != nil {
				t.Fatal(err)
			}
			golden := fmt.Sprintf("testdata/fig%d_seed11.csv", fig)
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
				t.Fatalf("curve differs from %s (%d vs %d bytes); "+
					"if the change is intentional, regenerate with -update",
					golden, got.Len(), len(want))
			}

			// The JSON and SVG encoders must be deterministic functions of
			// the result (no map iteration, no wall clock).
			var j1, j2, s1, s2 bytes.Buffer
			if err := WriteFigureJSON(&j1, res); err != nil {
				t.Fatal(err)
			}
			if err := WriteFigureJSON(&j2, res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
				t.Error("JSON encoding not deterministic")
			}
			if err := WriteFigureSVG(&s1, res); err != nil {
				t.Fatal(err)
			}
			if err := WriteFigureSVG(&s2, res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
				t.Error("SVG encoding not deterministic")
			}
			if !strings.HasPrefix(s1.String(), "<svg ") || !strings.HasSuffix(s1.String(), "</svg>\n") {
				t.Error("SVG render not self-contained")
			}

			// The summary `figures -seed 11 -bench` writes as BENCH_fig<N>.json.
			checkBenchGolden(t, fmt.Sprintf("testdata/BENCH_fig%d_seed11.json", fig), res.BenchDoc())
		})
	}
}

// checkBenchGolden compares doc, canonically encoded, with the committed
// golden byte for byte (-update rewrites the golden first) and names the
// lines that differ.
func checkBenchGolden(t *testing.T, golden string, doc bench.Doc) {
	t.Helper()
	if *updateGolden {
		if err := bench.WriteFile(golden, doc); err != nil {
			t.Fatal(err)
		}
	}
	tmp := filepath.Join(t.TempDir(), "doc.json")
	if err := bench.WriteFile(tmp, doc); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var diff strings.Builder
	for _, side := range []struct {
		mark         string
		these, other []byte
	}{{"-", want, got}, {"+", got, want}} {
		for _, ln := range strings.Split(string(side.these), "\n") {
			if !bytes.Contains(side.other, []byte(ln+"\n")) {
				fmt.Fprintf(&diff, "%s %s\n", side.mark, ln)
			}
		}
	}
	t.Errorf("bench document differs from %s; if the change is intentional, regenerate "+
		"with -update and say why in the PR:\n%s", golden, diff.String())
}

// TestRunnersCloseTheirSystems: the figure runner boots a system per
// call (a sweep one per point) and must close it once the results are
// harvested, or each leaves its parked processes
// behind as goroutines.
func TestRunnersCloseTheirSystems(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		RunFigure(FigureConfig{Fig: 7, System: Config{Seed: 3}, Size: 1 << 20})
	}
	RunFigure(FigureConfig{Fig: 8, System: Config{Seed: 3}, Size: 4 << 20})
	Sweep(FigureConfig{Fig: 7, System: Config{Seed: 3}, Size: 1 << 20}, []time.Duration{time.Second, 2 * time.Second})
	Sweep(FigureConfig{Fig: 8, System: Config{Seed: 3}, Size: 4 << 20}, []time.Duration{time.Second})
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the runners, %d after", before, after)
	}
}

// TestBenchGolden runs CI's trace-artifacts sweep (Fig. 8, 64 MB, kills
// every 1 s and 4 s, seed 1) and byte-compares the bench document with
// the committed golden — the file `throughput -bench-json` wrote before
// the sweep became a loop over RunFigure, bytes unchanged.
func TestBenchGolden(t *testing.T) {
	points := Sweep(FigureConfig{Fig: 8, Size: 64 << 20}, []time.Duration{time.Second, 4 * time.Second})
	checkBenchGolden(t, "testdata/BENCH_throughput_fig8.json", SweepBenchDoc(points))
}

// TestSweepPinned pins sweep rows to the values the deleted point runners
// (experiments.go, deleted in PR 19) returned for them, read off the
// last commit that had them: a drift in the sweep is a diff here.
func TestSweepPinned(t *testing.T) {
	type row struct {
		interval, duration time.Duration
		kills, recoveries  int
		p95                time.Duration
	}
	for _, tc := range []struct {
		fig  int
		size int64
		rows []row
	}{
		{7, 16 << 20, []row{
			{0, 1546346896, 0, 0, 0},
			{time.Second, 1846548715, 1, 1, 120 * time.Millisecond},
			{2 * time.Second, 1546346896, 0, 0, 0},
		}},
		{8, 64 << 20, []row{
			{0, 2051450000, 0, 0, 0},
			{time.Second, 3905600000, 3, 3, 600 * time.Millisecond},
			{2 * time.Second, 2669500000, 1, 1, 600 * time.Millisecond},
		}},
	} {
		tc := tc
		t.Run(fmt.Sprintf("fig%d", tc.fig), func(t *testing.T) {
			t.Parallel()
			cfg := FigureConfig{Fig: tc.fig, Size: tc.size, System: Config{Seed: 11}}
			points := Sweep(cfg, []time.Duration{time.Second, 2 * time.Second})
			for i, p := range points {
				if !p.OK || p.Violation != nil {
					t.Errorf("kill every %v: ok=%v violation=%v", p.Interval, p.OK, p.Violation)
				}
				got := row{p.Interval, p.Duration, p.Kills, p.Recoveries, p.Recovery.P95}
				if got != tc.rows[i] {
					t.Errorf("point %d: got %+v, want %+v", i, got, tc.rows[i])
				}
			}
		})
	}
}

// TestSweepTrace captures a two-interval sweep into one sink: each run's
// stream is one mark-delimited segment that resolves its span IDs on its
// own, the profiler and the exporter digest the whole capture, and every
// run's stream ends with its transfer, not a worst-case horizon later.
func TestSweepTrace(t *testing.T) {
	sink := &obs.SliceSink{}
	cfg := FigureConfig{Fig: 8, Size: 64 << 20, Trace: sink}
	points := Sweep(cfg, []time.Duration{time.Second, 2 * time.Second})
	segs := obs.Segments(sink.Events())
	if len(segs) != len(points) {
		t.Fatalf("%d mark-delimited segments for %d runs", len(segs), len(points))
	}
	terminated := 0
	for i, seg := range segs {
		if !points[i].OK {
			t.Errorf("run %d: transfer failed", i)
		}
		if seg[0].Kind != obs.KindMark {
			t.Errorf("run %d: stream opens with %v, want a mark", i, seg[0].Kind)
		}
		for _, problem := range obs.BuildForest(seg).Check() {
			t.Errorf("run %d: %s", i, problem)
		}
		terminated += profile.Build(seg).Spans
		var resolved time.Duration
		for _, e := range seg {
			if e.Kind == obs.KindProcExit && e.Comp == "dd" {
				resolved = e.T
			}
		}
		if last := seg[len(seg)-1].T; resolved == 0 || last > resolved+100*time.Millisecond {
			t.Errorf("run %d: last event at %v, transfer resolved at %v", i, last, resolved)
		}
	}
	if prof := profile.Build(sink.Events()); prof.Spans != terminated || terminated == 0 {
		t.Errorf("profile of the capture: %d terminated spans, %d summed over runs", prof.Spans, terminated)
	}
	if err := export.Export(io.Discard, sink.Events()); err != nil {
		t.Errorf("export: %v", err)
	}
}

// TestFigureUninterrupted checks the no-kill path: no dips, recovered
// ratio reported as 100%, and a flat curve at the baseline.
func TestFigureUninterrupted(t *testing.T) {
	res := RunFigure(FigureConfig{Fig: 7, System: Config{Seed: 3}, Size: 8 << 20, Interval: 0})
	if res.Violation != nil {
		t.Fatalf("window series invariant violated: %v", res.Violation)
	}
	if !res.OK || res.Kills != 0 || len(res.Dips) != 0 {
		t.Fatalf("uninterrupted run: ok=%v kills=%d dips=%d", res.OK, res.Kills, len(res.Dips))
	}
	if res.RecoveredPct != 100 {
		t.Errorf("recovered pct %.1f, want 100 with no dips", res.RecoveredPct)
	}
	if res.BaselineMBps <= 0 {
		t.Errorf("baseline %.2f MB/s", res.BaselineMBps)
	}
}
