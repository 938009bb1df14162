package resilientos

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"resilientos/internal/bench"
	"resilientos/internal/core"
	"resilientos/internal/obs"
	"resilientos/internal/obs/timeseries"
)

// The figure pipeline renders the paper's Figs. 7 and 8 as *data*: one
// run of the Fig. 7 TCP transfer (or Fig. 8 disk read) under periodic
// driver kills, sampled by the windowed telemetry layer
// (internal/obs/timeseries) into a per-second throughput curve with the
// kills, restarts, and recovery dips resolved — the envelope the paper
// plots. RunFigure is the one §7.1 run; RunFigures runs a list of them, a
// baseline and its variants (the paper's x-axis of kill intervals, or
// other recovery knobs), and FiguresBenchDoc summarizes the list. For a
// fixed seed every byte of the CSV/SVG output is reproducible, so the
// curves and their bench documents (internal/bench) are committed as
// golden files.

// FigureConfig configures one figure run. The zero value (plus Fig)
// gives the standard quick-run shape: fig7 = 64 MB transfer, fig8 =
// 128 MB read, a kill every 2 s, 1 s windows, seed 1.
type FigureConfig struct {
	Fig      int           // 7 (network) or 8 (disk)
	Size     int64         // transfer size in bytes
	Interval time.Duration // kill interval (0 = uninterrupted)
	Window   time.Duration // sampler window width

	// CrashVM, if set, injects failures by corrupting the driver's live
	// ucode VM (CrashDriverVM) instead of SIGKILL. An external kill can
	// only ever be answered by respawn or promotion; a VM-level defect is
	// also interceptable by microreboot, so mechanism comparisons use it.
	CrashVM bool

	// System is the configuration the run boots: the seed, the recovery
	// knobs (heartbeat, restart budget, policy script, mechanism) and the
	// decision recorder (the golden seed-11 decision log is recorded
	// through it; figure runs disable span kinds, so its events carry no
	// trace/span linkage). The zero value is the standard system. A
	// figure overwrites only what a figure owns: Obs, the three Disable*
	// switches, PreallocFiles, and Machine.DiskSeed when zero.
	System Config

	// Trace, if set, receives every run's full structured trace — every
	// event kind on, per-frame IPC included — each run's stream opening
	// with a mark before boot and ending with the transfer. Full traces
	// of the paper's 512 MB transfer are large; use a reduced size.
	Trace obs.Sink
}

// FigurePoint is one window of the throughput curve. T is the window's
// start relative to the transfer's start; the final window may be
// narrower than the configured width.
type FigurePoint struct {
	T        time.Duration
	Width    time.Duration
	Bytes    int64
	MBps     float64
	IPC      int64 // kernel IPC sends in the window
	Kills    int
	Defects  int
	Restarts int
}

// FigureDip is the throughput dip around one driver kill: how deep the
// curve fell against the pre-kill baseline, how long it stayed below 90%
// of it, and what rate the post-recovery windows sustained. Truncated
// dips (transfer or next kill arrived before recovery was visible) are
// excluded from the recovered-throughput ratio.
type FigureDip struct {
	Kill          time.Duration // relative to transfer start
	DepthPct      float64
	Width         time.Duration
	RecoveredMBps float64
	RecoveredPct  float64
	Truncated     bool
}

// FigureResult is one figure run with its curve, dip analysis, and the
// raw window series.
type FigureResult struct {
	Fig      int
	Seed     int64
	Size     int64
	Interval time.Duration
	Window   time.Duration
	Driver   string

	Bytes      int64
	Duration   time.Duration // 0 if the transfer never resolved
	MBps       float64
	Kills      int
	Recoveries int    // recoveries the reincarnation server completed
	Digest     string // hex MD5 (fig 7) / SHA-1 (fig 8) of the bytes received
	OK         bool   // complete and matched the integrity check

	// BaselineMBps is the mean windowed throughput before the first kill;
	// RecoveredPct the mean post-recovery rate across dips, as % of it.
	BaselineMBps float64
	MeanMBps     float64
	MinMBps      float64
	RecoveredPct float64

	Points   []FigurePoint
	Dips     []FigureDip
	Segments []timeseries.Segment // full raw series (boot + transfer)
	Recovery obs.LatencySummary

	// Violation is non-nil if the sampler's window series failed its own
	// structural invariants — never in a correct build.
	Violation error
}

// RunFigure executes one figure run: boot, settle, mark, transfer under
// periodic kills, windowed sampling, dip analysis.
func RunFigure(cfg FigureConfig) FigureResult {
	if cfg.Fig == 0 {
		cfg.Fig = 7
	}
	if cfg.System.Seed == 0 {
		cfg.System.Seed = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.Size == 0 {
		if cfg.Fig == 8 {
			cfg.Size = 128 << 20
		} else {
			cfg.Size = 64 << 20
		}
	}
	if cfg.Interval < 0 {
		cfg.Interval = 0
	}
	seed := cfg.System.Seed

	spans := obs.NewStitcher() // the recovery timeline, stitched as the run goes
	rec := obs.NewRecorder(spans)
	if cfg.Trace != nil {
		rec.AddSink(cfg.Trace)
	} else {
		// Per-frame kinds off: per-window IPC volume comes from the kernel's
		// registry counters, which stay live under a disabled event mask.
		rec.Disable(obs.KindIPCSend, obs.KindIPCRecv, obs.KindProcSpawn, obs.KindProcExit)
		rec.Disable(obs.SpanKinds...)
	}
	runDesc := fmt.Sprintf("fig%d interval=%v seed=%d", cfg.Fig, cfg.Interval, seed)
	if cfg.System.Mechanism != core.MechRespawn || cfg.CrashVM {
		// Appended only off the default so pre-mechanism goldens hold.
		runDesc += fmt.Sprintf(" mech=%s crashvm=%v", cfg.System.Mechanism, cfg.CrashVM)
	}
	// Span and trace IDs restart with every recorder: the mark before boot
	// is the boundary a reader of several runs' streams splits at.
	rec.Emit(obs.KindMark, "run", runDesc, cfg.Size, 0)

	sysCfg := cfg.System
	sysCfg.Obs = rec
	sysCfg.DisableChar = true
	sysCfg.DisableDisk = cfg.Fig != 8
	sysCfg.DisableNet = cfg.Fig == 8
	sysCfg.PreallocFiles = nil
	if sysCfg.Machine.DiskSeed == 0 {
		sysCfg.Machine.DiskSeed = seed
	}
	driver := DriverRTL8139
	bytesName := "inet.bytes." + DriverRTL8139
	if cfg.Fig == 8 {
		driver = DriverSATA
		bytesName = "mfs.bytes." + DriverSATA
		sysCfg.PreallocFiles = []PreallocFile{{Name: "bigdata", Size: cfg.Size}}
	}
	sys := New(sysCfg)
	defer sys.Close()
	sampler := timeseries.New(timeseries.Config{
		Window:   cfg.Window,
		Registry: rec.Metrics(),
		Status:   sys.StatusFunc(),
	})
	sampler.Attach(sys.Env)
	rec.AddSink(sampler)

	sys.Run(3 * time.Second) // boot settle
	// The boot / transfer boundary of the window series is the sampler's
	// alone: a captured trace stays one mark-delimited segment per run.
	markT := sys.Env.Now()
	sampler.Emit(&obs.Event{T: markT, Kind: obs.KindMark, Comp: "run", Aux: runDesc, V1: cfg.Size})

	var done func() bool
	var finish func(r *FigureResult)
	if cfg.Fig == 8 {
		var res DdResult
		sys.Dd("/bigdata", 64<<10, &res)
		done = func() bool { return res.Duration != 0 || res.Err != nil }
		finish = func(r *FigureResult) {
			r.Bytes, r.Duration = res.Bytes, res.Duration
			r.OK = res.Err == nil && res.Bytes == cfg.Size
			r.Digest = fmt.Sprintf("%x", res.SHA1)
		}
	} else {
		sys.ServeFile(80, seed, cfg.Size)
		var res WgetResult
		sys.Wget(driver, 80, seed, cfg.Size, &res)
		done = func() bool { return res.Duration != 0 || res.Err != nil }
		finish = func(r *FigureResult) {
			r.Bytes, r.Duration, r.OK = res.Bytes, res.Duration, res.OK
			r.Digest = fmt.Sprintf("%x", res.MD5)
		}
	}

	var killTimes []time.Duration
	if cfg.Interval > 0 {
		sys.Every(cfg.Interval, func() {
			if !done() {
				if cfg.CrashVM {
					sys.CrashDriverVM(driver)
				} else {
					sys.KillDriver(driver)
				}
				killTimes = append(killTimes, sys.Env.Now()-markT)
			}
		})
	}

	// Step in sub-window increments and stop as soon as the transfer
	// resolves: the series (and a captured trace) ends at the transfer's
	// end instead of padding out a worst-case horizon with empty windows.
	// A kill interval below the victim's recovery time never lets the
	// transfer finish; the horizon bounds that run (Duration stays 0).
	horizon := 4*time.Duration(cfg.Size/1e6)*time.Second + 30*time.Second
	for !done() && sys.Env.Now()-markT < horizon {
		sys.Run(100 * time.Millisecond)
	}
	sampler.Finish()

	res := FigureResult{
		Fig: cfg.Fig, Seed: seed, Size: cfg.Size,
		Interval: cfg.Interval, Window: cfg.Window, Driver: driver,
		Kills:      len(killTimes),
		Recoveries: len(sys.RS.Events()),
		Segments:   sampler.Segments(),
	}
	finish(&res)
	res.MBps = mbps(res.Bytes, res.Duration)
	res.Violation = sampler.Err()
	if res.Violation == nil {
		res.Violation = timeseries.Validate(res.Segments, cfg.Window)
	}
	res.Recovery = obs.Summarize(obs.RecoveryLatencies(spans.Spans(), driver))
	analyzeFigure(&res, bytesName, killTimes)
	return res
}

// RunFigures runs a figure list in order: runs[0] is the baseline, every
// later run a variant of it (another kill interval, other system knobs).
// A variant is OK only if it also received the same bytes as the baseline
// (the same MD5 for Fig. 7, SHA-1 for Fig. 8): a recovery that delivers
// wrong data fails even when its transfer completes. The paper uses
// 512 MB (fig 7) and 1 GB (fig 8); throughput is a function of virtual
// time, so a smaller size barely moves it.
func RunFigures(runs []FigureConfig) []FigureResult {
	results := make([]FigureResult, len(runs))
	for i, cfg := range runs {
		r := RunFigure(cfg)
		r.OK = r.OK && (i == 0 || r.Digest == results[0].Digest)
		results[i] = r
	}
	return results
}

// PerKillLoss is the mean transfer time lost per kill relative to the
// uninterrupted run base — the effective recovery cost.
func (r FigureResult) PerKillLoss(base FigureResult) time.Duration {
	if r.Kills == 0 {
		return 0
	}
	return (r.Duration - base.Duration) / time.Duration(r.Kills)
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

// analyzeFigure fills the curve, baseline, and dip analysis from the
// transfer segment of the window series.
func analyzeFigure(r *FigureResult, bytesName string, kills []time.Duration) {
	if len(r.Segments) == 0 {
		return
	}
	seg := r.Segments[len(r.Segments)-1] // transfer segment (after the mark)
	for _, w := range seg.Windows {
		width := time.Duration(w.End - w.Start)
		b := w.Counter(bytesName)
		p := FigurePoint{
			T:        time.Duration(w.Start - seg.Start),
			Width:    width,
			Bytes:    b,
			MBps:     mbps(b, width),
			IPC:      w.Counter("kernel.ipc.send"),
			Defects:  w.KindN(obs.KindDefect),
			Restarts: w.KindN(obs.KindRestart),
		}
		for _, k := range kills {
			if k >= p.T && k < p.T+width {
				p.Kills++
			}
		}
		r.Points = append(r.Points, p)
	}

	// Baseline: mean rate of full windows wholly before the first kill
	// (all full windows when uninterrupted).
	firstKill := time.Duration(-1)
	if len(kills) > 0 {
		firstKill = kills[0]
	}
	var sum, n float64
	var all, nAll float64
	min := -1.0
	for _, p := range r.Points {
		if p.Width != r.Window {
			continue // partial final window
		}
		all += p.MBps
		nAll++
		if min < 0 || p.MBps < min {
			min = p.MBps
		}
		if firstKill < 0 || p.T+p.Width <= firstKill {
			sum += p.MBps
			n++
		}
	}
	if nAll > 0 {
		r.MeanMBps = all / nAll
	}
	if min > 0 {
		r.MinMBps = min
	}
	switch {
	case n > 0:
		r.BaselineMBps = sum / n
	case nAll > 0:
		r.BaselineMBps = all / nAll
	default:
		r.BaselineMBps = r.MBps
	}

	r.Dips = analyzeDips(r.Points, kills, r.BaselineMBps, r.Window)
	var rec, nRec float64
	for _, d := range r.Dips {
		if !d.Truncated {
			rec += d.RecoveredPct
			nRec++
		}
	}
	if nRec > 0 {
		r.RecoveredPct = rec / nRec
	} else if len(r.Dips) == 0 {
		r.RecoveredPct = 100
	}
}

// analyzeDips resolves the per-kill throughput dips: for each kill, scan
// forward until the curve regains 90% of baseline (or the next kill /
// end of transfer truncates the dip), then average the post-recovery
// full windows up to the next kill.
func analyzeDips(points []FigurePoint, kills []time.Duration, baseline float64, window time.Duration) []FigureDip {
	if baseline <= 0 || window <= 0 {
		return nil
	}
	thr := 0.9 * baseline
	var dips []FigureDip
	for ki, k := range kills {
		next := time.Duration(-1)
		if ki+1 < len(kills) {
			next = kills[ki+1]
		}
		start := int(k / window)
		if start >= len(points) {
			break
		}
		d := FigureDip{Kill: k, Truncated: true}
		minM := -1.0
		recover := -1
		for j := start; j < len(points); j++ {
			if next >= 0 && points[j].T >= next {
				break
			}
			if minM < 0 || points[j].MBps < minM {
				minM = points[j].MBps
			}
			if points[j].Width == window && points[j].MBps >= thr {
				recover = j
				break
			}
		}
		if minM >= 0 {
			d.DepthPct = 100 * (1 - minM/baseline)
			if d.DepthPct < 0 {
				d.DepthPct = 0
			}
		}
		if recover >= 0 {
			d.Truncated = false
			if w := points[recover].T - k; w > 0 {
				d.Width = w
			}
			// Post-recovery rate: full windows from recovery to next kill.
			var sum, n float64
			for j := recover; j < len(points); j++ {
				if next >= 0 && points[j].T+points[j].Width > next {
					break
				}
				if points[j].Width == window {
					sum += points[j].MBps
					n++
				}
			}
			if n > 0 {
				d.RecoveredMBps = sum / n
				d.RecoveredPct = 100 * d.RecoveredMBps / baseline
			} else {
				d.Truncated = true
			}
		} else {
			// Never recovered inside the scan range: width spans it.
			end := points[len(points)-1].T + points[len(points)-1].Width
			if next >= 0 && next < end {
				end = next
			}
			if end > k {
				d.Width = end - k
			}
		}
		dips = append(dips, d)
	}
	return dips
}

// MeanDip averages the run's dips: depth in % of the baseline, width in
// virtual milliseconds (both 0 without a dip).
func (r FigureResult) MeanDip() (depthPct, widthMs float64) {
	if len(r.Dips) == 0 {
		return 0, 0
	}
	for _, d := range r.Dips {
		depthPct += d.DepthPct
		widthMs += float64(d.Width) / 1e6
	}
	n := float64(len(r.Dips))
	return depthPct / n, widthMs / n
}

// BenchDoc summarizes the result as the bench document of a one-run
// `figures -bench` (FiguresBenchDoc files a longer list's under prefixes).
func (r FigureResult) BenchDoc() bench.Doc {
	d := bench.New("figures", map[string]string{
		"fig":           strconv.Itoa(r.Fig),
		"seed":          strconv.FormatInt(r.Seed, 10),
		"size_bytes":    strconv.FormatInt(r.Size, 10),
		"kill_interval": r.Interval.String(),
		"window":        r.Window.String(),
	})
	depth, width := r.MeanDip()
	d.Add("mbps", r.MBps, "MB/s", bench.Higher) // end-to-end transfer rate
	d.Add("baseline_mbps", r.BaselineMBps, "MB/s", bench.Higher)
	d.Add("mean_mbps", r.MeanMBps, "MB/s", bench.Higher)
	d.Add("min_mbps", r.MinMBps, "MB/s", bench.Higher)
	d.Count("windows", len(r.Points))
	d.Count("kills", r.Kills)
	d.Count("dips", len(r.Dips))
	d.Add("mean_dip_depth_pct", depth, "%", bench.Lower)
	d.Add("mean_dip_width_ms", width, "virt_ms", bench.Lower)
	d.Add("recovered_pct", r.RecoveredPct, "%", bench.Higher) // post-recovery rate vs baseline
	d.Latency("recovery", r.Recovery)
	return d
}

// FiguresBenchDoc is the bench document of a figure list, the one
// `figures -bench` writes. A one-run list is that run's BenchDoc. A longer
// list files each run's BenchDoc metrics under keys[i]+"/" in one
// document from source, whose params are the baseline's plus spec, the
// system knobs the baseline booted with.
func FiguresBenchDoc(source, spec string, keys []string, results []FigureResult) bench.Doc {
	if len(results) == 1 {
		return results[0].BenchDoc()
	}
	params := results[0].BenchDoc().Params
	params["spec"] = spec
	doc := bench.New(source, params)
	for i, r := range results {
		for _, m := range r.BenchDoc().Metrics {
			doc.Add(keys[i]+"/"+m.Name, m.Value, m.Unit, m.Better)
		}
	}
	return doc
}

// ---------------------------------------------------------------------
// Deterministic encodings

// figureFloat renders a rate with fixed precision — enough to resolve
// real dips, few enough digits to keep goldens readable.
func figureFloat(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// WriteFigureCSV writes the throughput curve as canonical CSV, one row
// per window. Byte-identical across runs for a fixed seed; the committed
// testdata/fig{7,8}_seed11.csv goldens pin this encoding.
func WriteFigureCSV(w io.Writer, r FigureResult) error {
	var buf []byte
	buf = append(buf, "window,t_ns,width_ns,bytes,mbps,ipc,kills,defects,restarts\n"...)
	for i, p := range r.Points {
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(p.T), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(p.Width), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, p.Bytes, 10)
		buf = append(buf, ',')
		buf = append(buf, figureFloat(p.MBps)...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, p.IPC, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(p.Kills), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(p.Defects), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(p.Restarts), 10)
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

// WriteFigureSVG renders the throughput curve as a self-contained SVG:
// the windowed rate as a polyline, kills as red verticals, the 90%-of-
// baseline recovery threshold as a dashed rule. Deterministic output.
func WriteFigureSVG(w io.Writer, r FigureResult) error {
	const (
		width, height  = 720.0, 280.0
		ml, mr, mt, mb = 56.0, 16.0, 40.0, 44.0
		plotW, plotH   = width - ml - mr, height - mt - mb
	)
	maxT := time.Duration(0)
	maxM := 0.0
	for _, p := range r.Points {
		if end := p.T + p.Width; end > maxT {
			maxT = end
		}
		if p.MBps > maxM {
			maxM = p.MBps
		}
	}
	if maxT <= 0 {
		maxT = time.Second
	}
	if maxM <= 0 {
		maxM = 1
	}
	maxM *= 1.1
	x := func(t time.Duration) string {
		return strconv.FormatFloat(ml+plotW*float64(t)/float64(maxT), 'f', 1, 64)
	}
	y := func(m float64) string {
		return strconv.FormatFloat(mt+plotH*(1-m/maxM), 'f', 1, 64)
	}

	var b []byte
	app := func(s string) { b = append(b, s...) }
	app(`<svg xmlns="http://www.w3.org/2000/svg" width="720" height="280" viewBox="0 0 720 280" font-family="sans-serif">` + "\n")
	app(fmt.Sprintf(`<title>fig%d seed=%d</title>`+"\n", r.Fig, r.Seed))
	app(`<rect width="720" height="280" fill="white"/>` + "\n")
	app(fmt.Sprintf(`<text x="%s" y="24" font-size="14">fig%d: %s, %d MB, kill every %s, seed %d</text>`+"\n",
		strconv.FormatFloat(ml, 'f', 1, 64), r.Fig, r.Driver, r.Size>>20, r.Interval, r.Seed))
	// Axes.
	app(fmt.Sprintf(`<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>`+"\n",
		x(0), y(0), x(maxT), y(0)))
	app(fmt.Sprintf(`<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>`+"\n",
		x(0), y(0), x(0), y(maxM)))
	app(fmt.Sprintf(`<text x="8" y="%s" font-size="11">%s MB/s</text>`+"\n",
		y(maxM/1.1), figureFloat(maxM/1.1)))
	app(fmt.Sprintf(`<text x="%s" y="%s" font-size="11">%ds</text>`+"\n",
		x(maxT), strconv.FormatFloat(mt+plotH+16, 'f', 1, 64), int(maxT/time.Second)))
	// Recovery threshold.
	if r.BaselineMBps > 0 {
		thr := 0.9 * r.BaselineMBps
		app(fmt.Sprintf(`<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="green" stroke-dasharray="4 3"/>`+"\n",
			x(0), y(thr), x(maxT), y(thr)))
	}
	// Kills.
	for _, p := range r.Points {
		if p.Kills == 0 {
			continue
		}
		app(fmt.Sprintf(`<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="red"/>`+"\n",
			x(p.T), y(0), x(p.T), y(maxM)))
	}
	// Curve: step at window midpoints.
	app(`<polyline fill="none" stroke="blue" stroke-width="1.5" points="`)
	for i, p := range r.Points {
		if i > 0 {
			app(" ")
		}
		app(x(p.T + p.Width/2))
		app(",")
		app(y(p.MBps))
	}
	app(`"/>` + "\n")
	app(fmt.Sprintf(`<text x="%s" y="%s" font-size="11">recovered %s%% of baseline, %d kills</text>`+"\n",
		strconv.FormatFloat(ml, 'f', 1, 64),
		strconv.FormatFloat(height-12, 'f', 1, 64),
		figureFloat(r.RecoveredPct), r.Kills))
	app("</svg>\n")
	_, err := w.Write(b)
	return err
}
