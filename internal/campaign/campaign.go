// Package campaign shards a large SWIFI (software-implemented fault
// injection) campaign — the seed × fault-type × victim-driver matrix of
// paper §7.2 — across the workers of sim.Each, each cell its own fully
// independent deterministic simulation. Because every cell is a separate
// virtual machine with its own seeded scheduler, cells parallelize
// perfectly, and because results are merged in cell-index order, the
// merged report is byte-identical no matter how many workers ran it.
//
// Each cell boots the standard system, drives continuous I/O through the
// victim driver, and repeatedly injects one fault of the cell's fault
// type into the running driver's code image, watching the reincarnation
// server's event log for crashes and recoveries. The merged report is the
// paper-style campaign table (crashes by defect class and recovery rate
// per fault type) plus per-fault-type recovery-latency histograms built
// on internal/obs.
//
// With Invariants enabled, every cell also runs the live invariant
// checker (internal/check) on every scheduler step; a violation is
// reported with the cell's seed, the last mutated instruction, and the
// last K trace events — everything needed to re-run the offending cell.
package campaign

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"resilientos"
	"resilientos/internal/check"
	"resilientos/internal/core"
	"resilientos/internal/fi"
	"resilientos/internal/hw"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// AllFaultTypes is the paper's seven mutation classes, in paper order.
// fi.FaultRandom — a fresh draw among them per injection, what the
// paper's own 12,500-fault run used — is a cell class of its own.
var AllFaultTypes = []fi.FaultType{
	fi.FaultSrcReg, fi.FaultDstReg, fi.FaultPointer, fi.FaultStale,
	fi.FaultLoopCond, fi.FaultBitFlip, fi.FaultElide,
}

// DefaultVictims is the standard victim set: both network drivers and the
// disk driver (§7.2 injects into the network stack; the disk driver rides
// along because its recovery path — direct restart from RAM, no policy —
// is different enough to be worth sweeping).
var DefaultVictims = []string{
	resilientos.DriverDP8390,
	resilientos.DriverRTL8139,
	resilientos.DriverSATA,
}

// Config parameterizes a campaign.
type Config struct {
	// Seeds are the per-cell base seeds. seeds=N in a spec is 1..N.
	Seeds []int64
	// Victims are the driver labels to inject into (DefaultVictims when
	// empty). Network drivers get a download workload, the disk driver a
	// dd workload.
	Victims []string
	// FaultTypes to sweep (AllFaultTypes when empty).
	FaultTypes []fi.FaultType
	// FaultsPerCell is how many faults each cell injects (default 10).
	FaultsPerCell int
	// Workers sizes the worker pool (default: see sim.Each). Output is
	// identical for any value.
	Workers int
	// Invariants attaches the live checker to every cell.
	Invariants bool
	// Progress, if set, is called after each finished cell with
	// (done, total). Calls are serialized but unordered across cells.
	Progress func(done, total int)

	// System is the configuration every cell boots: the recovery knobs
	// (heartbeat, restart budget, policy script, mechanism — the
	// counterfactual levers faultbench -override sweeps) and the machine (the
	// real-hardware gate). The zero value is the standard system. A cell
	// overwrites only what a cell owns: Seed, Obs, Decisions, Perf,
	// PreallocFiles and the three Disable* switches.
	System resilientos.Config

	// Decisions attaches a recovery-decision recorder to every cell: the
	// per-cell trace lands in CellResult.Decisions, the merged log (with
	// cell-boundary marks) in Report.DecisionLog, and victim availability
	// is derived from the detect→recovered downtime windows.
	Decisions bool

	// Perf, if set, attaches wall-clock telemetry (internal/perf) to
	// every cell's system. The profiler is single-threaded, so fill
	// forces Workers to 1 — which never changes results.
	Perf *perf.Profiler
}

// seq returns seeds 1..n.
func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func (cfg *Config) fill() {
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = seq(1)
	}
	if len(cfg.Victims) == 0 {
		cfg.Victims = DefaultVictims
	}
	if len(cfg.FaultTypes) == 0 {
		cfg.FaultTypes = AllFaultTypes
	}
	if cfg.FaultsPerCell <= 0 {
		cfg.FaultsPerCell = 10
	}
	if cfg.Perf != nil {
		cfg.Workers = 1
	}
}

// traceTail is the number of trace events kept per cell for a violation's
// repro dump.
const traceTail = 32

// Cell is one point of the campaign matrix.
type Cell struct {
	Index  int
	Seed   int64
	Victim string
	Fault  fi.FaultType
}

func (c Cell) String() string {
	return fmt.Sprintf("seed=%d victim=%s fault=%s", c.Seed, c.Victim, c.Fault)
}

// Cells enumerates the matrix in canonical order: seed-major, then
// victim, then fault type. The order is the merge order, so it defines
// the report layout.
func Cells(cfg Config) []Cell {
	cfg.fill()
	var out []Cell
	for _, seed := range cfg.Seeds {
		for _, victim := range cfg.Victims {
			for _, ft := range cfg.FaultTypes {
				out = append(out, Cell{Index: len(out), Seed: seed, Victim: victim, Fault: ft})
			}
		}
	}
	return out
}

// ViolationReport is one invariant violation with its repro context.
type ViolationReport struct {
	Cell      Cell
	Violation check.Violation
	Injection fi.Injection // last mutation before the violation (Type 0: none yet)
	Trace     []obs.Event  // last K trace events, oldest first
}

// CellResult is the outcome of one cell's run.
type CellResult struct {
	Cell
	Injected  int
	Crashes   int
	ByDefect  map[core.Defect]int
	Recovered int
	GaveUp    int
	Latencies []sim.Time // completed recovery latencies, detection order
	// BIOSResets counts host resets of a deeply confused card (only a
	// machine behind the real-hardware gate ever needs one).
	BIOSResets int
	// ByTrigger tallies crashes by the class of the last fault injected
	// before them (fi.FaultRandom cells only; elsewhere it is the cell's).
	ByTrigger [fi.NumFaultTypes + 1]int

	LastInjection fi.Injection // Type 0: nothing injected yet
	Violations    []ViolationReport

	// Decision-trace results (cfg.Decisions only).
	Decisions []decision.Event // the cell's full decision trace
	Downtime  sim.Time         // victim detect→recovered windows, summed (see downtime)
	Horizon   sim.Time         // measured interval (post-settle to end)
}

// Run executes the whole matrix and merges per-cell results in cell-index
// order. The merged Report is byte-identical for any worker count.
func Run(cfg Config) *Report {
	cfg.fill()
	cells := Cells(cfg)
	results := make([]CellResult, len(cells))

	var (
		mu   sync.Mutex
		done int
	)
	sim.Each(cfg.Workers, len(cells), func(i int) {
		results[i] = runCell(cells[i], cfg)
		if cfg.Progress != nil {
			mu.Lock()
			done++
			cfg.Progress(done, len(cells))
			mu.Unlock()
		}
	})
	return merge(cfg, results)
}

// runCell boots one independent system and runs the cell's injections.
// It keeps none of the million-odd events the recorder emits: recovery
// spans are stitched as they arrive.
func runCell(cell Cell, cfg Config) CellResult {
	return runCellWith(cell, cfg, nil)
}

// runCellWith is runCell with its seam for tests: injected, if set, runs
// after every injection with the VM it mutated.
func runCellWith(cell Cell, cfg Config, injected func(*ucode.VM, fi.Injection)) CellResult {
	res := CellResult{Cell: cell, ByDefect: make(map[core.Defect]int)}

	// The checker is a sink of its own beside the stitcher. Per-frame IPC
	// kinds dominate trace volume and are not emitted at all.
	spans := obs.NewStitcher()
	rec := obs.NewRecorder(spans)
	rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)

	var decSink *decision.SliceSink
	var decRec *decision.Recorder
	if cfg.Decisions {
		decSink = &decision.SliceSink{}
		decRec = decision.NewRecorder(decSink)
	}

	disk := cell.Victim == resilientos.DriverSATA
	syscfg := cfg.System
	syscfg.Seed = cell.Seed
	syscfg.Obs = rec
	syscfg.Decisions = decRec
	syscfg.Perf = cfg.Perf
	syscfg.DisableChar = true
	syscfg.DisableDisk = !disk
	syscfg.DisableNet = disk
	syscfg.PreallocFiles = nil
	if disk {
		syscfg.PreallocFiles = []resilientos.PreallocFile{{Name: "/campaign", Size: 16 << 20}}
	}
	sys := resilientos.New(syscfg)

	var ck *check.Checker
	if cfg.Invariants {
		ck = check.Attach(sys.Env, rec, check.Config{
			Kernel:    sys.Kernel,
			RS:        sys.RS,
			DS:        sys.DS,
			TraceTail: traceTail,
		})
		if decRec != nil {
			decRec.AddSink(ck.DecisionSink())
		}
	}

	sys.Run(3 * time.Second) // boot settle
	measureStart := sys.Env.Now()
	startWorkload(sys, cell.Victim)

	injector := fi.New(sys.Env.Rand())
	var nic *hw.NIC // the victim's card; nil for the disk driver
	switch cell.Victim {
	case resilientos.DriverRTL8139:
		nic = sys.Machine.NIC0
	case resilientos.DriverDP8390:
		nic = sys.Machine.NIC1
	}
	seen := 0
	harvest := func() {
		evs := sys.RS.EventsSince(seen)
		seen += len(evs)
		for _, e := range evs {
			if e.Label != cell.Victim {
				continue
			}
			res.Crashes++
			res.ByDefect[e.Defect]++
			if cell.Fault == fi.FaultRandom {
				res.ByTrigger[res.LastInjection.Type]++
			}
			if e.Recovered {
				res.Recovered++
			}
			if e.GaveUp {
				res.GaveUp++
			}
		}
	}

	stall := 0
	for res.Injected < cfg.FaultsPerCell {
		sys.Run(50 * time.Millisecond) // between injections
		harvest()
		stall++
		if stall > 2000 {
			break // driver irrecoverably wedged; report what we have
		}
		// The hardware gate: a deeply confused card fails every restart's
		// init asserts until the host gives it the paper's BIOS reset.
		if nic != nil {
			if _, deep := nic.Confused(); deep {
				nic.BIOSReset()
				res.BIOSResets++
				continue
			}
		}
		vm := sys.DriverVM(cell.Victim)
		if vm == nil || sys.RS.ServiceEndpoint(cell.Victim) < 0 {
			continue // down or restarting: nothing to mutate
		}
		inj, ok := injector.TryInject(vm.Writable(), cell.Fault)
		if !ok {
			break // no applicable site left: report the shortfall, never pad
		}
		res.LastInjection = inj
		res.Injected++
		stall = 0
		if injected != nil {
			injected(vm, inj)
		}
	}
	// Let the final crash (if any) resolve; policy backoff can hold a
	// restart for a few seconds.
	sys.Run(5 * time.Second)
	if cfg.Decisions {
		// The decision log must end with every episode closed (both the
		// offline verifier and the live checker flag an open one), so
		// wait out policy backoff until recovery quiesces. Idle virtual
		// time is nearly free; the bound only guards a wedged recovery,
		// which the checker then rightly reports.
		for extra := 0; extra < 300 && sys.Health().Recovering > 0; extra++ {
			sys.Run(time.Second)
		}
	}
	harvest()

	// Recovery latency is the paper's end-to-end span — defect detected to
	// first dependent server rebound to the fresh instance — stitched from
	// the trace, not RS bookkeeping (which only covers detect→respawn).
	res.Latencies = obs.RecoveryLatencies(spans.Spans(), cell.Victim)

	if decSink != nil {
		end := sys.Env.Now()
		res.Decisions = decSink.Events()
		res.Horizon = end - measureStart
		res.Downtime = downtime(res.Decisions, cell.Victim, end)
	}

	if ck != nil {
		ck.Finish()
		for _, v := range ck.Violations() {
			res.Violations = append(res.Violations, ViolationReport{
				Cell:      cell,
				Violation: v,
				Injection: res.LastInjection,
				Trace:     ck.TraceTail(),
			})
		}
	}
	sys.Close() // a campaign boots thousands of these
	return res
}

// downtime sums the victim's unavailability windows from a decision
// trace: a detect opens a window and a recovered outcome closes it. A
// gave-up outcome leaves it open, because a given-up driver stays down,
// and a window still open at the end of the cell counts up to the end.
func downtime(events []decision.Event, victim string, end sim.Time) sim.Time {
	var total sim.Time
	var openAt sim.Time
	open := false
	for _, e := range events {
		if e.Service != victim {
			continue
		}
		switch e.Kind {
		case decision.KindDetect:
			if !open {
				open = true
				openAt = e.T
			}
		case decision.KindOutcome:
			if open && e.Action != "gave-up" {
				total += e.T - openAt
				open = false
			}
		}
	}
	if open && end > openAt {
		total += end - openAt
	}
	return total
}

// startWorkload drives continuous I/O through the victim so injected
// faults are exercised: back-to-back downloads for network drivers, a
// dd loop for the disk driver.
func startWorkload(sys *resilientos.System, victim string) {
	if victim == resilientos.DriverSATA {
		sys.Spawn("dd-loop", func(p *resilientos.Proc) {
			buf := make([]byte, 64<<10)
			for {
				f, err := p.Open("/campaign")
				if err != nil {
					p.Sleep(200 * time.Millisecond)
					continue
				}
				for {
					if _, err := f.Read(buf); err != nil {
						break
					}
				}
				f.Close()
			}
		})
		return
	}
	sys.ServeFile(80, 1, 8<<20)
	sys.Spawn("wget-loop", func(p *resilientos.Proc) {
		buf := make([]byte, 64<<10)
		for {
			conn, err := p.Dial(resilientos.NetLocal, victim, 80)
			if err != nil {
				p.Sleep(200 * time.Millisecond)
				continue
			}
			for {
				if _, err := conn.Read(buf); err != nil {
					break
				}
			}
			conn.Close()
		}
	})
}

// ---------------------------------------------------------------------
// Merging and rendering

// FaultAgg aggregates all cells of one fault type.
type FaultAgg struct {
	Fault     fi.FaultType
	Injected  int
	Crashes   int
	ByDefect  map[core.Defect]int
	Recovered int
	GaveUp    int
	Latencies []sim.Time
	Hist      *obs.Histogram
}

// Report is the merged campaign outcome.
type Report struct {
	Config     Config
	Cells      []CellResult
	ByFault    []*FaultAgg // cfg.FaultTypes order
	Violations []ViolationReport
	Injected   int
	Crashes    int
	Recovered  int
	GaveUp     int
	BIOSResets int
	ByTrigger  [fi.NumFaultTypes + 1]int // summed over the fi.FaultRandom cells

	// Decision-trace aggregates (cfg.Decisions only). DecisionLog is the
	// per-cell traces concatenated in cell-index order, each prefixed by
	// a mark event (svc "campaign", action "cell", detail = the cell
	// spec) — so the merged log is byte-identical for any worker count
	// and offline verifiers reset state at each cell boundary.
	DecisionLog []decision.Event
	Downtime    sim.Time
	Horizon     sim.Time
}

// Availability is the victim-service availability over the summed
// measurement horizon, as a percentage (100 when nothing was measured).
func (r *Report) Availability() float64 {
	if r.Horizon <= 0 {
		return 100
	}
	return 100 * (1 - float64(r.Downtime)/float64(r.Horizon))
}

func merge(cfg Config, results []CellResult) *Report {
	r := &Report{Config: cfg, Cells: results}
	agg := make(map[fi.FaultType]*FaultAgg, len(cfg.FaultTypes))
	for _, ft := range cfg.FaultTypes {
		a := &FaultAgg{Fault: ft, ByDefect: make(map[core.Defect]int), Hist: obs.NewHistogram(nil)}
		agg[ft] = a
		r.ByFault = append(r.ByFault, a)
	}
	for _, res := range results { // cell-index order: deterministic merge
		a := agg[res.Fault]
		a.Injected += res.Injected
		a.Crashes += res.Crashes
		a.Recovered += res.Recovered
		a.GaveUp += res.GaveUp
		for d, n := range res.ByDefect {
			a.ByDefect[d] += n
		}
		a.Latencies = append(a.Latencies, res.Latencies...)
		for _, d := range res.Latencies {
			a.Hist.Observe(int64(d))
		}
		r.Injected += res.Injected
		r.Crashes += res.Crashes
		r.Recovered += res.Recovered
		r.GaveUp += res.GaveUp
		r.BIOSResets += res.BIOSResets
		for ft, n := range res.ByTrigger {
			r.ByTrigger[ft] += n
		}
		r.Violations = append(r.Violations, res.Violations...)
		if cfg.Decisions {
			r.DecisionLog = append(r.DecisionLog, decision.Event{
				Kind: decision.KindMark, Service: "campaign",
				Action: "cell", Detail: res.Cell.String(),
			})
			r.DecisionLog = append(r.DecisionLog, res.Decisions...)
			r.Downtime += res.Downtime
			r.Horizon += res.Horizon
		}
	}
	return r
}

// Ok reports whether no cell surfaced an invariant violation.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Render writes the campaign report: the paper-style table (crashes by
// defect class and recovery rate per fault type), per-fault-type
// recovery-latency histograms, and any invariant violations with their
// repro context. Output is deterministic: byte-identical for runs that
// produced identical per-cell results, regardless of worker count.
func (r *Report) Render(w io.Writer) {
	cfg := r.Config
	fmt.Fprintf(w, "SWIFI campaign: %d seeds x %d victims x %d fault types, %d faults/cell\n",
		len(cfg.Seeds), len(cfg.Victims), len(cfg.FaultTypes), cfg.FaultsPerCell)
	fmt.Fprintf(w, "victims: %s\n\n", strings.Join(cfg.Victims, ", "))

	pct := func(n, of int) float64 {
		if of == 0 {
			return 0
		}
		return 100 * float64(n) / float64(of)
	}

	// The paper-style table, one row per fault type.
	fmt.Fprintf(w, "%-20s %9s %8s %6s %6s %6s %10s %7s\n",
		"fault type", "injected", "crashes", "exit", "exc", "hbeat", "recovered", "gaveup")
	for _, a := range r.ByFault {
		fmt.Fprintf(w, "%-20s %9d %8d %6d %6d %6d %5d (%3.0f%%) %7d\n",
			a.Fault, a.Injected, a.Crashes,
			a.ByDefect[core.DefectExit], a.ByDefect[core.DefectException],
			a.ByDefect[core.DefectHeartbeat],
			a.Recovered, pct(a.Recovered, a.Crashes), a.GaveUp)
	}
	fmt.Fprintf(w, "%-20s %9d %8d %6s %6s %6s %5d (%3.0f%%) %7d\n",
		"total", r.Injected, r.Crashes, "", "", "",
		r.Recovered, pct(r.Recovered, r.Crashes), r.GaveUp)
	if cfg.System.Machine.ConfusableNICs {
		fmt.Fprintf(w, "BIOS resets needed:  %d\n", r.BIOSResets)
	}
	if slices.Contains(cfg.FaultTypes, fi.FaultRandom) {
		fmt.Fprintln(w, "crash-triggering fault class (random cells):")
		for _, ft := range AllFaultTypes {
			fmt.Fprintf(w, "  %-20s %6d\n", ft, r.ByTrigger[ft])
		}
	}
	fmt.Fprintln(w)

	// Per-fault-type recovery-latency histograms.
	for _, a := range r.ByFault {
		fmt.Fprintf(w, "recovery latency, %s: %s\n", a.Fault, obs.Summarize(a.Latencies))
		if len(a.Latencies) == 0 {
			fmt.Fprintln(w)
			continue
		}
		renderHist(w, a.Hist)
		fmt.Fprintln(w)
	}

	if cfg.Decisions {
		fmt.Fprintf(w, "decision trace: %d events; victim availability %.3f%% (downtime %v over %v)\n",
			len(r.DecisionLog), r.Availability(),
			time.Duration(r.Downtime), time.Duration(r.Horizon))
	}

	if len(r.Violations) == 0 {
		if cfg.Invariants {
			fmt.Fprintln(w, "invariants: all held")
		}
		return
	}
	fmt.Fprintf(w, "INVARIANT VIOLATIONS: %d\n", len(r.Violations))
	for i, vr := range r.Violations {
		fmt.Fprintf(w, "\n#%d %s\n   %v\n", i+1, vr.Cell, vr.Violation)
		if vr.Injection.Type != 0 {
			fmt.Fprintf(w, "   last mutation: %v\n", vr.Injection)
		}
		one := cfg
		one.Seeds = []int64{vr.Cell.Seed}
		one.Victims = []string{vr.Cell.Victim}
		one.FaultTypes = []fi.FaultType{vr.Cell.Fault}
		fmt.Fprintf(w, "   repro: -matrix %s\n", one.Spec())
		fmt.Fprintf(w, "   last %d trace events:\n", len(vr.Trace))
		for _, e := range vr.Trace {
			fmt.Fprintf(w, "     %12v %-14s %-12s %s v1=%d v2=%d\n",
				time.Duration(e.T), e.Kind, e.Comp, e.Aux, e.V1, e.V2)
		}
	}
}

// renderHist draws one latency histogram as fixed-width bucket rows.
// Empty buckets outside the occupied range are skipped.
func renderHist(w io.Writer, h *obs.Histogram) {
	buckets := h.Buckets()
	lo, hi := -1, -1
	var max int64
	for i, b := range buckets {
		if b.Count > 0 {
			if lo == -1 {
				lo = i
			}
			hi = i
			if b.Count > max {
				max = b.Count
			}
		}
	}
	if lo == -1 {
		return
	}
	for i := lo; i <= hi; i++ {
		b := buckets[i]
		label := "+Inf"
		if b.UpperBound >= 0 {
			label = time.Duration(b.UpperBound).String()
		}
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", int((b.Count*40+max-1)/max))
		}
		fmt.Fprintf(w, "  <= %-8s %6d %s\n", label, b.Count, bar)
	}
}
