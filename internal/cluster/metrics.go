package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"resilientos/internal/obs"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/sim"
)

// tracker accumulates per-window fleet availability. The campaign
// horizon is cut into fixed windows; at every fleet tick (barrier) the
// tracker records the minimum healthy-node count per service class, and
// the request path reports every bounced attempt into the window it
// fell in. A window is available for a class when at least one node
// served the class at every barrier AND no request of that class
// bounced — so health-blind routing hurts availability even while
// healthy nodes exist, which is precisely the failure-aware policy's
// selling point.
type tracker struct {
	start   sim.Time
	width   sim.Time
	windows int

	// Per class, indexed like the campaign's classes.
	minHealthy [][]int
	bounces    [][]int
	healthySum []int64 // summed healthy counts over barriers

	// SLO accounting, per class with a declared latency budget (0 in
	// budgets for a class without one): sloOver counts over-budget
	// completions per window, sloWithin/sloTotal count requests
	// within/of-all completions (including completions landing in the
	// drain, outside every window).
	budgets   []sim.Time
	sloOver   [][]int
	sloWithin []int64
	sloTotal  []int64

	barriers   int
	overlapSum int64 // nodes mid-recovery, summed over barriers
	overlapMax int   // peak concurrently-recovering nodes
}

func newTracker(start, width sim.Time, windows int, classes []string, budgets map[string]time.Duration) *tracker {
	n := len(classes)
	t := &tracker{
		start: start, width: width, windows: windows,
		minHealthy: make([][]int, n),
		bounces:    make([][]int, n),
		healthySum: make([]int64, n),
		budgets:    make([]sim.Time, n),
		sloOver:    make([][]int, n),
		sloWithin:  make([]int64, n),
		sloTotal:   make([]int64, n),
	}
	for c, cl := range classes {
		mh := make([]int, windows)
		for i := range mh {
			mh[i] = 1 << 30
		}
		t.minHealthy[c] = mh
		t.bounces[c] = make([]int, windows)
		if b := budgets[cl]; b > 0 {
			t.budgets[c] = sim.Time(b)
			t.sloOver[c] = make([]int, windows)
		}
	}
	return t
}

func (t *tracker) window(at sim.Time) int {
	if at < t.start || t.width <= 0 {
		return -1
	}
	i := int((at - t.start) / t.width)
	if i >= t.windows {
		return -1
	}
	return i
}

// sampleBarriers records the barriers from first to last, a slice apart,
// at all of which the healthy-node counts per class (indexed as classes)
// and the number of nodes with a recovery in flight were the same.
func (t *tracker) sampleBarriers(first, last sim.Time, healthy []int, recoveringNodes int) {
	n := int64((last-first)/slice) + 1
	t.barriers += int(n)
	t.overlapSum += n * int64(recoveringNodes)
	t.overlapMax = max(t.overlapMax, recoveringNodes)
	// A window is at least a slice wide, so every window from first's to
	// last's holds one of the barriers; those outside all windows count
	// only in the sums.
	lo, hi := max(first, t.start), min(last, t.start+sim.Time(t.windows)*t.width-1)
	for c, h := range healthy {
		t.healthySum[c] += n * int64(h)
		if lo <= hi {
			for w := t.window(lo); w <= t.window(hi); w++ {
				t.minHealthy[c][w] = min(t.minHealthy[c][w], h)
			}
		}
	}
}

// noteBounce attributes one failed request attempt of class (an index
// into the classes) to its window.
func (t *tracker) noteBounce(class int, at sim.Time) {
	if i := t.window(at); i >= 0 {
		t.bounces[class][i]++
	}
}

// noteComplete scores one completed request against its class's latency
// budget (no-op for classes without one).
func (t *tracker) noteComplete(class int, at, lat sim.Time) {
	b := t.budgets[class]
	if b == 0 {
		return
	}
	t.sloTotal[class]++
	if lat <= b {
		t.sloWithin[class]++
	} else if i := t.window(at); i >= 0 {
		t.sloOver[class][i]++
	}
}

// slo summarizes one class's budget attainment, or nil when the class
// has no budget. AttainedPct is request-level (completions within
// budget); WindowPct is the fraction of horizon windows without an
// over-budget completion — the per-window SLO the spec declares.
func (t *tracker) slo(class int) *SLOReport {
	b := t.budgets[class]
	if b == 0 {
		return nil
	}
	r := &SLOReport{Budget: time.Duration(b), AttainedPct: 100, WindowPct: 100}
	if n := t.sloTotal[class]; n > 0 {
		r.AttainedPct = 100 * float64(t.sloWithin[class]) / float64(n)
	}
	if t.windows > 0 {
		met := 0
		for _, over := range t.sloOver[class] {
			if over == 0 {
				met++
			}
		}
		r.WindowPct = 100 * float64(met) / float64(t.windows)
	}
	return r
}

// availability returns, for one class, the fraction of windows that were
// served (node up at every barrier, zero bounced attempts) and the
// fraction with at least one healthy node (the policy-independent floor).
func (t *tracker) availability(class int) (servedPct, nodePct float64) {
	if t.windows == 0 {
		return 100, 100
	}
	served, node := 0, 0
	for i := 0; i < t.windows; i++ {
		up := t.minHealthy[class][i] >= 1
		if up {
			node++
			if t.bounces[class][i] == 0 {
				served++
			}
		}
	}
	return 100 * float64(served) / float64(t.windows), 100 * float64(node) / float64(t.windows)
}

// ClassReport is one service class's slice of the fleet report.
type ClassReport struct {
	Class string `json:"class"`
	// AvailabilityPct: fraction of windows in which the class was served —
	// ≥1 healthy node at every barrier and no bounced attempt.
	AvailabilityPct float64 `json:"availability_pct"`
	// NodeAvailabilityPct: fraction of windows with ≥1 healthy node at
	// every barrier (policy-independent).
	NodeAvailabilityPct float64 `json:"node_availability_pct"`
	// MeanHealthyNodes: healthy-node count averaged over barriers.
	MeanHealthyNodes float64            `json:"mean_healthy_nodes"`
	Requests         int64              `json:"requests"`
	Latency          obs.LatencySummary `json:"latency"`
	// SLO is the class's latency-budget attainment; nil when the campaign
	// declared no budget for the class.
	SLO *SLOReport `json:"slo,omitempty"`
}

// SLOReport is one class's attainment against its declared latency
// budget.
type SLOReport struct {
	// Budget is the spec-declared per-request latency budget.
	Budget time.Duration `json:"budget_ns"`
	// AttainedPct is the fraction of completed requests within budget.
	AttainedPct float64 `json:"attained_pct"`
	// WindowPct is the fraction of horizon windows in which no completed
	// request exceeded the budget.
	WindowPct float64 `json:"window_pct"`
}

// NodeReport is one node's slice of the fleet report.
type NodeReport struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	Kills     int    `json:"kills"`
	Crashes   int    `json:"crashes"`
	Recovered int    `json:"recovered"`
	GaveUp    int    `json:"gave_up"`
	// MeanRecoveryMs averages detection-to-republish over this node's
	// recovery episodes.
	MeanRecoveryMs float64 `json:"mean_recovery_ms"`
}

// Report is the outcome of one fleet campaign. All fields derive from
// virtual time and the fleet seed, so two runs with the same Config are
// byte-identical after JSON encoding.
type Report struct {
	Nodes  int    `json:"nodes"`
	Seed   int64  `json:"seed"`
	Policy string `json:"policy"`
	Storm  string `json:"storm"`
	// Workload names the driving workload spec or trace ("classic" for
	// the default load; "" only when a caller passed unnamed arrivals).
	Workload string        `json:"workload,omitempty"`
	Horizon  time.Duration `json:"horizon_ns"`
	Window   time.Duration `json:"window_ns"`
	Windows  int           `json:"windows"`

	// AvailabilityPct is the headline number: fraction of windows in which
	// EVERY service class was served (see ClassReport.AvailabilityPct).
	AvailabilityPct float64 `json:"availability_pct"`
	// NodeAvailabilityPct is the policy-independent floor: fraction of
	// windows with ≥1 healthy node for every class.
	NodeAvailabilityPct float64 `json:"node_availability_pct"`

	Requests     int64 `json:"requests"`
	Completed    int64 `json:"completed"`
	Incomplete   int64 `json:"incomplete"` // still waiting at drain end
	Reroutes     int64 `json:"reroutes"`   // attempt-level bounce count
	ReroutedReqs int64 `json:"rerouted_requests"`

	Latency obs.LatencySummary `json:"latency"` // all classes pooled
	Classes []ClassReport      `json:"classes"`

	Kills        int     `json:"kills"`
	Crashes      int     `json:"crashes"`
	Recovered    int     `json:"recovered"`
	GaveUp       int     `json:"gave_up"`
	RecoveredPct float64 `json:"recovered_pct"`

	// MaxRecoveryOverlap is the peak number of nodes simultaneously
	// mid-recovery at a barrier; MeanRecoveryOverlap averages over
	// barriers.
	MaxRecoveryOverlap  int     `json:"max_recovery_overlap"`
	MeanRecoveryOverlap float64 `json:"mean_recovery_overlap"`

	PerNode []NodeReport `json:"per_node"`
}

// buildReport assembles the Report after the drain phase. It reorders
// and moves the latency logs, so Run calls it once.
func (c *Cluster) buildReport() *Report {
	r := &Report{
		Nodes:    len(c.nodes),
		Seed:     c.cfg.Seed,
		Policy:   c.policy.Name(),
		Storm:    c.cfg.Storm.String(),
		Workload: c.cfg.WorkloadName,
		Horizon:  time.Duration(c.horizon),
		Window:   time.Duration(c.cfg.Window),
		Windows:  c.tracker.windows,
	}

	allServed := 100.0
	for i, cl := range c.classes {
		served, node := c.tracker.availability(i)
		if served < allServed {
			allServed = served
		}
		mean := 0.0
		if c.tracker.barriers > 0 {
			mean = float64(c.tracker.healthySum[i]) / float64(c.tracker.barriers)
		}
		lat := c.latencies[i]
		r.Classes = append(r.Classes, ClassReport{
			Class:               cl,
			AvailabilityPct:     served,
			NodeAvailabilityPct: node,
			MeanHealthyNodes:    mean,
			Requests:            int64(len(lat)),
			Latency:             obs.SummarizeInPlace(lat),
			SLO:                 c.tracker.slo(i),
		})
	}
	r.AvailabilityPct = allServed
	nodeAll := 100.0
	for _, cr := range r.Classes {
		if cr.NodeAvailabilityPct < nodeAll {
			nodeAll = cr.NodeAvailabilityPct
		}
	}
	r.NodeAvailabilityPct = nodeAll
	// The class logs are runs of one buffer, each no longer than its
	// class's arrivals (see sizeLatencies), so they close up into its head.
	pool := c.latencyBuf[:0]
	for _, lat := range c.latencies {
		pool = append(pool, lat...)
	}
	r.Latency = obs.SummarizeInPlace(pool)

	r.Requests = c.nextReq
	r.Completed = int64(len(pool))
	r.Incomplete = c.outstanding
	r.Reroutes = c.rerouted
	r.ReroutedReqs = c.reroutedReqs

	for _, n := range c.nodes {
		nr := NodeReport{Name: n.Name, Seed: n.Seed, Kills: n.struck}
		var recSum sim.Time
		for _, ev := range n.Sys.RS.Events() {
			nr.Crashes++
			if ev.Recovered {
				nr.Recovered++
				recSum += ev.Duration
			}
			if ev.GaveUp {
				nr.GaveUp++
			}
		}
		if nr.Recovered > 0 {
			nr.MeanRecoveryMs = float64(recSum.Milliseconds()) / float64(nr.Recovered)
		}
		r.Kills += nr.Kills
		r.Crashes += nr.Crashes
		r.Recovered += nr.Recovered
		r.GaveUp += nr.GaveUp
		r.PerNode = append(r.PerNode, nr)
	}
	if r.Crashes > 0 {
		r.RecoveredPct = 100 * float64(r.Recovered) / float64(r.Crashes)
	} else {
		r.RecoveredPct = 100
	}
	if c.tracker.barriers > 0 {
		r.MeanRecoveryOverlap = float64(c.tracker.overlapSum) / float64(c.tracker.barriers)
	}
	r.MaxRecoveryOverlap = c.tracker.overlapMax
	return r
}

// WriteJSON writes the report as canonical indented JSON. Everything in
// it is virtual-time-derived, so the bytes are reproducible from the
// fleet seed.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render writes the human-readable summary.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "fleet: %d nodes, seed %d, policy %s, storm %s\n",
		r.Nodes, r.Seed, r.Policy, r.Storm)
	if r.Workload != "" {
		fmt.Fprintf(w, "workload: %s\n", r.Workload)
	}
	fmt.Fprintf(w, "horizon %s in %d windows of %s\n", r.Horizon, r.Windows, r.Window)
	fmt.Fprintf(w, "availability: %.2f%% served (node floor %.2f%%)\n",
		r.AvailabilityPct, r.NodeAvailabilityPct)
	for _, cr := range r.Classes {
		fmt.Fprintf(w, "  class %-5s %7.2f%% served, %6.2f%% node, mean healthy %.2f, %d reqs, p50 %s p95 %s p99 %s\n",
			cr.Class, cr.AvailabilityPct, cr.NodeAvailabilityPct, cr.MeanHealthyNodes,
			cr.Requests, time.Duration(cr.Latency.P50), time.Duration(cr.Latency.P95),
			time.Duration(cr.Latency.P99))
		if cr.SLO != nil {
			fmt.Fprintf(w, "        slo %s budget: %.2f%% of requests, %.2f%% of windows\n",
				cr.SLO.Budget, cr.SLO.AttainedPct, cr.SLO.WindowPct)
		}
	}
	fmt.Fprintf(w, "requests: %d arrived, %d completed, %d incomplete, %d reroutes (%d requests rerouted)\n",
		r.Requests, r.Completed, r.Incomplete, r.Reroutes, r.ReroutedReqs)
	fmt.Fprintf(w, "latency: p50 %s  p95 %s  p99 %s  max %s\n",
		time.Duration(r.Latency.P50), time.Duration(r.Latency.P95),
		time.Duration(r.Latency.P99), time.Duration(r.Latency.Max))
	fmt.Fprintf(w, "faults: %d kills -> %d crashes, %d recovered (%.1f%%), %d gave up\n",
		r.Kills, r.Crashes, r.Recovered, r.RecoveredPct, r.GaveUp)
	fmt.Fprintf(w, "recovery overlap: max %d nodes, mean %.3f\n",
		r.MaxRecoveryOverlap, r.MeanRecoveryOverlap)
	for _, nr := range r.PerNode {
		fmt.Fprintf(w, "  %s seed=%d kills=%d crashes=%d recovered=%d gaveup=%d meanrec=%.1fms\n",
			nr.Name, nr.Seed, nr.Kills, nr.Crashes, nr.Recovered, nr.GaveUp, nr.MeanRecoveryMs)
	}
}

// status is the fleet-level Status column for the timeseries sampler: one
// entry per node, in name order, summarizing the barrier snapshot.
func (c *Cluster) status() []timeseries.ServiceStatus {
	out := make([]timeseries.ServiceStatus, 0, len(c.byName))
	for _, n := range c.byName {
		h := n.health
		state := "live"
		switch {
		case h.GaveUp > 0:
			state = "gave-up"
		case h.Recovering > 0:
			state = "recovering"
		default:
			for _, cl := range c.classes {
				if !h.OK(cl) {
					state = "dead"
					break
				}
			}
		}
		out = append(out, timeseries.ServiceStatus{
			Label:    n.Name,
			State:    state,
			Failures: h.Failures,
		})
	}
	return out
}
