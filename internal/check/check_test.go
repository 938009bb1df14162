package check_test

import (
	"strings"
	"testing"
	"time"

	"resilientos"
	"resilientos/internal/check"
	"resilientos/internal/core"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/policy"
	"resilientos/internal/sim"
)

// ---------------------------------------------------------------------
// Fake views: each invariant is driven from a hand-built system state.

func ep(slot, gen int) kernel.Endpoint { return kernel.Endpoint(gen*4096 + slot) }

type fakeKernel struct {
	procs  []kernel.ProcInfo
	grants []kernel.GrantInfo
	labels map[string]kernel.Endpoint
	alive  map[kernel.Endpoint]bool
	scans  int // VisitProcs calls: one per state scan
}

func (f *fakeKernel) VisitProcs(fn func(kernel.ProcInfo)) {
	f.scans++
	for _, p := range f.procs {
		fn(p)
	}
}

func (f *fakeKernel) VisitGrants(fn func(kernel.GrantInfo)) {
	for _, g := range f.grants {
		fn(g)
	}
}

func (f *fakeKernel) LookupLabel(l string) kernel.Endpoint {
	if e, ok := f.labels[l]; ok {
		return e
	}
	return kernel.None
}

func (f *fakeKernel) Alive(e kernel.Endpoint) bool { return f.alive[e] }

type fakeRS struct {
	svcs  []core.ServiceInfo
	scans int // Services calls: one per state scan
}

func (f *fakeRS) Services() []core.ServiceInfo { f.scans++; return f.svcs }

type nameEntry struct {
	name string
	ep   kernel.Endpoint
}

type fakeDS struct{ names []nameEntry }

func (f *fakeDS) VisitNames(fn func(string, kernel.Endpoint)) {
	for _, n := range f.names {
		fn(n.name, n.ep)
	}
}

// The versioned fakes add the mutation counter the real kernel, data
// store and reincarnation server expose, which switches the checker from
// scan-every-step to scan-on-change. The tests that use them never move
// the counter: only the clock or the step count advances.
type (
	verKernel struct {
		fakeKernel
		ver uint64
	}
	verRS struct {
		fakeRS
		ver uint64
	}
	verDS struct {
		fakeDS
		ver uint64
	}
)

func (f *verKernel) Version() uint64 { return f.ver }
func (f *verRS) Version() uint64     { return f.ver }
func (f *verDS) Version() uint64     { return f.ver }

func liveProc(slot, gen int, label string) kernel.ProcInfo {
	return kernel.ProcInfo{Slot: slot, Gen: gen, Ep: ep(slot, gen), Label: label, Alive: true}
}

func countInvariant(c *check.Checker, invariant string) int {
	n := 0
	for _, v := range c.Violations() {
		if v.Invariant == invariant {
			n++
		}
	}
	return n
}

func wantInvariant(t *testing.T, c *check.Checker, invariant string) check.Violation {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Invariant == invariant {
			return v
		}
	}
	t.Fatalf("no %q violation; got %v", invariant, c.Violations())
	return check.Violation{}
}

func TestCleanStateOK(t *testing.T) {
	fk := &fakeKernel{
		procs:  []kernel.ProcInfo{liveProc(0, 1, "rs"), liveProc(1, 2, "eth.x")},
		labels: map[string]kernel.Endpoint{"rs": ep(0, 1), "eth.x": ep(1, 2)},
		alive:  map[kernel.Endpoint]bool{ep(0, 1): true, ep(1, 2): true},
	}
	fr := &fakeRS{svcs: []core.ServiceInfo{{Label: "eth.x", Ep: ep(1, 2), Phase: core.PhaseServing}}}
	fd := &fakeDS{names: []nameEntry{{"eth.x", ep(1, 2)}}}
	c := check.New(check.Config{Kernel: fk, RS: fr, DS: fd})
	for i := 0; i < 100; i++ {
		c.Step()
	}
	c.Finish()
	if !c.Ok() {
		t.Fatalf("clean state reported violations: %v", c.Violations())
	}
}

func TestDuplicateEndpoint(t *testing.T) {
	fk := &fakeKernel{procs: []kernel.ProcInfo{
		liveProc(3, 1, "a"),
		{Slot: 3, Gen: 1, Ep: ep(3, 1), Label: "b", Alive: true},
	}}
	c := check.New(check.Config{Kernel: fk})
	c.Step()
	v := wantInvariant(t, c, "endpoint-unique")
	if !strings.Contains(v.Detail, "shared") {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
}

func TestDuplicateLabel(t *testing.T) {
	fk := &fakeKernel{procs: []kernel.ProcInfo{liveProc(1, 1, "mfs"), liveProc(2, 1, "mfs")}}
	c := check.New(check.Config{Kernel: fk})
	c.Step()
	v := wantInvariant(t, c, "endpoint-unique")
	if !strings.Contains(v.Detail, `label "mfs"`) {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
}

func TestEndpointSlotMismatch(t *testing.T) {
	fk := &fakeKernel{procs: []kernel.ProcInfo{
		{Slot: 5, Gen: 1, Ep: ep(4, 1), Label: "a", Alive: true},
	}}
	c := check.New(check.Config{Kernel: fk})
	c.Step()
	wantInvariant(t, c, "endpoint-unique")
}

func TestDeadOwnerKeepsGrants(t *testing.T) {
	fk := &fakeKernel{procs: []kernel.ProcInfo{
		{Slot: 2, Gen: 1, Ep: ep(2, 1), Label: "mfs", Alive: false, Grants: 2},
	}}
	c := check.New(check.Config{Kernel: fk})
	c.Step()
	v := wantInvariant(t, c, "grant-safety")
	if !strings.Contains(v.Detail, "dead instance") {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
}

func TestStaleGranteeGrantGrace(t *testing.T) {
	dead := ep(7, 1)
	fk := &fakeKernel{
		procs: []kernel.ProcInfo{liveProc(1, 1, "mfs")},
		grants: []kernel.GrantInfo{
			{Owner: ep(1, 1), OwnerLabel: "mfs", ID: 9, To: dead, Access: kernel.GrantRead, Len: 512},
		},
		alive: map[kernel.Endpoint]bool{ep(1, 1): true}, // dead is not alive
	}
	c := check.New(check.Config{Kernel: fk, GrantGraceSteps: 4})
	for i := 0; i < 4; i++ {
		c.Step()
	}
	if n := countInvariant(c, "grant-safety"); n != 0 {
		t.Fatalf("violation inside revocation grace window: %v", c.Violations())
	}
	for i := 0; i < 3; i++ {
		c.Step()
	}
	wantInvariant(t, c, "grant-safety")

	// Revoking the grant re-arms the episode.
	fk.grants = nil
	c.Step()
}

func TestGrantToAnyIsFine(t *testing.T) {
	fk := &fakeKernel{
		procs: []kernel.ProcInfo{liveProc(1, 1, "mfs")},
		grants: []kernel.GrantInfo{
			{Owner: ep(1, 1), OwnerLabel: "mfs", ID: 1, To: kernel.Any, Access: kernel.GrantWrite},
		},
	}
	c := check.New(check.Config{Kernel: fk, GrantGraceSteps: 1})
	for i := 0; i < 10; i++ {
		c.Step()
	}
	if !c.Ok() {
		t.Fatalf("grant to Any flagged: %v", c.Violations())
	}
}

func TestStaleEndpointAfterRestart(t *testing.T) {
	fk := &fakeKernel{
		procs:  []kernel.ProcInfo{liveProc(1, 2, "eth.x")},
		labels: map[string]kernel.Endpoint{"eth.x": ep(1, 2)},
		alive:  map[kernel.Endpoint]bool{ep(1, 2): true},
	}
	fd := &fakeDS{names: []nameEntry{{"eth.x", ep(1, 1)}}} // stale generation
	c := check.New(check.Config{Kernel: fk, DS: fd})
	c.Step()
	v := wantInvariant(t, c, "stale-endpoint")
	if !strings.Contains(v.Detail, "live instance") {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
}

func TestStaleEndpointPublishWindow(t *testing.T) {
	fk := &fakeKernel{
		procs:  []kernel.ProcInfo{liveProc(1, 2, "eth.x")},
		labels: map[string]kernel.Endpoint{"eth.x": ep(1, 2)},
		alive:  map[kernel.Endpoint]bool{ep(1, 2): true},
	}
	fd := &fakeDS{names: []nameEntry{{"eth.x", ep(1, 1)}}}
	c := check.New(check.Config{Kernel: fk, DS: fd})

	// Restart announced: the publish is legitimately in flight.
	c.Emit(&obs.Event{Kind: obs.KindRestart, Comp: "eth.x", V1: int64(ep(1, 2))})
	for i := 0; i < 50; i++ {
		c.Step()
	}
	if n := countInvariant(c, "stale-endpoint"); n != 0 {
		t.Fatalf("violation during publish window: %v", c.Violations())
	}

	// Publish lands but the data store still shows the old endpoint (the
	// fake never updates): now it is a real violation.
	c.Emit(&obs.Event{Kind: obs.KindPublish, Comp: "ds", Aux: "eth.x", V1: int64(ep(1, 2))})
	c.Step()
	wantInvariant(t, c, "stale-endpoint")
}

func TestStaleEndpointNoLiveInstanceSkipped(t *testing.T) {
	// StopService leaves the name behind with no live instance; that is
	// not reachable-stale (nothing to confuse it with), so no violation.
	fk := &fakeKernel{labels: map[string]kernel.Endpoint{}}
	fd := &fakeDS{names: []nameEntry{{"chr.audio", ep(3, 1)}}}
	c := check.New(check.Config{Kernel: fk, DS: fd})
	c.Step()
	if !c.Ok() {
		t.Fatalf("withdrawn-instance name flagged: %v", c.Violations())
	}
}

func TestRSGuardEndpointMismatch(t *testing.T) {
	fk := &fakeKernel{
		procs:  []kernel.ProcInfo{liveProc(1, 2, "eth.x")},
		labels: map[string]kernel.Endpoint{"eth.x": ep(1, 2)},
		alive:  map[kernel.Endpoint]bool{ep(1, 2): true},
	}
	fr := &fakeRS{svcs: []core.ServiceInfo{{Label: "eth.x", Ep: ep(1, 1), Phase: core.PhaseServing}}}
	c := check.New(check.Config{Kernel: fk, RS: fr})
	c.Step()
	v := wantInvariant(t, c, "rs-guard")
	if !strings.Contains(v.Detail, "kernel's live") {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
}

// TestRSGuardDeadBeyondGrace: in every phase where RS vouches for a live
// instance, a death it has not noticed within the grace is a violation.
func TestRSGuardDeadBeyondGrace(t *testing.T) {
	for _, phase := range []core.Phase{core.PhaseServing, core.PhaseTerminating, core.PhaseMicrorebooting} {
		t.Run(phase.String(), func(t *testing.T) {
			var now sim.Time
			fk := &fakeKernel{labels: map[string]kernel.Endpoint{}} // instance gone
			fr := &fakeRS{svcs: []core.ServiceInfo{{Label: "eth.x", Ep: ep(1, 1), Phase: phase}}}
			c := check.New(check.Config{
				Kernel: fk, RS: fr,
				Now:       func() sim.Time { return now },
				DeadGrace: 10 * time.Millisecond,
			})
			c.Step() // arms deadSince at t=0
			now = 5 * time.Millisecond
			c.Step()
			if n := countInvariant(c, "rs-guard"); n != 0 {
				t.Fatalf("violation inside death-detection grace: %v", c.Violations())
			}
			now = 11 * time.Millisecond
			c.Step()
			wantInvariant(t, c, "rs-guard")
		})
	}
}

func TestRSGuardStoppedServiceIgnored(t *testing.T) {
	var now sim.Time
	fk := &fakeKernel{labels: map[string]kernel.Endpoint{}}
	fr := &fakeRS{svcs: []core.ServiceInfo{
		{Label: "chr.audio", Ep: ep(1, 1), Phase: core.PhaseStopped},
		{Label: "eth.bad", Ep: ep(2, 1), Phase: core.PhaseGaveUp},
		// SIGTERM sent, its death not yet reported to RS: expected.
		{Label: "chr.printer", Ep: ep(3, 1), Phase: core.PhaseStopping},
	}}
	c := check.New(check.Config{
		Kernel: fk, RS: fr,
		Now: func() sim.Time { return now }, DeadGrace: time.Millisecond,
	})
	for i := 0; i < 10; i++ {
		now += time.Millisecond
		c.Step()
	}
	if !c.Ok() {
		t.Fatalf("stopped/given-up services flagged: %v", c.Violations())
	}
}

func TestHeartbeatMissesAtThreshold(t *testing.T) {
	fr := &fakeRS{svcs: []core.ServiceInfo{{
		Label: "eth.x", Ep: ep(1, 1), Phase: core.PhaseServing,
		HeartbeatPeriod: 500 * time.Millisecond, HeartbeatMisses: 3,
		Missed: 3, Awaiting: true,
	}}}
	c := check.New(check.Config{RS: fr})
	c.Step()
	v := wantInvariant(t, c, "heartbeat")
	if !strings.Contains(v.Detail, "consecutive heartbeat misses") {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
}

func TestHeartbeatMonitoringStalled(t *testing.T) {
	var now sim.Time = 10 * time.Second
	fr := &fakeRS{svcs: []core.ServiceInfo{{
		Label: "eth.x", Ep: ep(1, 1), Phase: core.PhaseServing,
		HeartbeatPeriod: 500 * time.Millisecond, HeartbeatMisses: 3,
		NextPing: time.Second, // ping due 9s ago, never sent
	}}}
	c := check.New(check.Config{RS: fr, Now: func() sim.Time { return now }})
	c.Step()
	v := wantInvariant(t, c, "heartbeat")
	if !strings.Contains(v.Detail, "stalled") {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
}

func TestDefectSpanDeadline(t *testing.T) {
	var now sim.Time
	c := check.New(check.Config{
		Now:          func() sim.Time { return now },
		SpanDeadline: time.Second,
	})
	c.Emit(&obs.Event{T: 0, Kind: obs.KindDefect, Comp: "eth.x", Aux: "exit"})
	now = 500 * time.Millisecond
	c.Step()
	if n := countInvariant(c, "trace-span"); n != 0 {
		t.Fatalf("violation before deadline: %v", c.Violations())
	}
	now = 1500 * time.Millisecond
	c.Step()
	v := wantInvariant(t, c, "trace-span")
	if !strings.Contains(v.Detail, "unresolved") {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
}

func TestSpanClosedByRestartAndGiveUp(t *testing.T) {
	var now sim.Time
	c := check.New(check.Config{Now: func() sim.Time { return now }, SpanDeadline: time.Second})
	c.Emit(&obs.Event{Kind: obs.KindDefect, Comp: "eth.x"})
	c.Emit(&obs.Event{Kind: obs.KindRestart, Comp: "eth.x"})
	c.Emit(&obs.Event{Kind: obs.KindDefect, Comp: "disk.sata"})
	c.Emit(&obs.Event{Kind: obs.KindGiveUp, Comp: "disk.sata"})
	now = 10 * time.Second
	c.Step()
	c.Finish()
	if !c.Ok() {
		t.Fatalf("closed spans flagged: %v", c.Violations())
	}
}

func TestPolicySpanNeverExits(t *testing.T) {
	c := check.New(check.Config{})
	c.Emit(&obs.Event{T: time.Second, Kind: obs.KindPolicyStart, Comp: "eth.x"})
	c.Finish()
	v := wantInvariant(t, c, "trace-span")
	if !strings.Contains(v.Detail, "never exited") {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
}

func TestFinishFlagsOpenSpan(t *testing.T) {
	c := check.New(check.Config{})
	c.Emit(&obs.Event{Kind: obs.KindDefect, Comp: "eth.x"})
	c.Finish()
	wantInvariant(t, c, "trace-span")
}

func TestMarkResetsOpenState(t *testing.T) {
	c := check.New(check.Config{})
	c.Emit(&obs.Event{Kind: obs.KindDefect, Comp: "eth.x"})
	c.Emit(&obs.Event{Kind: obs.KindPolicyStart, Comp: "eth.x"})
	c.Emit(&obs.Event{Kind: obs.KindMark, Comp: "experiment", Aux: "run-boundary"})
	c.Finish()
	if !c.Ok() {
		t.Fatalf("state survived a mark: %v", c.Violations())
	}
}

func TestViolationEpisodeDedup(t *testing.T) {
	fk := &fakeKernel{procs: []kernel.ProcInfo{
		{Slot: 2, Gen: 1, Ep: ep(2, 1), Label: "mfs", Alive: false, Grants: 1},
	}}
	c := check.New(check.Config{Kernel: fk})
	for i := 0; i < 500; i++ {
		c.Step()
	}
	if n := countInvariant(c, "grant-safety"); n != 1 {
		t.Fatalf("persistent condition reported %d times, want 1", n)
	}
}

func TestTraceTailKeepsRecentEvents(t *testing.T) {
	c := check.New(check.Config{TraceTail: 4})
	for i := 0; i < 10; i++ {
		c.Emit(&obs.Event{T: sim.Time(i), Kind: obs.KindHeartbeat, Comp: "eth.x"})
	}
	tail := c.TraceTail()
	if len(tail) != 4 {
		t.Fatalf("tail length %d, want 4", len(tail))
	}
	if tail[0].T != 6 || tail[3].T != 9 {
		t.Fatalf("tail not the most recent events: %v", tail)
	}
}

// ---------------------------------------------------------------------
// Scan gating: with versioned views a quiet step skips the scans, yet
// every deadline must fire at the step it fires at when every step scans.

// firstViolation steps c up to n times, advancing *now by dt before each
// step, and returns the 1-based step at which c first reports anything
// (0 = never).
func firstViolation(c *check.Checker, now *sim.Time, dt sim.Time, n int) int {
	for i := 1; i <= n; i++ {
		*now += dt
		c.Step()
		if !c.Ok() {
			return i
		}
	}
	return 0
}

func TestGatedDeadlinesFireAtTheSameStep(t *testing.T) {
	const dt = 7 * time.Millisecond // never lands exactly on a deadline
	deadSvc := []core.ServiceInfo{{Label: "eth.x", Ep: ep(1, 1), Phase: core.PhaseServing}}
	stalledSvc := []core.ServiceInfo{{
		Label: "eth.x", Ep: ep(1, 1), Phase: core.PhaseServing,
		HeartbeatPeriod: 50 * time.Millisecond, HeartbeatMisses: 3,
		NextPing: 100 * time.Millisecond, // never sent, never re-armed
	}}
	staleGrant := fakeKernel{
		procs: []kernel.ProcInfo{liveProc(1, 1, "mfs")},
		grants: []kernel.GrantInfo{
			{Owner: ep(1, 1), OwnerLabel: "mfs", ID: 9, To: ep(7, 1), Access: kernel.GrantRead, Len: 512},
		},
		alive: map[kernel.Endpoint]bool{ep(1, 1): true}, // the grantee is dead
	}
	cases := []struct {
		name      string
		invariant string
		kernel    fakeKernel
		svcs      []core.ServiceInfo
		emit      []obs.Event
		wantScans int // state scans the gated checker may spend
	}{
		// Scan 1 arms the deadline, scan 2 fires it; nothing in between.
		// (An empty kernel has no live instance of any label.)
		{name: "dead-beyond-grace", invariant: "rs-guard", svcs: deadSvc, wantScans: 2},
		{name: "heartbeat-stall", invariant: "heartbeat", svcs: stalledSvc, wantScans: 2},
		{name: "defect-span", invariant: "trace-span",
			emit: []obs.Event{{Kind: obs.KindDefect, Comp: "eth.x"}}, wantScans: 2},
		{name: "policy-span", invariant: "trace-span",
			emit: []obs.Event{{Kind: obs.KindPolicyStart, Comp: "eth.x"}}, wantScans: 2},
		// A stale grant ages in steps, so it is rescanned on every one.
		{name: "stale-grant", invariant: "grant-safety", kernel: staleGrant, wantScans: 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := check.Config{
				DeadGrace: 200 * time.Millisecond, SpanDeadline: 300 * time.Millisecond,
				GrantGraceSteps: 4,
			}
			run := func(k check.KernelView, rs check.RSView, ds check.NameView) (int, []check.Violation) {
				var now sim.Time
				cfg := cfg
				cfg.Kernel, cfg.RS, cfg.DS = k, rs, ds
				cfg.Now = func() sim.Time { return now }
				c := check.New(cfg)
				for _, e := range tc.emit {
					c.Emit(&e)
				}
				return firstViolation(c, &now, dt, 100), c.Violations()
			}
			plainK, plainRS := tc.kernel, fakeRS{svcs: tc.svcs}
			wantStep, want := run(&plainK, &plainRS, &fakeDS{})
			gatedK, gatedRS := verKernel{fakeKernel: tc.kernel}, verRS{fakeRS: fakeRS{svcs: tc.svcs}}
			gotStep, got := run(&gatedK, &gatedRS, &verDS{})

			if wantStep == 0 || len(want) != 1 || want[0].Invariant != tc.invariant {
				t.Fatalf("reference run: step %d, violations %v; want one %s", wantStep, want, tc.invariant)
			}
			if gotStep != wantStep {
				t.Errorf("gated checker fired at step %d, scanning every step fires at %d", gotStep, wantStep)
			}
			if len(got) != 1 || got[0] != want[0] {
				t.Errorf("gated checker reported %v, want %v", got, want)
			}
			if plainK.scans != wantStep || plainRS.scans != wantStep {
				t.Errorf("reference scanned %d/%d times in %d steps; it must scan on every one",
					plainK.scans, plainRS.scans, wantStep)
			}
			if gatedK.scans != tc.wantScans || gatedRS.scans != tc.wantScans {
				t.Errorf("gated checker scanned %d/%d times in %d steps, want %d",
					gatedK.scans, gatedRS.scans, gotStep, tc.wantScans)
			}
		})
	}
}

// TestGatedScanFollowsCounters: a change behind a still counter is by
// contract invisible, and moving any one counter rescans everything.
func TestGatedScanFollowsCounters(t *testing.T) {
	fk := &verKernel{fakeKernel: fakeKernel{
		procs:  []kernel.ProcInfo{liveProc(1, 2, "eth.x")},
		labels: map[string]kernel.Endpoint{"eth.x": ep(1, 2)},
		alive:  map[kernel.Endpoint]bool{ep(1, 2): true},
	}}
	fr := &verRS{fakeRS: fakeRS{svcs: []core.ServiceInfo{{Label: "eth.x", Ep: ep(1, 2), Phase: core.PhaseServing}}}}
	fd := &verDS{fakeDS: fakeDS{names: []nameEntry{{"eth.x", ep(1, 2)}}}}
	c := check.New(check.Config{Kernel: fk, RS: fr, DS: fd})
	for i := 0; i < 100; i++ {
		c.Step()
	}
	if fk.scans != 1 || fr.scans != 1 {
		t.Fatalf("100 quiet steps cost %d/%d scans, want 1 (the first)", fk.scans, fr.scans)
	}
	fd.names[0].ep = ep(1, 1) // stale, but the data store's counter stands still
	c.Step()
	if !c.Ok() {
		t.Fatalf("scanned without a counter moving: %v", c.Violations())
	}
	for _, bump := range []*uint64{&fd.ver, &fk.ver, &fr.ver} {
		before := fk.scans
		*bump++
		c.Step()
		c.Step()
		if fk.scans != before+1 {
			t.Fatalf("counter bump caused %d scans over two steps, want 1", fk.scans-before)
		}
	}
	wantInvariant(t, c, "stale-endpoint")

	// So does an event that rewrites state the scans read, with every
	// counter still — and only such an event.
	before := fk.scans
	c.Emit(&obs.Event{Kind: obs.KindSpanBegin, Comp: "inet", Span: 1})
	c.Step()
	if fk.scans != before {
		t.Fatal("a causal-span event, which no scan reads, caused a scan")
	}
	c.Emit(&obs.Event{Kind: obs.KindRestart, Comp: "eth.x"})
	c.Step()
	c.Step()
	if fk.scans != before+1 {
		t.Fatalf("a restart event caused %d scans over two steps, want 1", fk.scans-before)
	}
}

// ---------------------------------------------------------------------
// Real-system tests: the checker rides a full booted OS.

// TestFullSystemUnderCrashesHoldsInvariants drives the standard machine
// through repeated driver crashes with the checker attached to every
// scheduler step; the seed system must hold every invariant.
func TestFullSystemUnderCrashesHoldsInvariants(t *testing.T) {
	const seed, size = 42, int64(2 << 20)
	rec := obs.NewRecorder()
	rec.Disable(obs.KindIPCSend, obs.KindIPCRecv) // hot kinds; not needed here
	sys := resilientos.New(resilientos.Config{Seed: seed, Obs: rec})
	ck := check.Attach(sys.Env, rec, check.Config{
		Kernel: sys.Kernel, RS: sys.RS, DS: sys.DS,
	})
	sys.Run(3 * time.Second) // boot settle
	sys.ServeFile(80, seed, size)
	var res resilientos.WgetResult
	sys.Wget(resilientos.DriverRTL8139, 80, seed, size, &res)
	sys.Every(700*time.Millisecond, func() { sys.KillDriver(resilientos.DriverRTL8139) })
	sys.Every(1100*time.Millisecond, func() { sys.KillDriver(resilientos.DriverSATA) })
	sys.Run(10 * time.Second)
	ck.Finish()
	for _, v := range ck.Violations() {
		t.Errorf("invariant violation: %v", v)
	}
	if res.Bytes == 0 {
		t.Error("wget transferred nothing; workload never exercised the system")
	}
}

// TestStopDuringBackoffHoldsInvariants: an administrative stop that
// lands while a driver's policy script sleeps out its backoff closes the
// recovery span and the decision episode, so neither the trace-span nor
// the decision family fires, and the trace counts no recovery.
func TestStopDuringBackoffHoldsInvariants(t *testing.T) {
	rec := obs.NewRecorder()
	rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
	trace := &obs.SliceSink{}
	rec.AddSink(trace)
	dec := decision.NewRecorder()
	sys := resilientos.New(resilientos.Config{
		Obs: rec, Decisions: dec, DisableDisk: true, DisableChar: true,
		NetPolicy: policy.MustParse("sleep 1\nservice restart $1\n"),
	})
	defer sys.Close()
	ck := check.Attach(sys.Env, rec, check.Config{Kernel: sys.Kernel, RS: sys.RS, DS: sys.DS})
	dec.AddSink(ck.DecisionSink())
	sys.Run(time.Second)
	sys.KillDriver(resilientos.DriverRTL8139)
	sys.Run(500 * time.Millisecond)
	sys.RS.StopService(resilientos.DriverRTL8139)
	sys.Run(5 * time.Second)
	ck.Finish()
	for _, v := range ck.Violations() {
		t.Errorf("invariant violation: %v", v)
	}
	for _, sp := range obs.Timeline(trace.Events()) {
		if sp.Comp == resilientos.DriverRTL8139 && sp.Latency() > 0 {
			t.Errorf("the stop counts as a recovery: %v", sp)
		}
	}
	if ep := sys.Kernel.LookupLabel(resilientos.DriverRTL8139); ep != kernel.None {
		t.Errorf("instance %v runs; the script's restart overrode the stop", ep)
	}
}

// TestBrokenKernelCaught deliberately breaks the kernel's grants-die-
// with-their-owner invariant (test-only reap mutation) and proves the
// checker catches it — with a trace tail usable as a repro.
func TestBrokenKernelCaught(t *testing.T) {
	run := func(broken bool) *check.Checker {
		env := sim.NewEnv(7)
		k := kernel.New(env)
		rec := obs.NewRecorder()
		rec.SetClock(env.Now)
		k.SetObs(rec)
		k.DebugLeakGrantsOnDeath(broken)
		ck := check.Attach(env, rec, check.Config{Kernel: k})

		priv := kernel.Privileges{AllowAllIPC: true, Calls: []kernel.Call{kernel.CallSafeCopy}}
		bCtx, err := k.Spawn("grantee", priv, func(c *kernel.Ctx) {
			_, _ = c.Receive(kernel.Any)
		})
		if err != nil {
			t.Fatal(err)
		}
		aCtx, err := k.Spawn("owner", priv, func(c *kernel.Ctx) {
			c.CreateGrant(make([]byte, 64), kernel.GrantRead|kernel.GrantWrite, bCtx.Endpoint())
			_, _ = c.Receive(kernel.Any)
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Schedule(10*time.Millisecond, func() {
			_ = k.Kill(aCtx.Endpoint(), kernel.SIGKILL)
		})
		env.Run(50 * time.Millisecond)
		ck.Finish()
		return ck
	}

	if ck := run(false); !ck.Ok() {
		t.Fatalf("intact kernel flagged: %v", ck.Violations())
	}
	ck := run(true)
	v := wantInvariant(t, ck, "grant-safety")
	if !strings.Contains(v.Detail, "grants must die with their owner") {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
	if len(ck.TraceTail()) == 0 {
		t.Fatal("no trace tail for the repro dump")
	}
}

// ---------------------------------------------------------------------
// Failover invariant: standby-never-serves.

// failoverState builds a kernel with a live primary and its parked warm
// standby replica; published names are the caller's choice.
func failoverState(names []nameEntry) (*fakeKernel, *fakeDS) {
	fk := &fakeKernel{
		procs: []kernel.ProcInfo{
			liveProc(0, 1, "rs"),
			liveProc(1, 2, "eth.x"),
			liveProc(2, 1, "eth.x/sb"),
		},
		labels: map[string]kernel.Endpoint{
			"rs": ep(0, 1), "eth.x": ep(1, 2), "eth.x/sb": ep(2, 1),
		},
		alive: map[kernel.Endpoint]bool{ep(0, 1): true, ep(1, 2): true, ep(2, 1): true},
	}
	return fk, &fakeDS{names: names}
}

func TestStandbyParkedIsFine(t *testing.T) {
	fk, fd := failoverState([]nameEntry{{"eth.x", ep(1, 2)}})
	c := check.New(check.Config{Kernel: fk, DS: fd})
	for i := 0; i < 100; i++ {
		c.Step()
	}
	c.Finish()
	if !c.Ok() {
		t.Fatalf("parked standby flagged: %v", c.Violations())
	}
}

func TestStandbyServesBeforePromotion(t *testing.T) {
	// The data store resolves the service name to the live, unpromoted
	// replica — a standby serving before promotion.
	fk, fd := failoverState([]nameEntry{{"eth.x", ep(2, 1)}})
	c := check.New(check.Config{Kernel: fk, DS: fd})
	c.Step()
	v := wantInvariant(t, c, "failover")
	if !strings.Contains(v.Detail, "standby") {
		t.Fatalf("unexpected detail: %q", v.Detail)
	}
	if n := countInvariant(c, "failover"); n != 1 {
		t.Fatalf("violation reported %d times before repromotion", n)
	}

	// Promotion relabels the replica onto the service label; the same
	// endpoint serving is now legal and the episode clears.
	fk.procs[2].Label = "eth.x"
	fk.procs[1].Alive = false
	fk.alive[ep(1, 2)] = false
	c.Step()
	if n := countInvariant(c, "failover"); n != 1 {
		t.Fatalf("promotion did not clear the episode: %d violations", n)
	}
}
