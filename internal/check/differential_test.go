package check_test

import (
	"fmt"
	"testing"
	"time"

	"resilientos"
	"resilientos/internal/check"
	"resilientos/internal/core"
	"resilientos/internal/ds"
	"resilientos/internal/fi"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/policy"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

// The differential tests run one seeded scenario twice on the real
// kernel, data store and reincarnation server: once as they are, so the
// checker gates its scans on their mutation counters, and once wrapped in
// types that expose nothing but the checker's view interfaces, so it
// scans on every step. The second run is the reference oracle; the two
// must report the same violations, element for element.

type (
	plainKernel struct{ check.KernelView }
	plainRS     struct{ check.RSView }
	plainDS     struct{ check.NameView }
)

// views fills in cfg's views, hiding the counters when plain is set. A
// nil pointer stays a nil view.
func views(cfg check.Config, plain bool, k *kernel.Kernel, rs *core.RS, d *ds.DS) check.Config {
	if k != nil {
		cfg.Kernel = k
		if plain {
			cfg.Kernel = plainKernel{k}
		}
	}
	if rs != nil {
		cfg.RS = rs
		if plain {
			cfg.RS = plainRS{rs}
		}
	}
	if d != nil {
		cfg.DS = d
		if plain {
			cfg.DS = plainDS{d}
		}
	}
	return cfg
}

// sameViolations runs the scenario gated and plain and compares. It
// returns the (agreed) violations for scenario-specific assertions.
func sameViolations(t *testing.T, scenario func(plain bool) []check.Violation) []check.Violation {
	t.Helper()
	want := scenario(true)
	got := scenario(false)
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(got):
			t.Errorf("violation %d missing from the gated run: %v", i, want[i])
		case i >= len(want):
			t.Errorf("violation %d only in the gated run: %v", i, got[i])
		case got[i] != want[i]:
			t.Errorf("violation %d differs:\n  gated: %v\n  plain: %v", i, got[i], want[i])
		}
	}
	return want
}

// slowRestart is a recovery script that dawdles for a second of virtual
// time, so every respawn keeps a defect span and a policy span open
// while the rest of the system carries on.
var slowRestart = policy.MustParse("sleep 1\nservice restart $1\n")

// swifiCell is one cell of the repo's SWIFI sweeps (recovery_test.go,
// tracing_test.go): a wget through the network driver while random
// faults are injected into the driver's code and the driver is killed
// now and then.
func swifiCell(seed int64, mech core.Mechanism, ckCfg check.Config, plain bool) []check.Violation {
	rec := obs.NewRecorder()
	rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
	sys := resilientos.New(resilientos.Config{
		Seed:        seed,
		DisableDisk: true,
		DisableChar: true,
		Obs:         rec,
		Mechanism:   mech,
		Salvage:     mech != core.MechRespawn,
		NetPolicy:   slowRestart,
	})
	ck := check.Attach(sys.Env, rec, views(ckCfg, plain, sys.Kernel, sys.RS, sys.DS))
	sys.Run(3 * time.Second)
	sys.ServeFile(80, seed, 2<<20)
	var w resilientos.WgetResult
	sys.Wget(resilientos.DriverRTL8139, 80, seed, 2<<20, &w)
	// SWIFI crashes are sparse; a periodic kill guarantees every cell
	// several recoveries whatever the corruption does.
	sys.Every(700*time.Millisecond, func() { sys.KillDriver(resilientos.DriverRTL8139) })
	injector := fi.New(sys.Env.Rand())
	injected, stall := 0, 0
	for injected < 8 && stall < 400 {
		sys.Run(50 * time.Millisecond)
		stall++
		vm := sys.DriverVM(resilientos.DriverRTL8139)
		if vm == nil || sys.RS.ServiceEndpoint(resilientos.DriverRTL8139) < 0 {
			continue // down or restarting: nothing to mutate
		}
		injector.InjectRandom(vm.Img)
		injected++
		stall = 0
	}
	sys.Run(5 * time.Second) // let the last crash resolve
	ck.Finish()
	return ck.Violations()
}

// TestDifferentialSWIFI sweeps 64 seeds over the three recovery
// mechanisms (respawn, and the failover sweep's standby and microreboot
// with salvage). The checker's thresholds are set below what a recovery
// through slowRestart needs, so that ordinary crashes trip the deadline
// invariants in the middle of a busy transfer: the sweep then compares
// violations whose timestamps depend on the deadline bookkeeping, not
// just pairs of empty lists (the sweeps in the root package already hold
// the real thresholds to zero violations with the gated checker).
func TestDifferentialSWIFI(t *testing.T) {
	if testing.Short() {
		t.Skip("64-seed sweep in -short mode")
	}
	tight := check.Config{
		MaxViolations:   4096,
		DeadGrace:       1, // any death RS has not yet heard of
		SpanDeadline:    50 * time.Millisecond,
		GrantGraceSteps: 1,
		HeartbeatSlack:  1,
	}
	mechs := []core.Mechanism{core.MechRespawn, core.MechStandby, core.MechMicroreboot}
	total := make(chan int, 64)
	t.Run("sweep", func(t *testing.T) {
		for seed := int64(1); seed <= 64; seed++ {
			seed, mech := seed, mechs[seed%3]
			t.Run(fmt.Sprintf("seed=%d,%s", seed, mech), func(t *testing.T) {
				t.Parallel()
				vs := sameViolations(t, func(plain bool) []check.Violation {
					return swifiCell(seed, mech, tight, plain)
				})
				total <- len(vs)
			})
		}
	})
	close(total)
	n := 0
	for v := range total {
		n += v
	}
	t.Logf("compared %d violations across 64 seeds", n)
	if n < 64 {
		t.Errorf("only %d violations in the whole sweep: the thresholds no longer bite, so the comparison proves little", n)
	}
}

// TestCountersCoverEveryChange checks the contract the gating rests on:
// whatever a view shows the checker may change only together with its
// counter. After every scheduler step of a full system under wget, dd,
// heartbeats, driver kills, a warm-standby promotion or microreboots and
// a dynamic update, each view is rendered to text; a rendering that
// differs from the previous step's while the counter stood still is a
// write site that forgot its bump.
func TestCountersCoverEveryChange(t *testing.T) {
	for _, mech := range []core.Mechanism{core.MechRespawn, core.MechStandby, core.MechMicroreboot} {
		t.Run(mech.String(), func(t *testing.T) {
			t.Parallel()
			sys := resilientos.New(resilientos.Config{
				Seed:          3,
				DisableChar:   true,
				Mechanism:     mech,
				Salvage:       mech != core.MechRespawn,
				NetPolicy:     slowRestart,
				PreallocFiles: []resilientos.PreallocFile{{Name: "big", Size: 64 << 20}},
			})
			type view struct {
				name    string
				version func() uint64
				render  func([]byte) []byte
				last    []byte
				lastVer uint64
			}
			k := sys.Kernel
			vs := []*view{
				{name: "kernel", version: k.Version, render: func(b []byte) []byte {
					k.VisitProcs(func(p kernel.ProcInfo) {
						b = fmt.Appendf(b, "%+v %v %v\n", p, k.LookupLabel(p.Label), k.Alive(p.Ep))
					})
					k.VisitGrants(func(g kernel.GrantInfo) {
						b = fmt.Appendf(b, "%+v %v\n", g, k.Alive(g.To))
					})
					return b
				}},
				{name: "rs", version: sys.RS.Version, render: func(b []byte) []byte {
					return fmt.Appendf(b, "%+v", sys.RS.Services())
				}},
				{name: "ds", version: sys.DS.Version, render: func(b []byte) []byte {
					sys.DS.VisitNames(func(name string, ep kernel.Endpoint) {
						b = fmt.Appendf(b, "%s=%v\n", name, ep)
					})
					return b
				}},
			}
			var scratch []byte
			steps, changes := 0, 0
			sys.Env.SetStepHook(func() {
				steps++
				for _, v := range vs {
					scratch = v.render(scratch[:0])
					ver := v.version()
					if string(scratch) != string(v.last) {
						changes++
						if ver == v.lastVer && steps > 1 && !t.Failed() {
							t.Errorf("step %d at %v: %s changed behind a still counter (%d)\nwas: %s\nnow: %s",
								steps, sys.Env.Now(), v.name, ver, v.last, scratch)
						}
						v.last = append(v.last[:0], scratch...)
					}
					v.lastVer = ver
				}
			})
			sys.Run(3 * time.Second)
			sys.ServeFile(80, 3, 4<<20)
			var w resilientos.WgetResult
			var dd resilientos.DdResult
			sys.Wget(resilientos.DriverRTL8139, 80, 3, 4<<20, &w)
			sys.Dd("big", 64<<10, &dd)
			sys.Every(300*time.Millisecond, func() { sys.KillDriver(resilientos.DriverRTL8139) })
			sys.Every(450*time.Millisecond, func() { sys.KillDriver(resilientos.DriverSATA) })
			sys.After(time.Second, func() {
				sys.UpdateDriver(core.ServiceConfig{Label: resilientos.DriverSATA, Version: "v2"})
			})
			sys.Run(4 * time.Second)
			if changes < 100 || w.Bytes == 0 || dd.Bytes == 0 {
				t.Fatalf("scenario too quiet to prove anything: %d view changes in %d steps, wget %d B, dd %d B",
					changes, steps, w.Bytes, dd.Bytes)
			}
		})
	}
}

// receiveForever is the body of a process that only needs to exist.
func receiveForever(c *kernel.Ctx) {
	for {
		if _, err := c.Receive(kernel.Any); err != nil {
			return
		}
	}
}

var allIPC = kernel.Privileges{AllowAllIPC: true, Calls: []kernel.Call{kernel.CallSafeCopy}}

// seededBugRig is a bare kernel with a recorder and an attached checker
// over whatever views the scenario builds.
type seededBugRig struct {
	env *sim.Env
	k   *kernel.Kernel
	rec *obs.Recorder
}

func newSeededBugRig() *seededBugRig {
	env := sim.NewEnv(7)
	k := kernel.New(env)
	rec := obs.NewRecorder()
	rec.SetClock(env.Now)
	obs.AttachSim(env, rec)
	k.SetObs(rec)
	return &seededBugRig{env: env, k: k, rec: rec}
}

// finish runs the scenario to the horizon with a no-op event every 10 ms
// — a deadline can only fire at a step, and these rigs are otherwise
// idle — and returns the checker's verdict.
func (r *seededBugRig) finish(ck *check.Checker, horizon sim.Time) []check.Violation {
	tick := r.env.Tick(10*time.Millisecond, func() {})
	r.env.Run(horizon)
	tick.Stop()
	ck.Finish()
	return ck.Violations()
}

func mustSpawn(t *testing.T, k *kernel.Kernel, label string, body func(*kernel.Ctx)) kernel.Endpoint {
	t.Helper()
	ctx, err := k.Spawn(label, allIPC, body)
	if err != nil {
		t.Fatal(err)
	}
	return ctx.Endpoint()
}

// publishAs spawns a process bearing the reincarnation server's label —
// the only one the data store accepts naming changes from — that
// publishes name -> ep after the given delay.
func publishAs(t *testing.T, k *kernel.Kernel, dsEp kernel.Endpoint, after sim.Time, name string, ep kernel.Endpoint) {
	t.Helper()
	mustSpawn(t, k, core.Label, func(c *kernel.Ctx) {
		c.Sleep(after)
		_, _ = c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: name, Arg1: int64(ep)})
		receiveForever(c)
	})
}

// TestDifferentialSeededBugs plants each bug the checker exists to catch
// into real components and requires the gated checker to catch it exactly
// as the scan-every-step reference does.
func TestDifferentialSeededBugs(t *testing.T) {
	cases := []struct {
		name      string
		invariant string
		scenario  func(t *testing.T, plain bool) []check.Violation
	}{
		{"leaked-grants", "grant-safety", func(t *testing.T, plain bool) []check.Violation {
			// The kernel forgets to revoke a dead owner's grants.
			r := newSeededBugRig()
			r.k.DebugLeakGrantsOnDeath(true)
			ck := check.Attach(r.env, r.rec, views(check.Config{}, plain, r.k, nil, nil))
			grantee := mustSpawn(t, r.k, "grantee", receiveForever)
			owner := mustSpawn(t, r.k, "owner", func(c *kernel.Ctx) {
				c.CreateGrant(make([]byte, 64), kernel.GrantRead, grantee)
				receiveForever(c)
			})
			r.env.Schedule(10*time.Millisecond, func() { _ = r.k.Kill(owner, kernel.SIGKILL) })
			return r.finish(ck, 50*time.Millisecond)
		}},
		{"stale-grantee", "grant-safety", func(t *testing.T, plain bool) []check.Violation {
			// An owner never revokes its grant to a dead incarnation: the
			// violation is due a fixed number of scheduler steps later.
			r := newSeededBugRig()
			ck := check.Attach(r.env, r.rec, views(check.Config{GrantGraceSteps: 8}, plain, r.k, nil, nil))
			grantee := mustSpawn(t, r.k, "grantee", receiveForever)
			mustSpawn(t, r.k, "owner", func(c *kernel.Ctx) {
				c.CreateGrant(make([]byte, 64), kernel.GrantRead, grantee)
				receiveForever(c)
			})
			r.env.Schedule(10*time.Millisecond, func() { _ = r.k.Kill(grantee, kernel.SIGKILL) })
			return r.finish(ck, 500*time.Millisecond)
		}},
		{"stale-endpoint", "stale-endpoint", func(t *testing.T, plain bool) []check.Violation {
			// A driver is replaced behind the data store's back: the name
			// keeps resolving to the dead incarnation.
			r := newSeededBugRig()
			d, dsEp, err := ds.StartServer(r.k)
			if err != nil {
				t.Fatal(err)
			}
			ck := check.Attach(r.env, r.rec, views(check.Config{}, plain, r.k, nil, d))
			first := mustSpawn(t, r.k, "eth.x", receiveForever)
			publishAs(t, r.k, dsEp, time.Millisecond, "eth.x", first)
			r.env.Schedule(10*time.Millisecond, func() { _ = r.k.Kill(first, kernel.SIGKILL) })
			r.env.Schedule(20*time.Millisecond, func() { mustSpawn(t, r.k, "eth.x", receiveForever) })
			return r.finish(ck, 50*time.Millisecond)
		}},
		{"standby-serves", "failover", func(t *testing.T, plain bool) []check.Violation {
			// The dead primary's name is published onto the parked replica
			// before the promotion (relabel) that would make that legal.
			r := newSeededBugRig()
			d, dsEp, err := ds.StartServer(r.k)
			if err != nil {
				t.Fatal(err)
			}
			ck := check.Attach(r.env, r.rec, views(check.Config{}, plain, r.k, nil, d))
			primary := mustSpawn(t, r.k, "eth.x", receiveForever)
			replica := mustSpawn(t, r.k, "eth.x/sb", receiveForever)
			publishAs(t, r.k, dsEp, 5*time.Millisecond, "eth.x", replica)
			r.env.Schedule(2*time.Millisecond, func() { _ = r.k.Kill(primary, kernel.SIGKILL) })
			r.env.Schedule(30*time.Millisecond, func() {
				if err := r.k.Relabel(replica, "eth.x"); err != nil {
					t.Error(err)
				}
			})
			return r.finish(ck, 50*time.Millisecond)
		}},
		{"dead-beyond-grace", "rs-guard", func(t *testing.T, plain bool) []check.Violation {
			// The process manager never reports deaths, so a guarded
			// driver stays dead while RS believes it runs. Nothing changes
			// after the death: only the clock carries the checker past
			// DeadGrace.
			r := newSeededBugRig()
			mutePM := mustSpawn(t, r.k, "pm", func(c *kernel.Ctx) {
				for {
					m, err := c.Receive(kernel.Any)
					if err != nil {
						return
					}
					_ = c.Send(m.Source, kernel.Message{Type: proto.PMSubscribe})
				}
			})
			d, dsEp, err := ds.StartServer(r.k)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := core.Start(r.k, mutePM, dsEp)
			if err != nil {
				t.Fatal(err)
			}
			ck := check.Attach(r.env, r.rec, views(check.Config{}, plain, r.k, rs, d))
			rs.StartService(core.ServiceConfig{Label: "eth.x", Binary: receiveForever, Priv: allIPC})
			r.env.Schedule(100*time.Millisecond, func() {
				_ = r.k.Kill(rs.ServiceEndpoint("eth.x"), kernel.SIGKILL)
			})
			return r.finish(ck, time.Second)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := sameViolations(t, func(plain bool) []check.Violation { return tc.scenario(t, plain) })
			if len(vs) != 1 || vs[0].Invariant != tc.invariant {
				t.Fatalf("seeded bug reported as %v, want exactly one %s violation", vs, tc.invariant)
			}
		})
	}
}
