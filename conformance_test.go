package resilientos

import (
	"crypto/sha1"
	"fmt"
	"sync"
	"testing"
	"time"

	"resilientos/internal/check"
	"resilientos/internal/core"
	"resilientos/internal/obs"
)

// conformanceFaults are the three ways a driver instance is taken away
// from under a transfer: an external SIGKILL no in-process mechanism can
// intercept, an internal defect in the running ucode (the one fault a
// microreboot absorbs in place), and a clean dynamic update (the one
// handover the old instance takes part in, through its SIGTERM shutdown).
var conformanceFaults = []struct {
	name   string
	strike func(sys *System, label string)
}{
	{"kill", (*System).KillDriver},
	{"vmcrash", (*System).CrashDriverVM},
	{"update", func(sys *System, label string) { sys.UpdateDriver(core.ServiceConfig{Label: label}) }},
}

// ddReference returns the SHA-1 a clean read of the conformance file
// yields (the file's content depends only on the default disk seed).
var ddReference = sync.OnceValue(func() [sha1.Size]byte {
	sys := New(Config{DisableNet: true, DisableChar: true, PreallocFiles: conformanceFile})
	var res DdResult
	sys.Dd("/big", 64<<10, &res)
	sys.Run(time.Minute)
	return res.SHA1
})

var conformanceFile = []PreallocFile{{Name: "big", Size: 8 << 20}}

// TestRecoveryConformance is the predecessor/successor contract every
// ucode driver owes under every rung of the recovery ladder, as one
// table: {driver} × {mechanism} × {salvage=false, true} × {fault}, 54
// cells. Three strikes 70 ms apart land in a 4 MiB wget (network
// drivers) or an 8 MiB dd (disk driver) with the live invariant checker
// attached. Whatever mix of respawn, promotion and in-place reset the
// cell takes, the application must see nothing: the transfer completes
// with the right bytes, no invariant is violated, and RS logged a
// recovery of the victim. The driver half of all of it is drvlib's — a
// driver that passes here does so without recovery code of its own.
//
// The salvage level asks whether state survives the restart. The one way
// it does is the data-store backup, which the data store hands to
// whichever instance bears the owner's stable label (paper §5.3); so a
// salvage=true cell also checks that the instance serving after the
// strikes is the one the data store authenticates as the victim.
func TestRecoveryConformance(t *testing.T) { recoveryConformance(t) }

func recoveryConformance(t *testing.T) {
	for _, victim := range []string{DriverRTL8139, DriverDP8390, DriverSATA} {
		for _, mech := range []core.Mechanism{core.MechRespawn, core.MechMicroreboot, core.MechStandby} {
			for _, salvage := range []bool{false, true} {
				for _, fault := range conformanceFaults {
					name := fmt.Sprintf("%s/%s/salvage=%v/%s", victim, mech, salvage, fault.name)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						conformanceCell(t, victim, mech, salvage, fault.strike)
					})
				}
			}
		}
	}
}

func conformanceCell(t *testing.T, victim string, mech core.Mechanism, salvage bool,
	strike func(*System, string)) {
	disk := victim == DriverSATA
	rec := obs.NewRecorder()
	rec.Disable(obs.KindIPCSend, obs.KindIPCRecv)
	sys := New(Config{
		Seed: 3, DisableNet: disk, DisableDisk: !disk, DisableChar: true,
		Obs: rec, Mechanism: mech, PreallocFiles: conformanceFile,
	})
	ck := check.Attach(sys.Env, rec, check.Config{Kernel: sys.Kernel, RS: sys.RS, DS: sys.DS})
	sys.Run(3 * time.Second) // boot settle

	var w WgetResult
	var d DdResult
	if disk {
		sys.Dd("/big", 64<<10, &d)
	} else {
		sys.ServeFile(80, 3, 4<<20)
		sys.Wget(victim, 80, 3, 4<<20, &w)
	}
	for i := 1; i <= 3; i++ {
		sys.After(time.Duration(i)*70*time.Millisecond, func() { strike(sys, victim) })
	}
	sys.Run(2 * time.Minute)
	ck.Finish()

	if disk {
		if d.Err != nil || d.Bytes != conformanceFile[0].Size || d.SHA1 != ddReference() {
			t.Errorf("dd: bytes=%d err=%v sha1 ok=%v", d.Bytes, d.Err, d.SHA1 == ddReference())
		}
	} else if w.Err != nil || !w.OK {
		t.Errorf("wget: bytes=%d ok=%v err=%v", w.Bytes, w.OK, w.Err)
	}
	for _, v := range ck.Violations() {
		t.Errorf("invariant violation: %v", v)
	}
	recovered := 0
	for _, e := range sys.RS.Events() {
		if e.Label == victim && e.Recovered {
			recovered++
		}
	}
	if recovered == 0 {
		t.Errorf("no recovery of %s in the RS event log: the strikes missed", victim)
	}
	if salvage {
		ep := sys.RS.ServiceEndpoint(victim)
		if owner := sys.Kernel.LabelOf(ep); owner != victim {
			t.Errorf("%s is served by %v, which the data store knows as %q: the backups of %s are out of its reach",
				victim, ep, owner, victim)
		}
	}
}
