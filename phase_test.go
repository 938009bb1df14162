package resilientos

import (
	"slices"
	"testing"
	"time"

	"resilientos/internal/core"
	"resilientos/internal/policy"
)

// TestServicePhases drives eth.rtl8139 through every phase of the
// reincarnation server's ladder (DESIGN §10): a dynamic update, recovery
// under a policy backoff, an in-place microreboot, an administrative stop
// and a give-up. At every scheduler step where the driver's phase moves,
// the RS snapshot, the node's health and the windowed status column must
// agree on it.
func TestServicePhases(t *testing.T) {
	sys := New(Config{
		DisableDisk: true, DisableChar: true,
		Mechanism:   core.MechMicroreboot,
		NetPolicy:   policy.MustParse("sleep 1\nservice restart $1\n"),
		MaxRestarts: 2, // the microreboot and the first kill are the two
	})
	defer sys.Close()
	// What each phase must read as: the status column's string, and
	// whether node health counts the driver as up, recovering or given up.
	type reading struct {
		status                 string
		up, recovering, gaveUp int
	}
	want := map[core.Phase]reading{
		core.PhaseServing:        {"live", 1, 0, 0},
		core.PhaseTerminating:    {"live", 1, 0, 0},
		core.PhaseRecovering:     {"recovering", 0, 1, 0},
		core.PhaseMicrorebooting: {"recovering", 0, 1, 0},
		core.PhaseStopping:       {"stopped", 0, 0, 0},
		core.PhaseStopped:        {"stopped", 0, 0, 0},
		core.PhaseGaveUp:         {"gave-up", 0, 0, 1},
	}
	phaseOf := func(svcs []core.ServiceInfo, label string) (core.Phase, bool) {
		i := slices.IndexFunc(svcs, func(s core.ServiceInfo) bool { return s.Label == label })
		if i < 0 {
			return 0, false
		}
		return svcs[i].Phase, true
	}
	status := sys.StatusFunc()
	var seen []core.Phase
	sys.Env.SetStepHook(func() {
		svcs := sys.RS.Services()
		p, ok := phaseOf(svcs, DriverRTL8139)
		if !ok || len(seen) > 0 && seen[len(seen)-1] == p {
			return
		}
		seen = append(seen, p)
		var got reading
		for _, s := range status() {
			if s.Label == DriverRTL8139 {
				got.status = s.State
			}
		}
		h := sys.Health()
		if h.NetOK {
			got.up = 1
		}
		got.recovering, got.gaveUp = h.Recovering, h.GaveUp
		// Only the driver moves; inet, the other half of the net class,
		// serves throughout once it has booted.
		if inet, _ := phaseOf(svcs, ServerInet); inet != core.PhaseServing {
			got.up = want[p].up
		}
		if got != want[p] {
			t.Errorf("phase %v reads %+v, want %+v", p, got, want[p])
		}
	})

	sys.Run(time.Second)
	sys.UpdateDriver(core.ServiceConfig{Label: DriverRTL8139, Version: "v2"})
	sys.Run(3 * time.Second)
	// A VM crash under load: the driver asks to reboot in place.
	const size = 64 << 20
	sys.ServeFile(80, 7, size)
	var res WgetResult
	sys.Wget(DriverRTL8139, 80, 7, size, &res)
	sys.Run(time.Second)
	sys.CrashDriverVM(DriverRTL8139)
	sys.Run(time.Second)
	sys.KillDriver(DriverRTL8139)
	sys.Run(3 * time.Second)
	sys.RS.StopService(DriverRTL8139)
	sys.Run(time.Second)
	sys.UpdateDriver(core.ServiceConfig{Label: DriverRTL8139, Version: "v3"})
	sys.Run(3 * time.Second)
	sys.KillDriver(DriverRTL8139) // the third charged failure exceeds MaxRestarts
	sys.Run(time.Second)

	ladder := []core.Phase{
		core.PhaseServing,
		core.PhaseTerminating, core.PhaseRecovering, core.PhaseServing, // update, policy backoff
		core.PhaseMicrorebooting, core.PhaseServing, // in-place reset
		core.PhaseRecovering, core.PhaseServing, // kill, policy backoff
		core.PhaseStopping, core.PhaseStopped,
		core.PhaseRecovering, core.PhaseServing, // an update restarts a stopped service
		core.PhaseGaveUp,
	}
	if !slices.Equal(seen, ladder) {
		t.Fatalf("phases %v, want %v", seen, ladder)
	}
}
