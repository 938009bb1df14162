package drvlib

import (
	"testing"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// TestResetCycleTimesOut drives the shared reset→poll cycle against a
// device that never becomes ready — because its status register stays
// busy, or because the status routine itself keeps failing. Either way
// Init must give up with an error once Timeout has passed, so the
// instance dies naming its reason instead of polling forever.
func TestResetCycleTimesOut(t *testing.T) {
	cases := map[string]string{
		"status stays busy": ".entry reset\nreset:\n\thalt\n.entry status\nstatus:\n\tmovi r1, 1\n\thalt\n",
		"status call fails": ".entry reset\nreset:\n\thalt\n.entry status\nstatus:\n\tfail\n",
	}
	for name, src := range cases {
		env := sim.NewEnv(1)
		k := kernel.New(env)
		d := &VMDevice{
			Chip:  "stub: " + name, // one pristine image per chip
			Image: func(uint32) *ucode.Image { return ucode.MustAssemble(src, nil) },
			IRQ:   3, Poll: 10 * time.Millisecond, Timeout: 200 * time.Millisecond,
			Ready: StatusBits{Mask: 1},
		}
		var err error
		var took sim.Time
		returned := false
		if _, e := k.Spawn("drv", kernel.Privileges{
			Calls: []kernel.Call{kernel.CallIRQCtl}, IRQs: []int{3},
		}, func(c *kernel.Ctx) {
			err = d.Init(c)
			took, returned = c.Now(), true
		}); e != nil {
			t.Fatal(e)
		}
		env.Run(time.Minute)
		if !returned {
			t.Fatalf("%s: Init still polling after a minute", name)
		}
		if err == nil || took <= d.Timeout || took > d.Timeout+2*d.Poll {
			t.Errorf("%s: Init returned %v at %v, want a timeout error just past %v",
				name, err, took, d.Timeout)
		}
	}
}
