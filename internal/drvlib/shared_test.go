package drvlib

import (
	"encoding/binary"
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

// TestEthCapsuleSaveAdopt is the salvage contract of the shared Ethernet
// half, for both chips: what a predecessor saves, a successor of the same
// chip adopts — and nothing else.
func TestEthCapsuleSaveAdopt(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	idle := func(c *kernel.Ctx) { c.Sleep(time.Hour) }
	live, err := k.Spawn("inet", kernel.Privileges{}, idle)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := k.Spawn("inet.old", kernel.Privileges{}, func(*kernel.Ctx) {})
	if err != nil {
		t.Fatal(err)
	}
	raw := func(ep kernel.Endpoint) []byte {
		return binary.LittleEndian.AppendUint64(nil, uint64(ep))
	}
	if _, err := k.Spawn("drv", kernel.Privileges{}, func(c *kernel.Ctx) {
		c.Sleep(time.Millisecond) // let inet.old finish dying
		if k.Alive(gone.Endpoint()) {
			t.Error("test premise broken: the stale client is still alive")
		}
		for _, chip := range []string{"rtl8139", "dp8390"} {
			other := map[string]string{"rtl8139": "dp8390", "dp8390": "rtl8139"}[chip]
			saved := func(client kernel.Endpoint) (string, []byte) {
				return (&Eth{VMDevice: VMDevice{Chip: chip}, client: client}).SaveState(c)
			}
			boundKind, bound := saved(live.Endpoint())
			_, unbound := saved(0)
			cases := []struct {
				name    string
				kind    string
				payload []byte
				wantErr bool
				want    kernel.Endpoint // successor's client afterwards
			}{
				{"bound client adopted", boundKind, bound, false, live.Endpoint()},
				{"unbound predecessor", boundKind, unbound, false, 0},
				{"explicit None", boundKind, raw(kernel.None), false, 0},
				{"dead client endpoint", boundKind, raw(gone.Endpoint()), true, 0},
				{"other chip's capsule", other + ".conf", bound, true, 0},
				{"foreign kind", "sata.queue", bound, true, 0},
				{"short payload", boundKind, bound[:7], true, 0},
				{"long payload", boundKind, append([]byte{1}, bound...), true, 0},
			}
			for _, tc := range cases {
				succ := &Eth{VMDevice: VMDevice{Chip: chip}}
				err := succ.RestoreState(c, tc.kind, tc.payload)
				if (err != nil) != tc.wantErr || succ.client != tc.want {
					t.Errorf("%s, %s: err=%v client=%v, want error=%v client=%v",
						chip, tc.name, err, succ.client, tc.wantErr, tc.want)
				}
			}
			if boundKind != chip+".conf" {
				t.Errorf("%s saves kind %q", chip, boundKind)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	env.Run(time.Second)
}
