package cluster

import (
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // for go:linkname

	"resilientos"
	"resilientos/internal/drivers/dp8390"
	"resilientos/internal/drivers/rtl8139"
	"resilientos/internal/drivers/sata"
	"resilientos/internal/hw"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// pristine is internal/drvlib's cache of assembled driver images, one per
// (chip, port base). It stays unexported there; the test reads it here.
//
//go:linkname pristine resilientos/internal/drvlib.pristine
var pristine sync.Map

// TestPristineImageSurvivesInjectStorm: four members boot their drivers
// from the shared images and get SWIFI mutations into their running
// rtl8139 copies, on two CPUs at once (and under -race in CI). Afterwards
// every cached image is still what the assembler makes, and a driver
// respawned after the storm — four at once again — starts from it, not
// from the mutated copy its predecessor ran.
func TestPristineImageSurvivesInjectStorm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const driver = resilientos.DriverRTL8139
	cfg := testConfig()
	cfg.Storm = Storm{Kind: "correlated", Driver: driver, K: 4, Interval: 250 * time.Millisecond, Mode: ModeInject}
	c := New(cfg)
	defer c.Close()
	if r := c.Run(); r.Injections == 0 {
		t.Fatal("no injection landed: not the storm this test needs")
	}

	assemble := map[string]func(uint32) *ucode.Image{
		"rtl8139": rtl8139.Image, "dp8390": dp8390.Image, "sata": sata.Image,
	}
	same := func(a, b *ucode.Image) bool {
		return slices.Equal(a.Code, b.Code) && maps.Equal(a.Entries, b.Entries)
	}
	cached := 0
	pristine.Range(func(k, v any) bool {
		key := reflect.ValueOf(k) // drvlib.imageKey{chip, base}
		chip, base := key.Field(0).String(), uint32(key.Field(1).Uint())
		if fn := assemble[chip]; fn == nil || !same(v.(*ucode.Image), fn(base)) {
			t.Errorf("cached image of %s at %#x is not the assembler's", chip, base)
		}
		cached++
		return true
	})
	if cached < 3 {
		t.Errorf("%d images cached, want one per chip and base (at least rtl8139, dp8390, sata)", cached)
	}

	want := rtl8139.Image(hw.PortNIC0)
	var mutated atomic.Int32
	sim.Each(0, len(c.nodes), func(i int) {
		n := c.nodes[i]
		old := n.Sys.DriverVM(driver)
		if !same(old.Img, want) {
			mutated.Add(1)
		}
		n.Sys.KillDriver(driver)
		for i := 0; i < 50 && n.Sys.DriverVM(driver) == old; i++ {
			n.Sys.Run(100 * time.Millisecond)
		}
		if vm := n.Sys.DriverVM(driver); vm == old || !same(vm.Img, want) {
			t.Errorf("%s: the respawned %s does not run a pristine copy", n.Name, driver)
		}
	})
	if mutated.Load() == 0 {
		t.Fatal("no member ended the storm running a mutated image: the respawn check proved nothing")
	}
}
