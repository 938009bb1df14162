package campaign

import (
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	_ "unsafe" // for go:linkname

	"resilientos"
	"resilientos/internal/drivers/dp8390"
	"resilientos/internal/drivers/rtl8139"
	"resilientos/internal/drivers/sata"
	"resilientos/internal/fi"
	"resilientos/internal/hw"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// pristine is internal/drvlib's cache of assembled driver images, one per
// (chip, port base). It stays unexported there; the test reads it here.
//
//go:linkname pristine resilientos/internal/drvlib.pristine
var pristine sync.Map

// TestPristineImageConcurrentCells runs two dp8390 cells and an rtl8139
// cell at once on two workers of sim.Each (under -race in CI). Their
// driver instances all run copies of the shared pristine images, so after
// every injection the victim's image differs from its assembler's only
// where that VM's own injector wrote — never where another cell's did,
// nor where the mutated instance that crashed before it did: each cell
// must mutate a respawned instance too. Each cell reports exactly what it
// reports when it runs alone, and afterwards every cached image is still
// what its assembler makes.
func TestPristineImageConcurrentCells(t *testing.T) {
	cfg := Config{FaultsPerCell: 20}
	cfg.fill()
	cells := []Cell{
		{Seed: 1, Victim: resilientos.DriverDP8390, Fault: fi.FaultRandom},
		{Seed: 2, Victim: resilientos.DriverDP8390, Fault: fi.FaultRandom},
		{Seed: 1, Victim: resilientos.DriverRTL8139, Fault: fi.FaultRandom},
	}
	assembled := map[string]*ucode.Image{
		resilientos.DriverDP8390:  dp8390.Image(hw.PortNIC1),
		resilientos.DriverRTL8139: rtl8139.Image(hw.PortNIC0),
	}
	together := make([]CellResult, len(cells))
	instances := make([]int, len(cells))
	sim.Each(2, len(cells), func(i int) {
		want := assembled[cells[i].Victim]
		own := map[*ucode.VM]map[int]bool{} // per instance: what its injector wrote
		together[i] = runCellWith(cells[i], cfg, func(vm *ucode.VM, inj fi.Injection) {
			if own[vm] == nil {
				own[vm] = map[int]bool{}
			}
			own[vm][inj.PC] = true
			for pc, in := range vm.Img.Code {
				if in != want.Code[pc] && !own[vm][pc] {
					t.Errorf("%v: instruction %d is mutated, and not by this instance's injector", cells[i], pc)
					return
				}
			}
		})
		instances[i] = len(own)
	})
	if t.Failed() {
		return // a shared image is wrecked by now: a cell alone would run on it for minutes
	}
	for i, cell := range cells {
		if together[i].Injected == 0 || together[i].Crashes == 0 || instances[i] < 2 {
			t.Fatalf("%v: %d injected, %d crashes, %d instances mutated: not the cell this test needs",
				cell, together[i].Injected, together[i].Crashes, instances[i])
		}
		if alone := runCell(cell, cfg); !reflect.DeepEqual(alone, together[i]) {
			t.Errorf("%v reports differently run beside another cell:\n%+v\nalone:\n%+v", cell, together[i], alone)
		}
	}

	assemble := map[string]func(uint32) *ucode.Image{
		"rtl8139": rtl8139.Image, "dp8390": dp8390.Image, "sata": sata.Image,
	}
	chips := map[string]bool{}
	pristine.Range(func(k, v any) bool {
		key := reflect.ValueOf(k) // drvlib.imageKey{chip, base}
		chip, base := key.Field(0).String(), uint32(key.Field(1).Uint())
		img, fn := v.(*ucode.Image), assemble[chip]
		if fn == nil || !slices.Equal(img.Code, fn(base).Code) || !maps.Equal(img.Entries, fn(base).Entries) {
			t.Errorf("cached image of %s at %#x is not the assembler's", chip, base)
		}
		chips[chip] = true
		return true
	})
	if !chips["rtl8139"] || !chips["dp8390"] {
		t.Errorf("cached images of %v, want at least rtl8139 and dp8390", chips)
	}
}
