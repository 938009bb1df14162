package campaign

import (
	"reflect"
	"testing"

	"resilientos"
	"resilientos/internal/drivers/dp8390"
	"resilientos/internal/fi"
	"resilientos/internal/hw"
	"resilientos/internal/obs"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// TestPristineImageConcurrentCells runs two dp8390 cells at once on the
// workers of sim.Each (under -race in CI). Their driver instances all run
// copies of one shared pristine image, so after every injection the
// victim's image differs from the assembler's only where that VM's own
// injector wrote — never where the other cell's did — and each cell
// reports exactly what it reports when it runs alone.
func TestPristineImageConcurrentCells(t *testing.T) {
	cfg := Config{FaultsPerCell: 20}
	cfg.fill()
	cells := []Cell{
		{Seed: 1, Victim: resilientos.DriverDP8390, Fault: fi.FaultRandom},
		{Seed: 2, Victim: resilientos.DriverDP8390, Fault: fi.FaultRandom},
	}
	want := dp8390.Image(hw.PortNIC1)
	together := make([]CellResult, len(cells))
	sim.Each(2, len(cells), func(i int) {
		own := map[*ucode.VM]map[int]bool{} // per instance: what its injector wrote
		together[i] = runCellKeeping(cells[i], cfg, obs.TimelineKinds, func(vm *ucode.VM, inj fi.Injection) {
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
	})
	if t.Failed() {
		return // a shared image is wrecked by now: a cell alone would run on it for minutes
	}
	for i, cell := range cells {
		if together[i].Injected == 0 || together[i].Crashes == 0 {
			t.Fatalf("%v: %d injected, %d crashes: not the cell this test needs", cell, together[i].Injected, together[i].Crashes)
		}
		if alone := runCell(cell, cfg); !reflect.DeepEqual(alone, together[i]) {
			t.Errorf("%v reports differently run beside another cell:\n%+v\nalone:\n%+v", cell, together[i], alone)
		}
	}
}
