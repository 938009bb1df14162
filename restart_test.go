package resilientos

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
	_ "unsafe" // for go:linkname

	"resilientos/internal/core"
	"resilientos/internal/drivers/dp8390"
	"resilientos/internal/drivers/rtl8139"
	"resilientos/internal/drivers/sata"
	"resilientos/internal/hw"
	"resilientos/internal/ucode"
)

// pristine is internal/drvlib's cache of assembled driver images, one per
// (chip, port base). It stays unexported there; the test reads it here.
//
//go:linkname pristine resilientos/internal/drvlib.pristine
var pristine sync.Map

// vmBirth is what a driver VM holds the moment it is made, before it
// runs a single routine.
type vmBirth struct {
	ram      [ucode.RAMWords]uint32
	regs     [ucode.NumRegs]uint32
	code     []ucode.Instr
	recycled bool // its RAM block is one the test filled with junk
}

// TestRestartRunsPristineState: a successor starts from the pristine
// image and nothing else, whatever its predecessor left behind — even
// though a restart hands it the predecessor's recycled RAM block. For
// each ucode driver under each recovery mechanism, three strikes land in
// a transfer; each fills the live VM's RAM and registers with junk and
// then crashes it (CrashDriverVM overwrites its code). Every VM made
// after boot must hold, at its birth, exactly what the boot instance's
// VM held at its birth (a fresh zeroed block plus what Plant seeds),
// zeroed registers, and the assembler's code; at least one of them must
// run on a junked block, or the reuse went untested. Afterwards every
// cached pristine image is still the assembler's.
func TestRestartRunsPristineState(t *testing.T) {
	assemble := map[string]func(uint32) *ucode.Image{
		"rtl8139": rtl8139.Image, "dp8390": dp8390.Image, "sata": sata.Image,
	}
	for _, victim := range []string{DriverRTL8139, DriverDP8390, DriverSATA} {
		for _, mech := range []core.Mechanism{core.MechRespawn, core.MechMicroreboot, core.MechStandby} {
			t.Run(fmt.Sprintf("%s/%s", victim, mech), func(t *testing.T) {
				t.Parallel()
				restartRunsPristine(t, victim, mech)
			})
		}
	}
	t.Cleanup(func() {
		pristine.Range(func(k, v any) bool {
			key := reflect.ValueOf(k) // drvlib.imageKey{chip, base}
			chip, base := key.Field(0).String(), uint32(key.Field(1).Uint())
			img, fn := v.(*ucode.Image), assemble[chip]
			if fn == nil || !slices.Equal(img.Code, fn(base).Code) || !maps.Equal(img.EntryTable(), fn(base).EntryTable()) {
				t.Errorf("cached image of %s at %#x is not the assembler's", chip, base)
			}
			return true
		})
	})
}

func restartRunsPristine(t *testing.T, victim string, mech core.Mechanism) {
	disk := victim == DriverSATA
	sys := New(Config{
		Seed: 3, DisableNet: disk, DisableDisk: !disk, DisableChar: true,
		Mechanism: mech, PreallocFiles: conformanceFile,
	})
	defer sys.Close()
	junked := map[*[ucode.RAMWords]uint32]bool{}
	var births []vmBirth
	made := 0
	sys.onVM = func(label string, vm *ucode.VM) {
		if made++; made == 64 {
			sys.Env.Stop() // drivers that crash at birth restart without end
		}
		if label == victim {
			births = append(births, vmBirth{ram: *vm.RAM, regs: vm.Regs,
				code: slices.Clone(vm.Img.Code), recycled: junked[vm.RAM]})
		}
	}
	sys.Run(3 * time.Second) // boot settle
	if len(births) != 1 {
		t.Fatalf("%d VMs of %s made at boot, want 1", len(births), victim)
	}
	var w WgetResult
	var d DdResult
	if disk {
		sys.Dd("/big", 64<<10, &d)
	} else {
		sys.ServeFile(80, 3, 4<<20)
		sys.Wget(victim, 80, 3, 4<<20, &w)
	}
	for i := 1; i <= 3; i++ {
		sys.After(time.Duration(i)*70*time.Millisecond, func() {
			vm := sys.DriverVM(victim)
			if vm.RAM == nil {
				return // released: its instance is gone, the successor not yet made
			}
			for j := range vm.RAM {
				vm.RAM[j] = 0xDEAD0000 | uint32(j)
			}
			for j := range vm.Regs {
				vm.Regs[j] = 0xBAD0 | uint32(j)
			}
			junked[vm.RAM] = true
			sys.CrashDriverVM(victim)
		})
	}
	sys.Run(2 * time.Minute)

	if disk && (d.Err != nil || d.Bytes != conformanceFile[0].Size) || !disk && (w.Err != nil || !w.OK) {
		t.Errorf("transfer under the strikes: wget %+v, dd bytes=%d err=%v", w, d.Bytes, d.Err)
	}
	want := assembleFor(victim)
	boot, recycled := births[0], 0
	if !slices.Equal(boot.code, want.Code) {
		t.Fatalf("the boot instance runs other code than the assembler's")
	}
	for i, b := range births[1:] {
		if b.ram != boot.ram {
			for j := range b.ram {
				if b.ram[j] != boot.ram[j] {
					t.Errorf("successor %d: RAM[%d] = %#x at birth, want %#x (recycled block: %v)",
						i+1, j, b.ram[j], boot.ram[j], b.recycled)
					break
				}
			}
		}
		if b.regs != ([ucode.NumRegs]uint32{}) {
			t.Errorf("successor %d: registers %x at birth, want zero", i+1, b.regs)
		}
		if !slices.Equal(b.code, want.Code) {
			t.Errorf("successor %d runs other code than the assembler's", i+1)
		}
		if b.recycled {
			recycled++
		}
	}
	if len(births) < 2 || recycled == 0 {
		t.Errorf("%d successors, %d of them on a junked block: the strikes tested no reuse", len(births)-1, recycled)
	}
}

// assembleFor assembles victim's pristine image at the port base the
// standard machine gives its device.
func assembleFor(victim string) *ucode.Image {
	switch victim {
	case DriverRTL8139:
		return rtl8139.Image(hw.PortNIC0)
	case DriverDP8390:
		return dp8390.Image(hw.PortNIC1)
	}
	return sata.Image(hw.PortDisk)
}
