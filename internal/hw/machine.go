package hw

import (
	"resilientos/internal/kernel"
	"resilientos/internal/sim"
)

// Canonical machine layout: port bases and IRQ lines for the devices the
// reproduction's standard machine carries. Drivers receive privileges for
// exactly their device's range and line (least authority, paper §4). The
// single-instance devices (disk, codec, printer, burner) always sit here.
const (
	PortNIC0    uint32 = 0x1000 // RTL8139-class NIC (local host)
	PortNIC1    uint32 = 0x1100 // DP8390-class NIC (fault-injection target)
	PortDisk    uint32 = 0x2000 // SATA-class disk
	PortAudio   uint32 = 0x3000
	PortPrinter uint32 = 0x3100
	PortBurner  uint32 = 0x3200

	IRQNIC0    = 9
	IRQNIC1    = 10
	IRQDisk    = 14
	IRQAudio   = 5
	IRQPrinter = 7
	IRQBurner  = 11
)

// MachineConfig tunes the standard machine.
type MachineConfig struct {
	DiskSeed int64 // content seed for unwritten sectors
	// ConfusableNICs turns on the §7.2 hardware gate on both local NICs:
	// a garbage control value can wedge the card (NICWedgeProb), and a
	// wedge can be deep (NICDeepWedgeProb).
	ConfusableNICs bool
}

// Machine is the standard simulated hardware complement: two NICs (one
// wired to a remote peer), a disk, and the character devices.
type Machine struct {
	NIC0    *NIC // local NIC used by the RTL8139-class driver
	NIC1    *NIC // local NIC used by the DP8390-class driver
	Remote  *NIC // the far end of NIC0's wire (the "Internet" peer)
	Remote1 *NIC // the far end of NIC1's wire
	Wire0   *Wire
	Wire1   *Wire
	Disk    *Disk
	Audio   *Audio
	Printer *Printer
	Burner  *Burner
}

// NewMachine builds the standard machine on the environment and kernel.
func NewMachine(env *sim.Env, k *kernel.Kernel, cfg MachineConfig) *Machine {
	m := &Machine{}
	m.NIC0 = NewNIC(env, k, NICConfig{Base: PortNIC0, IRQ: IRQNIC0, Confusable: cfg.ConfusableNICs})
	m.NIC1 = NewNIC(env, k, NICConfig{Base: PortNIC1, IRQ: IRQNIC1, Confusable: cfg.ConfusableNICs})
	// Remote peers live outside the simulated OS: their "drivers" are
	// ideal and never fail, so only the local side's recovery is measured.
	m.Remote = NewNIC(env, k, NICConfig{Base: 0xF000, IRQ: 30})
	m.Remote1 = NewNIC(env, k, NICConfig{Base: 0xF100, IRQ: 31})
	m.Wire0 = Connect(env, m.NIC0, m.Remote)
	m.Wire1 = Connect(env, m.NIC1, m.Remote1)
	m.Disk = NewDisk(env, k, DiskConfig{
		Sectors: 8 << 20, // 8 Mi sectors = 4 GiB
		Seed:    cfg.DiskSeed,
	})
	m.Audio = NewAudio(env, k)
	m.Printer = NewPrinter(env, k)
	m.Burner = NewBurner(env, k)
	return m
}
