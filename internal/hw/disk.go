package hw

import (
	"encoding/binary"

	"resilientos/internal/kernel"
	"resilientos/internal/sim"
)

// SectorSize is the disk sector size in bytes.
const SectorSize = 512

// Disk register offsets.
const (
	DiskRegCmd    = 0x00 // command
	DiskRegStatus = 0x04 // status
	DiskRegLBA    = 0x08 // logical block address of the transfer
	DiskRegCount  = 0x0C // sector count of the transfer
)

// Disk commands.
const (
	DiskCmdRead  = 1 // read COUNT sectors at LBA into the device buffer
	DiskCmdWrite = 2 // write the device buffer to COUNT sectors at LBA
	DiskCmdReset = 3 // reset + identify; quiesces any in-flight command
)

// Disk status bits.
const (
	DiskStatReady = 1 << 0 // idle and operational
	DiskStatBusy  = 1 << 1 // command in progress
	DiskStatError = 1 << 2 // last command failed (bad LBA/COUNT)
	DiskStatDRQ   = 1 << 3 // data buffer holds a completed read
)

// DiskConfig configures a simulated disk.
type DiskConfig struct {
	Base       uint32
	IRQ        int
	Sectors    int64 // capacity in sectors
	Seed       int64 // generator seed for unwritten sector content
	RateBps    int64 // media rate; default DiskRateBps
	Overhead   sim.Time
	ResetDelay sim.Time
}

// Disk is a register-level model of a simple SATA-like disk. Unwritten
// sectors have deterministic pseudo-random content derived from the seed,
// so a "1-GB file filled with random data" (the paper's dd experiment)
// needs no host memory; written sectors are kept copy-on-write.
type Disk struct {
	env *sim.Env
	k   *kernel.Kernel
	cfg DiskConfig

	cow map[int64][]byte

	lba    uint32
	count  uint32
	busy   bool
	errbit bool
	drq    bool
	buf    []byte // transfer data: a completed read (a window of xfer) or a loaded write
	xfer   []byte // device-owned read buffer, grown to the largest read
	gen    int    // bumped by reset; invalidates in-flight completions

	Stats DiskStats
}

// DiskStats counts disk-level events.
type DiskStats struct {
	Reads      int
	Writes     int
	Resets     int
	BadCmds    int
	SectorsIO  int64
	InFlightKO int // commands quiesced by a reset while busy
}

var _ kernel.Device = (*Disk)(nil)

// NewDisk creates a disk and maps its registers at [Base, Base+0x10).
func NewDisk(env *sim.Env, k *kernel.Kernel, cfg DiskConfig) *Disk {
	if cfg.RateBps == 0 {
		cfg.RateBps = DiskRateBps
	}
	if cfg.Overhead == 0 {
		cfg.Overhead = DiskCmdOverhead
	}
	if cfg.ResetDelay == 0 {
		cfg.ResetDelay = DiskResetDelay
	}
	d := &Disk{env: env, k: k, cfg: cfg, cow: make(map[int64][]byte)}
	k.MapDevice(kernel.PortRange{Lo: cfg.Base, Hi: cfg.Base + 0x10}, d)
	return d
}

// PortRange returns the ports a disk driver needs privileges for.
func (d *Disk) PortRange() kernel.PortRange {
	return kernel.PortRange{Lo: d.cfg.Base, Hi: d.cfg.Base + 0x10}
}

// IRQ returns the disk's interrupt line.
func (d *Disk) IRQ() int { return d.cfg.IRQ }

// Sectors returns the disk capacity in sectors.
func (d *Disk) Sectors() int64 { return d.cfg.Sectors }

// PortIn implements kernel.Device.
func (d *Disk) PortIn(port uint32) (uint32, error) {
	switch port - d.cfg.Base {
	case DiskRegStatus:
		var s uint32
		if !d.busy {
			s |= DiskStatReady
		}
		if d.busy {
			s |= DiskStatBusy
		}
		if d.errbit {
			s |= DiskStatError
		}
		if d.drq {
			s |= DiskStatDRQ
		}
		return s, nil
	case DiskRegLBA:
		return d.lba, nil
	case DiskRegCount:
		return d.count, nil
	default:
		return 0, nil
	}
}

// PortOut implements kernel.Device.
func (d *Disk) PortOut(port uint32, val uint32) error {
	switch port - d.cfg.Base {
	case DiskRegLBA:
		d.lba = val
	case DiskRegCount:
		d.count = val
	case DiskRegCmd:
		d.command(val)
	}
	return nil
}

func (d *Disk) command(val uint32) {
	switch val {
	case DiskCmdReset:
		d.Stats.Resets++
		if d.busy {
			d.Stats.InFlightKO++
		}
		d.gen++ // quiesce any in-flight command completion
		gen := d.gen
		d.busy = true // busy during reset+identify
		d.errbit = false
		d.drq = false
		d.buf = nil
		d.env.Schedule(d.cfg.ResetDelay, func() {
			if d.gen != gen {
				return
			}
			d.busy = false
			d.k.RaiseIRQ(d.cfg.IRQ)
		})
	case DiskCmdRead, DiskCmdWrite:
		if d.busy {
			return // command register ignored while busy
		}
		lba, count := int64(d.lba), int64(d.count)
		if count == 0 || lba < 0 || lba+count > d.cfg.Sectors {
			d.errbit = true
			d.k.RaiseIRQ(d.cfg.IRQ)
			return
		}
		d.errbit = false
		d.busy = true
		bytes := count * SectorSize
		dur := d.cfg.Overhead + sim.Time(bytes*int64(sim.Time(1e9))/d.cfg.RateBps)
		gen := d.gen
		if val == DiskCmdRead {
			d.Stats.Reads++
			d.env.Schedule(dur, func() {
				if d.gen != gen {
					return // quiesced by a reset
				}
				d.buf = d.readSectors(lba, count)
				d.busy = false
				d.drq = true
				d.Stats.SectorsIO += count
				d.k.RaiseIRQ(d.cfg.IRQ)
			})
		} else {
			d.Stats.Writes++
			data := d.buf // latched at command time
			d.env.Schedule(dur, func() {
				if d.gen != gen {
					return // quiesced by a reset
				}
				d.writeSectors(lba, count, data)
				d.busy = false
				d.drq = false
				d.buf = nil
				d.Stats.SectorsIO += count
				d.k.RaiseIRQ(d.cfg.IRQ)
			})
		}
	default:
		d.Stats.BadCmds++
		d.errbit = true
	}
}

// fillSector writes a sector's current content into s: what was written
// there, else the deterministic content of an unwritten sector.
func (d *Disk) fillSector(lba int64, s []byte) {
	if w, ok := d.cow[lba]; ok {
		copy(s, w)
		return
	}
	x := uint64(d.cfg.Seed)*0x9E3779B97F4A7C15 + uint64(lba)*0xBF58476D1CE4E5B9 + 1
	for i := 0; i < SectorSize; i += 8 {
		// xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(s[i:], x*0x2545F4914F6CDD1D)
	}
}

// xferKeep bounds the read buffer the device retains; only a garbage
// COUNT from a mutated driver asks for more, and gets a one-off buffer.
const xferKeep = 1 << 20

// readSectors fills the device's read buffer in place. The result is
// valid until the next read completes: the driver copies it out through
// the requester's grant before it issues another command.
func (d *Disk) readSectors(lba, count int64) []byte {
	n := count * SectorSize
	out := d.xfer
	if n > int64(cap(out)) {
		out = make([]byte, n)
		if n <= xferKeep {
			d.xfer = out
		}
	}
	out = out[:n]
	for i := int64(0); i < count; i++ {
		d.fillSector(lba+i, out[i*SectorSize:][:SectorSize])
	}
	return out
}

func (d *Disk) writeSectors(lba, count int64, data []byte) {
	for i := int64(0); i < count; i++ {
		s := make([]byte, SectorSize)
		if off := i * SectorSize; off < int64(len(data)) {
			copy(s, data[off:])
		}
		d.cow[lba+i] = s
	}
}

// DiskHandle is the driver-side data window standing in for DMA.
type DiskHandle struct{ d *Disk }

// Handle returns the disk's DMA handle.
func (d *Disk) Handle() *DiskHandle { return &DiskHandle{d: d} }

// TakeData returns (and clears) the device buffer after a completed read:
// a view of device memory, to be copied out before the next command.
// Returns nil if no read data is pending.
func (h *DiskHandle) TakeData() []byte {
	if !h.d.drq {
		return nil
	}
	b := h.d.buf
	h.d.buf = nil
	h.d.drq = false
	return b
}

// PutData loads the device buffer in preparation for a write command.
// The device takes b over: the caller must not touch it again.
func (h *DiskHandle) PutData(b []byte) { h.d.buf = b }

// PeekSector reads a sector's current content directly, bypassing the
// driver path. Test/verification use only.
func (d *Disk) PeekSector(lba int64) []byte {
	s := make([]byte, SectorSize)
	d.fillSector(lba, s)
	return s
}

// PokeSector writes a sector's content directly, bypassing the driver
// path. Used to prepare disk images (mkfs) and by tests.
func (d *Disk) PokeSector(lba int64, data []byte) {
	s := make([]byte, SectorSize)
	copy(s, data)
	d.cow[lba] = s
}
