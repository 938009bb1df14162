package hw

import (
	"encoding/binary"
	"math/bits"

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

// DiskConfig sizes the simulated disk; it sits at PortDisk, IRQDisk.
type DiskConfig struct {
	Sectors int64 // capacity in sectors
	Seed    int64 // generator seed for unwritten sector content
}

// Disk is a register-level model of a simple SATA-like disk. Unwritten
// sectors have deterministic pseudo-random content derived from the seed,
// so a "1-GB file filled with random data" (the paper's dd experiment)
// needs no host memory; written sectors are kept copy-on-write.
type Disk struct {
	env *sim.Env
	k   *kernel.Kernel
	cfg DiskConfig

	// cow holds the written sectors. written indexes them: bit lba%64 of
	// word lba/64, with a word only for the groups of 64 sectors that hold
	// a written one, so it grows with the sectors written and a read
	// learns that a run is unwritten from one probe per 64 sectors.
	cow     map[int64][]byte
	written map[int64]uint64

	lba    uint32
	count  uint32
	busy   bool
	errbit bool
	drq    bool
	buf    []byte // transfer data: a completed read (a window of xfer) or a loaded write
	xfer   []byte // device-owned read buffer, grown to the largest read
	gen    int    // bumped by reset; invalidates in-flight completions

	idle []*diskOp // completed commands, ready for the next one

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

// NewDisk creates a disk and maps its registers at [PortDisk, PortDisk+0x10).
func NewDisk(env *sim.Env, k *kernel.Kernel, cfg DiskConfig) *Disk {
	d := &Disk{env: env, k: k, cfg: cfg,
		cow: make(map[int64][]byte), written: make(map[int64]uint64)}
	k.MapDevice(d.PortRange(), d)
	return d
}

// PortRange returns the ports a disk driver needs privileges for.
func (d *Disk) PortRange() kernel.PortRange {
	return kernel.PortRange{Lo: PortDisk, Hi: PortDisk + 0x10}
}

// IRQ returns the disk's interrupt line.
func (d *Disk) IRQ() int { return IRQDisk }

// Sectors returns the disk capacity in sectors.
func (d *Disk) Sectors() int64 { return d.cfg.Sectors }

// PortIn implements kernel.Device.
func (d *Disk) PortIn(port uint32) (uint32, error) {
	switch port - PortDisk {
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
	switch port - PortDisk {
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
		d.gen++       // quiesce any in-flight command completion
		d.busy = true // busy during reset+identify
		d.errbit = false
		d.drq = false
		d.buf = nil
		d.start(val, DiskResetDelay, 0, 0, nil)
	case DiskCmdRead, DiskCmdWrite:
		if d.busy {
			return // command register ignored while busy
		}
		lba, count := int64(d.lba), int64(d.count)
		if count == 0 || lba < 0 || lba+count > d.cfg.Sectors {
			d.errbit = true
			d.k.RaiseIRQ(IRQDisk)
			return
		}
		d.errbit = false
		d.busy = true
		bytes := count * SectorSize
		dur := DiskCmdOverhead + sim.Time(bytes*int64(sim.Time(1e9))/DiskRateBps)
		var data []byte
		if val == DiskCmdRead {
			d.Stats.Reads++
		} else {
			d.Stats.Writes++
			data = d.buf // latched at command time
		}
		d.start(val, dur, lba, count, data)
	default:
		d.Stats.BadCmds++
		d.errbit = true
	}
}

// diskOp is one command in progress — a read, a write or a reset — with
// the timer that completes it. A reset quiesces a command in progress by
// bumping the disk's gen, and the command's completion still fires, as a
// no-op. A garbage COUNT can keep a quiesced read pending past
// DiskResetDelay, so stale and live completions can be pending together:
// the disk keeps completed records on a free list instead of one timer,
// and a command schedules no closure and allocates nothing.
type diskOp struct {
	d          *Disk
	timer      *sim.Timer
	cmd        uint32
	gen        int
	lba, count int64
	data       []byte // a write's buffer
}

// start arms a command record to complete dur from now. Re-arming takes a
// fresh seq, so the completion fires exactly where Schedule put it.
func (d *Disk) start(cmd uint32, dur sim.Time, lba, count int64, data []byte) {
	var op *diskOp
	if n := len(d.idle); n > 0 {
		op, d.idle = d.idle[n-1], d.idle[:n-1]
	} else {
		op = &diskOp{d: d}
		op.timer = d.env.NewTimer(op.complete)
	}
	op.cmd, op.gen, op.lba, op.count, op.data = cmd, d.gen, lba, count, data
	op.timer.Reset(dur)
}

// complete ends the command, unless a reset has quiesced it. The record
// is back on the free list first, so the interrupt's handler may reuse it.
func (op *diskOp) complete() {
	d := op.d
	cmd, gen, lba, count, data := op.cmd, op.gen, op.lba, op.count, op.data
	op.data = nil
	d.idle = append(d.idle, op)
	if d.gen != gen {
		return // quiesced by a reset
	}
	switch cmd {
	case DiskCmdReset:
		d.busy = false
	case DiskCmdRead:
		d.buf = d.readSectors(lba, count)
		d.busy = false
		d.drq = true
		d.Stats.SectorsIO += count
	case DiskCmdWrite:
		d.writeSectors(lba, count, data)
		d.busy = false
		d.drq = false
		d.buf = nil
		d.Stats.SectorsIO += count
	}
	d.k.RaiseIRQ(IRQDisk)
}

// The content of an unwritten sector is a format, not a detail: a
// xorshift64* chain keyed by the seed and the LBA, one chain per sector,
// its 64 outputs stored as little-endian words in order. A sector's bytes
// depend on (seed, LBA) alone, so the sectors of a run are independent
// chains, and fillUnwritten steps fillLanes of them at once.
const fillLanes = 4

// chainStart is the state a sector's chain starts from.
func chainStart(seed, lba int64) uint64 {
	return uint64(seed)*0x9E3779B97F4A7C15 + uint64(lba)*0xBF58476D1CE4E5B9 + 1
}

// xorshift steps a chain; its output is the new state times chainMul.
func xorshift(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

const chainMul = 0x2545F4914F6CDD1D

// fillUnwritten writes the content of unwritten sectors lba, lba+1, ...
// into out, a whole number of sectors: fillLanes interleaved chains a
// pass, then one at a time for the rest.
func fillUnwritten(seed, lba int64, out []byte) {
	for ; len(out) >= fillLanes*SectorSize; out, lba = out[fillLanes*SectorSize:], lba+fillLanes {
		s0 := (*[SectorSize]byte)(out)
		s1 := (*[SectorSize]byte)(out[SectorSize:])
		s2 := (*[SectorSize]byte)(out[2*SectorSize:])
		s3 := (*[SectorSize]byte)(out[3*SectorSize:])
		x0, x1 := chainStart(seed, lba), chainStart(seed, lba+1)
		x2, x3 := chainStart(seed, lba+2), chainStart(seed, lba+3)
		for i := 8; i <= SectorSize; i += 8 {
			x0, x1, x2, x3 = xorshift(x0), xorshift(x1), xorshift(x2), xorshift(x3)
			binary.LittleEndian.PutUint64(s0[i-8:i:i], x0*chainMul)
			binary.LittleEndian.PutUint64(s1[i-8:i:i], x1*chainMul)
			binary.LittleEndian.PutUint64(s2[i-8:i:i], x2*chainMul)
			binary.LittleEndian.PutUint64(s3[i-8:i:i], x3*chainMul)
		}
	}
	for ; len(out) >= SectorSize; out, lba = out[SectorSize:], lba+1 {
		s := (*[SectorSize]byte)(out)
		x := chainStart(seed, lba)
		for i := 8; i <= SectorSize; i += 8 {
			x = xorshift(x)
			binary.LittleEndian.PutUint64(s[i-8:i:i], x*chainMul)
		}
	}
}

// fill writes the current content of sectors lba, lba+1, ... into out, a
// whole number of sectors: what was written there, else the unwritten
// content. It probes the written-sector index once per 64 sectors, and
// not at all while nothing has been written.
func (d *Disk) fill(lba int64, out []byte) {
	end := lba + int64(len(out)/SectorSize)
	from := lba // first sector not yet filled
	if len(d.written) > 0 {
		for w := lba >> 6; w<<6 < end; w++ {
			for set := d.written[w]; set != 0; set &= set - 1 {
				s := w<<6 + int64(bits.TrailingZeros64(set))
				if s < lba {
					continue
				}
				if s >= end {
					break
				}
				fillUnwritten(d.cfg.Seed, from, out[(from-lba)*SectorSize:(s-lba)*SectorSize])
				copy(out[(s-lba)*SectorSize:], d.cow[s])
				from = s + 1
			}
		}
	}
	fillUnwritten(d.cfg.Seed, from, out[(from-lba)*SectorSize:])
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
	d.fill(lba, out)
	return out
}

func (d *Disk) writeSectors(lba, count int64, data []byte) {
	for i := int64(0); i < count; i++ {
		s := make([]byte, SectorSize)
		if off := i * SectorSize; off < int64(len(data)) {
			copy(s, data[off:])
		}
		d.put(lba+i, s)
	}
}

// put makes s the content of sector lba.
func (d *Disk) put(lba int64, s []byte) {
	d.cow[lba] = s
	d.written[lba>>6] |= 1 << (lba & 63)
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
	d.fill(lba, s)
	return s
}

// PokeSector writes a sector's content directly, bypassing the driver
// path. Used to prepare disk images (mkfs) and by tests.
func (d *Disk) PokeSector(lba int64, data []byte) {
	s := make([]byte, SectorSize)
	copy(s, data)
	d.put(lba, s)
}
