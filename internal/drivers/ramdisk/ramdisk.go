// Package ramdisk implements the memory-backed block driver of the
// paper's §6.2 footnote: a small, trusted disk with no hardware behind it,
// suitable for holding crucial recovery data (driver binaries, the shell,
// policy scripts) so that disk-driver recovery never depends on the failed
// disk itself. The paper's version is 450 lines with zero recovery-
// specific code; this one follows the same protocol as the SATA driver
// but needs no ucode, no IRQs and no device model.
package ramdisk

import (
	"encoding/binary"
	"errors"

	"resilientos/internal/drvlib"
	"resilientos/internal/hw"
	"resilientos/internal/kernel"
	"resilientos/internal/proto"
)

// Config configures a RAM disk instance factory.
type Config struct {
	// Sectors is the capacity (default 2048 sectors = 1 MiB).
	Sectors int64
	// Backing, if non-nil, is shared across instances: a restarted RAM
	// disk driver keeps serving the same memory, like MINIX's RAM disk
	// whose contents live in core, not in the driver process.
	Backing *Store
	// Options selects the driver half of the recovery mechanism.
	drvlib.Options
}

// Store is the RAM disk's backing memory, deliberately held outside the
// driver process so driver restarts do not lose the "disk" contents.
type Store struct {
	sectors map[int64][]byte
}

// NewStore creates empty backing memory.
func NewStore() *Store {
	return &Store{sectors: make(map[int64][]byte)}
}

// Read returns the content of one sector (zeros if never written).
func (s *Store) Read(lba int64) []byte {
	out := make([]byte, hw.SectorSize)
	if sec, ok := s.sectors[lba]; ok {
		copy(out, sec)
	}
	return out
}

// Write replaces the content of one sector.
func (s *Store) Write(lba int64, data []byte) {
	sec := make([]byte, hw.SectorSize)
	copy(sec, data)
	s.sectors[lba] = sec
}

// Binary returns the service binary for this driver.
func Binary(cfg Config) func(c *kernel.Ctx) {
	if cfg.Sectors == 0 {
		cfg.Sectors = 2048
	}
	if cfg.Backing == nil {
		cfg.Backing = NewStore()
	}
	return func(c *kernel.Ctx) {
		drvlib.RunWith(c, &driver{cfg: cfg}, cfg.Options)
	}
}

type driver struct {
	cfg Config
}

// Init implements drvlib.Device. Nothing to initialize: no hardware.
func (d *driver) Init(c *kernel.Ctx) error { return nil }

// HandleRequest implements drvlib.Device.
func (d *driver) HandleRequest(c *kernel.Ctx, m kernel.Message) {
	switch m.Type {
	case proto.BdevOpen:
		_ = c.Send(m.Source, kernel.Message{Type: proto.BdevReply, Arg1: proto.OK})
	case proto.BdevRead:
		d.rw(c, m, false)
	case proto.BdevWrite:
		d.rw(c, m, true)
	}
}

func (d *driver) rw(c *kernel.Ctx, m kernel.Message, write bool) {
	lba, count := m.Arg1, m.Arg2
	if count <= 0 || lba < 0 || lba+count > d.cfg.Sectors {
		_ = c.Send(m.Source, kernel.Message{Type: proto.BdevReply, Arg1: proto.ErrIO})
		return
	}
	nbytes := int(count) * hw.SectorSize
	if write {
		buf := make([]byte, nbytes)
		if err := c.SafeCopyFrom(m.Source, m.Grant, 0, buf); err != nil {
			_ = c.Send(m.Source, kernel.Message{Type: proto.BdevReply, Arg1: proto.ErrIO})
			return
		}
		for i := int64(0); i < count; i++ {
			d.cfg.Backing.Write(lba+i, buf[i*hw.SectorSize:(i+1)*hw.SectorSize])
		}
	} else {
		buf := make([]byte, 0, nbytes)
		for i := int64(0); i < count; i++ {
			buf = append(buf, d.cfg.Backing.Read(lba+i)...)
		}
		if err := c.SafeCopyTo(m.Source, m.Grant, 0, buf); err != nil {
			_ = c.Send(m.Source, kernel.Message{Type: proto.BdevReply, Arg1: proto.ErrIO})
			return
		}
	}
	_ = c.Send(m.Source, kernel.Message{Type: proto.BdevReply, Arg1: int64(nbytes)})
}

// HandleIRQ implements drvlib.Device.
func (d *driver) HandleIRQ(c *kernel.Ctx, mask uint64) {}

// HandleAlarm implements drvlib.Device.
func (d *driver) HandleAlarm(c *kernel.Ctx) {}

// Shutdown implements drvlib.Device.
func (d *driver) Shutdown(c *kernel.Ctx) {}

// capsuleKind tags this driver's state capsules.
const capsuleKind = "ramdisk.geom"

// SaveState implements drvlib.Salvager: the disk geometry survives a
// clean handover.
func (d *driver) SaveState(c *kernel.Ctx) (string, []byte) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(d.cfg.Sectors))
	return capsuleKind, b[:]
}

// RestoreState implements drvlib.Salvager: validate, then adopt. A
// capsule whose geometry disagrees with this instance's backing store
// describes a different disk and is rejected rather than adopted.
func (d *driver) RestoreState(c *kernel.Ctx, kind string, payload []byte) error {
	if kind != capsuleKind || len(payload) != 8 {
		return errors.New("ramdisk: foreign or malformed capsule")
	}
	sectors := int64(binary.LittleEndian.Uint64(payload))
	if sectors <= 0 {
		return errors.New("ramdisk: capsule geometry is non-positive")
	}
	if sectors != d.cfg.Sectors {
		return errors.New("ramdisk: capsule geometry mismatch")
	}
	return nil
}
