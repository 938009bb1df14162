// Package sata implements the SATA-class disk driver of the Fig. 8
// experiment (dd + sha1sum with driver kills). Its command-submission path
// runs as ucode; data moves through the disk's DMA window and the file
// server's memory grants.
//
// Disk drivers are the paper's special recovery case (§6.2): they carry no
// policy script — the reincarnation server restarts them directly from a
// RAM image — and the restarted instance's Init resets the device, which
// is where the bulk of the disk recovery time goes.
package sata

import (
	"encoding/binary"
	"errors"
	"sort"
	"time"

	"resilientos/internal/drvlib"
	"resilientos/internal/hw"
	"resilientos/internal/kernel"
	"resilientos/internal/proto"
	"resilientos/internal/ucode"
)

// src is the command-submission control program. Results in r1.
const src = `
; SATA-class disk driver control paths.
.entry reset
reset:
	movi r1, BASE
	movi r2, CMDRESET
	out  [r1+REGCMD], r2
	halt

.entry status            ; r1 = status register
status:
	movi r1, BASE
	in   r2, [r1+REGSTATUS]
	mov  r1, r2
	halt

; submit: r1 = lba, r2 = count, r3 = command (read/write).
; Writes the transfer registers, reads them back, and asserts the device
; latched what we wrote before issuing the command.
.entry submit
submit:
	movi r4, BASE
	out  [r4+REGLBA], r1
	out  [r4+REGCOUNT], r2
	in   r5, [r4+REGLBA]
	cmp  r5, r1
	movi r6, 1
	jz   lbaok
	movi r6, 0
lbaok:
	assert r6              ; LBA readback must match
	in   r5, [r4+REGCOUNT]
	cmp  r5, r2
	movi r6, 1
	jz   cntok
	movi r6, 0
cntok:
	assert r6              ; COUNT readback must match
	cmpi r2, 0
	movi r6, 1
	jz   zerocnt
	jmp  issue
zerocnt:
	movi r6, 0
issue:
	assert r6              ; zero-sector transfers are a driver bug
	out  [r4+REGCMD], r3
	movi r7, 20            ; command accounting slot
	ld   r8, [r7+0]
	addi r8, 1
	st   [r7+0], r8
	movi r1, 1
	halt

.entry checkdone         ; r1 = 1 ok / 0 error after completion IRQ
checkdone:
	movi r2, BASE
	in   r3, [r2+REGSTATUS]
	andi r3, STERROR
	cmpi r3, 0
	jnz  deverr
	movi r1, 1
	halt
deverr:
	movi r1, 0
	fail
`

// Image assembles the pristine driver binary for a disk at the given base.
func Image(base uint32) *ucode.Image {
	return ucode.MustAssemble(src, map[string]uint32{
		"BASE":      base,
		"REGCMD":    hw.DiskRegCmd,
		"REGSTATUS": hw.DiskRegStatus,
		"REGLBA":    hw.DiskRegLBA,
		"REGCOUNT":  hw.DiskRegCount,
		"CMDRESET":  hw.DiskCmdReset,
		"STERROR":   hw.DiskStatError,
	})
}

// Config configures a driver instance factory.
type Config struct {
	Disk *hw.Disk
	// OnVM is the fault-injection hook.
	OnVM func(*ucode.VM)
	// Options selects the driver half of the recovery mechanism.
	drvlib.Options
}

// Binary returns the service binary for this driver.
func Binary(cfg Config) func(c *kernel.Ctx) {
	ready := drvlib.StatusBits{Mask: hw.DiskStatBusy | hw.DiskStatReady, Want: hw.DiskStatReady}
	return func(c *kernel.Ctx) {
		drvlib.RunWith(c, &driver{
			VMDevice: drvlib.VMDevice{
				Chip: "sata", Image: Image, OnVM: cfg.OnVM,
				Base: cfg.Disk.PortRange().Lo, IRQ: cfg.Disk.IRQ(),
				// The reset+identify cycle is what makes disk-driver
				// recovery slower than network-driver recovery in the
				// paper's Fig. 8 vs Fig. 7 comparison.
				Poll: 20 * time.Millisecond, Timeout: 10 * time.Second,
				Ready: ready, Live: ready,
			},
			handle: cfg.Disk.Handle(),
			opened: make(map[int64]bool),
			busy:   kernel.None,
		}, cfg.Options)
	}
}

// driver adds the transfer path and the open-minor table to the shared
// VM-device core, which supplies Init, Promote and Shutdown unchanged.
type driver struct {
	drvlib.VMDevice
	handle *hw.DiskHandle
	opened map[int64]bool // open minor devices
	// busy is the requester of the transfer in progress (None when idle):
	// the one caller a fault in the middle of a transfer leaves waiting.
	busy kernel.Endpoint
}

// Microreboot implements drvlib.Microrebooter. Open minors survive the VM
// swap; the transfer the fault interrupted does not, and its requester is
// told so — an interrupted request is failed, not dropped, or the caller
// waits forever on an endpoint that never died (the file server reissues
// on ErrIO). A device still busy with the abandoned command cannot be
// taken over in place: the error falls back to a full respawn.
func (d *driver) Microreboot(c *kernel.Ctx) error {
	if err := d.VMDevice.Microreboot(c); err != nil {
		return err
	}
	if !d.Live.In(d.St) {
		return errors.New("sata: device not ready after vm reset")
	}
	if d.busy != kernel.None {
		_ = c.Send(d.busy, kernel.Message{Type: proto.BdevReply, Arg1: proto.ErrIO})
		d.busy = kernel.None
	}
	return nil
}

// capsuleKind tags this driver's state capsules.
const capsuleKind = "sata.queue"

// SaveState implements drvlib.Salvager: the open-minor table — the
// pending-queue summary of a quiesced disk driver — survives a clean
// handover, so the file server's open devices stay open.
func (d *driver) SaveState(c *kernel.Ctx) (string, []byte) {
	minors := make([]int64, 0, len(d.opened))
	for m, open := range d.opened {
		if open {
			minors = append(minors, m)
		}
	}
	sort.Slice(minors, func(i, j int) bool { return minors[i] < minors[j] })
	b := make([]byte, 0, 4+8*len(minors))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(minors)))
	for _, m := range minors {
		b = binary.LittleEndian.AppendUint64(b, uint64(m))
	}
	return capsuleKind, b
}

// RestoreState implements drvlib.Salvager: validate, then adopt.
func (d *driver) RestoreState(c *kernel.Ctx, kind string, payload []byte) error {
	if kind != capsuleKind || len(payload) < 4 {
		return errors.New("sata: foreign or malformed capsule")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if n < 0 || n > 1024 || len(payload) != 4+8*n {
		return errors.New("sata: capsule minor count out of range")
	}
	for i := 0; i < n; i++ {
		minor := int64(binary.LittleEndian.Uint64(payload[4+8*i:]))
		if minor < 0 {
			return errors.New("sata: capsule names a negative minor")
		}
		d.opened[minor] = true
	}
	return nil
}

// HandleRequest implements drvlib.Device: the synchronous block protocol.
func (d *driver) HandleRequest(c *kernel.Ctx, m kernel.Message) {
	switch m.Type {
	case proto.BdevOpen:
		d.opened[m.Arg1] = true
		_ = c.Send(m.Source, kernel.Message{Type: proto.BdevReply, Arg1: proto.OK})
	case proto.BdevRead, proto.BdevWrite:
		d.busy = m.Source // a VM fault unwinds past the reset below
		d.transfer(c, m, m.Type == proto.BdevWrite)
		d.busy = kernel.None
	}
}

// transfer performs one read or write: submit through the VM, wait for
// the completion interrupt, move data across the caller's grant.
func (d *driver) transfer(c *kernel.Ctx, m kernel.Message, write bool) {
	lba, count := m.Arg1, m.Arg2
	nbytes := int(count) * hw.SectorSize
	fail := func() {
		_ = c.Send(m.Source, kernel.Message{Type: proto.BdevReply, Arg1: proto.ErrIO})
	}
	if count <= 0 || lba < 0 {
		fail()
		return
	}
	cmd := uint32(hw.DiskCmdRead)
	if write {
		cmd = hw.DiskCmdWrite
		// Pull the payload from the file server's grant into the DMA
		// window before issuing the command.
		buf := make([]byte, nbytes)
		if err := c.SafeCopyFrom(m.Source, m.Grant, 0, buf); err != nil {
			fail()
			return
		}
		d.handle.PutData(buf)
	}
	if !d.Call(c, "submit", uint32(lba), uint32(count), cmd) {
		fail()
		return
	}
	// Synchronous wait for the completion interrupt, like the MINIX
	// at_wini driver. Other requests queue behind us meanwhile.
	for {
		if _, err := c.Receive(kernel.Hardware); err != nil {
			fail()
			return
		}
		st, ok := d.Status(c)
		if !ok {
			fail()
			return
		}
		if st&hw.DiskStatBusy == 0 {
			break
		}
	}
	if !d.Call(c, "checkdone") {
		fail()
		return
	}
	if write {
		_ = c.Send(m.Source, kernel.Message{Type: proto.BdevReply, Arg1: int64(nbytes)})
		return
	}
	data := d.handle.TakeData()
	if data == nil || len(data) < nbytes {
		fail()
		return
	}
	if err := c.SafeCopyTo(m.Source, m.Grant, 0, data[:nbytes]); err != nil {
		fail()
		return
	}
	_ = c.Send(m.Source, kernel.Message{Type: proto.BdevReply, Arg1: int64(nbytes)})
}

// HandleIRQ implements drvlib.Device. Completion interrupts are consumed
// synchronously inside transfer; anything arriving here is stale.
func (d *driver) HandleIRQ(c *kernel.Ctx, mask uint64) {}
