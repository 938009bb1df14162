// Package chardrv implements the character device drivers of paper §6.3 —
// audio, printer, and CD burner. Character streams cannot be transparently
// recovered (input can be read from the controller only once; output
// progress is unobservable), so these drivers simply die with their state
// and leave the error handling to the application layer.
package chardrv

import (
	"resilientos/internal/drvlib"
	"resilientos/internal/hw"
	"resilientos/internal/kernel"
	"resilientos/internal/proto"
)

// AudioBinary returns the audio driver's service binary. ChrWrite feeds
// samples; the device plays them at its fixed rate and hiccups audibly if
// a dead driver lets the buffer run dry.
func AudioBinary(dev *hw.Audio) func(c *kernel.Ctx) {
	return func(c *kernel.Ctx) {
		drvlib.Run(c, &audioDriver{dev: dev})
	}
}

type audioDriver struct {
	dev    *hw.Audio
	handle *hw.AudioHandle
}

func (d *audioDriver) Init(c *kernel.Ctx) error {
	d.handle = d.dev.Handle()
	if err := c.IRQSubscribe(d.dev.IRQ()); err != nil {
		return err
	}
	base := d.dev.PortRange().Lo
	// Reset, then start the playback engine. A *restarted* audio driver
	// resets the device: whatever was buffered is gone — the hiccup.
	if err := c.DevOut(base+hw.CharRegCmd, hw.CharCmdReset); err != nil {
		return err
	}
	return c.DevOut(base+hw.CharRegCmd, hw.CharCmdStart)
}

func (d *audioDriver) HandleRequest(c *kernel.Ctx, m kernel.Message) {
	switch m.Type {
	case proto.ChrOpen:
		_ = c.Send(m.Source, kernel.Message{Type: proto.ChrReply, Arg1: proto.OK})
	case proto.ChrWrite:
		n := d.handle.Feed(len(m.Payload))
		_ = c.Send(m.Source, kernel.Message{Type: proto.ChrReply, Arg1: int64(n)})
	case proto.ChrRead:
		data := d.handle.ReadCapture(int(m.Arg1))
		_ = c.Send(m.Source, kernel.Message{Type: proto.ChrReply, Arg1: int64(len(data)), Payload: data})
	default:
		_ = c.Send(m.Source, kernel.Message{Type: proto.ChrReply, Arg1: proto.ErrBadCall})
	}
}

func (d *audioDriver) HandleIRQ(c *kernel.Ctx, mask uint64) {} // refill is app-paced

func (d *audioDriver) Shutdown(c *kernel.Ctx) {
	_ = c.DevOut(d.dev.PortRange().Lo+hw.CharRegCmd, hw.CharCmdStop)
}

// PrinterBinary returns the printer driver's service binary. ChrWrite
// prints one line synchronously: the reply arrives after the line is on
// paper. A driver crash between submission and reply makes it impossible
// for the client to know whether the line printed — resubmitting may
// duplicate it (§6.3: "duplicate printouts may result").
func PrinterBinary(dev *hw.Printer) func(c *kernel.Ctx) {
	return func(c *kernel.Ctx) {
		drvlib.Run(c, &printerDriver{dev: dev})
	}
}

type printerDriver struct {
	dev    *hw.Printer
	handle *hw.PrinterHandle
}

func (d *printerDriver) Init(c *kernel.Ctx) error {
	d.handle = d.dev.Handle()
	if err := c.IRQSubscribe(d.dev.IRQ()); err != nil {
		return err
	}
	// Reset loses any in-flight line of the previous instance.
	return c.DevOut(d.dev.PortRange().Lo+hw.CharRegCmd, hw.CharCmdReset)
}

func (d *printerDriver) HandleRequest(c *kernel.Ctx, m kernel.Message) {
	switch m.Type {
	case proto.ChrOpen:
		_ = c.Send(m.Source, kernel.Message{Type: proto.ChrReply, Arg1: proto.OK})
	case proto.ChrWrite:
		if !d.handle.Submit(string(m.Payload)) {
			_ = c.Send(m.Source, kernel.Message{Type: proto.ChrReply, Arg1: proto.ErrAgain})
			return
		}
		// Synchronous completion: wait for the line-done interrupt.
		if _, err := c.Receive(kernel.Hardware); err != nil {
			_ = c.Send(m.Source, kernel.Message{Type: proto.ChrReply, Arg1: proto.ErrIO})
			return
		}
		_ = c.Send(m.Source, kernel.Message{Type: proto.ChrReply, Arg1: int64(len(m.Payload))})
	default:
		_ = c.Send(m.Source, kernel.Message{Type: proto.ChrReply, Arg1: proto.ErrBadCall})
	}
}

func (d *printerDriver) HandleIRQ(c *kernel.Ctx, mask uint64) {}

func (d *printerDriver) Shutdown(c *kernel.Ctx) {}

// BurnerBinary returns the CD burner driver's service binary. Burns are
// the unrecoverable case: a driver crash stalls the laser past its buffer
// and ruins the disc; the only honest outcome is an error to the user.
func BurnerBinary(dev *hw.Burner) func(c *kernel.Ctx) {
	return func(c *kernel.Ctx) {
		drvlib.Run(c, &burnerDriver{dev: dev})
	}
}

type burnerDriver struct {
	dev    *hw.Burner
	handle *hw.BurnerHandle
}

func (d *burnerDriver) Init(c *kernel.Ctx) error {
	d.handle = d.dev.Handle()
	if err := c.IRQSubscribe(d.dev.IRQ()); err != nil {
		return err
	}
	// Reinitializing the controller aborts any burn in progress — this is
	// exactly why a mid-burn driver failure cannot be recovered (§6.3).
	return c.DevOut(d.dev.PortRange().Lo+hw.CharRegCmd, hw.CharCmdReset)
}

func (d *burnerDriver) HandleRequest(c *kernel.Ctx, m kernel.Message) {
	reply := kernel.Message{Type: proto.ChrReply, Arg1: proto.OK}
	switch m.Type {
	case proto.ChrOpen:
	case proto.ChrWrite:
		d.handle.Write(int64(len(m.Payload)))
		reply.Arg1 = int64(len(m.Payload))
	case proto.ChrIoctl:
		switch m.Arg1 {
		case proto.ChrIoctlBurnBegin:
			d.handle.Begin(m.Arg2)
		case proto.ChrIoctlBurnFinish:
			if d.handle.Finish() {
				reply.Arg1 = 1
			} else {
				reply.Arg1 = 0
			}
		default:
			reply.Arg1 = proto.ErrBadCall
		}
	default:
		reply.Arg1 = proto.ErrBadCall
	}
	_ = c.Send(m.Source, reply)
}

func (d *burnerDriver) HandleIRQ(c *kernel.Ctx, mask uint64) {}

func (d *burnerDriver) Shutdown(c *kernel.Ctx) {}
