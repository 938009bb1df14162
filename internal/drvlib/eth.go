package drvlib

import (
	"errors"
	"slices"
	"time"

	"resilientos/internal/hw"
	"resilientos/internal/kernel"
	"resilientos/internal/proto"
	"resilientos/internal/ucode"
)

// EthChip is everything chip-specific about an Ethernet driver: its
// control program, the state block that program keeps in driver RAM, and
// how it drains the receive ring. Besides VMDevice's "reset" and "status"
// the program exports "enable" (bring the receiver up in promiscuous
// mode) and "tx" (transmit the DMA window; fails while the transmitter is
// busy).
type EthChip struct {
	Name  string
	Image func(base uint32) *ucode.Image
	Plant func(vm *ucode.VM) // see VMDevice.Plant; nil if the chip keeps no state block
	// Drain empties the receive ring after an interrupt, calling
	// Eth.Deliver once per frame the chip popped into the DMA window.
	Drain func(c *kernel.Ctx, e *Eth)
}

// EthConfig configures an Ethernet driver instance factory.
type EthConfig struct {
	NIC *hw.NIC
	// OnVM, if set, is called with each new instance's VM — the hook the
	// fault-injection campaign uses to reach the running binary.
	OnVM func(*ucode.VM)
	// Mechanism selects the driver half of the recovery mechanism.
	Mechanism Mechanism
}

// EthBinary returns the service binary of an Ethernet driver for chip.
// Each (re)start calls it afresh, so a restarted instance runs a pristine
// image.
func EthBinary(chip EthChip, cfg EthConfig) func(c *kernel.Ctx) {
	rams := new(ucode.RAMs)
	return func(c *kernel.Ctx) {
		RunWith(c, &Eth{
			VMDevice: VMDevice{
				Chip: chip.Name, Image: chip.Image, Plant: chip.Plant, OnVM: cfg.OnVM, RAMs: rams,
				Base: cfg.NIC.PortRange().Lo, IRQ: cfg.NIC.IRQ(),
				Poll: 10 * time.Millisecond, Timeout: 2 * time.Second,
				Ready: StatusBits{Mask: hw.NICStatResetBsy},
				Live:  StatusBits{Mask: hw.NICStatEnabled | hw.NICStatResetBsy, Want: hw.NICStatEnabled},
			},
			drain:  chip.Drain,
			handle: cfg.NIC.Handle(),
		}, cfg.Mechanism)
	}
}

// txQueueLen bounds an Ethernet driver's internal transmit queue.
const txQueueLen = 64

// Eth is the Go half of an Ethernet driver, shared by every chip: the
// transmit queue, the client binding, and the
// bring-up that follows each way of coming to own the card. Control
// decisions run as ucode on the embedded VMDevice; bulk frame data moves
// through the NIC's DMA window.
type Eth struct {
	VMDevice
	drain  func(c *kernel.Ctx, e *Eth)
	handle *hw.NICHandle
	txQ    [][]byte // pops slide down the backing array instead of re-growing it
	txBusy bool
	client kernel.Endpoint // who gets received frames (last configurer)
}

// Init implements Device: after a crash this is what puts the card back
// in promiscuous receive mode (paper §6.1).
func (e *Eth) Init(c *kernel.Ctx) error { return e.up(c, e.VMDevice.Init(c)) }

// Promote implements Promoter.
func (e *Eth) Promote(c *kernel.Ctx) error { return e.up(c, e.VMDevice.Promote(c)) }

// Microreboot implements Microrebooter. The client binding and the queue
// survive, so the stream resumes almost immediately.
func (e *Eth) Microreboot(c *kernel.Ctx) error { return e.up(c, e.VMDevice.Microreboot(c)) }

// up finishes every way of attaching to the card from the status the
// attach ended on: enable the receiver unless it still runs (a reset
// leaves it off), re-derive the transmit bookkeeping from the live card,
// and restart the queue.
func (e *Eth) up(c *kernel.Ctx, err error) error {
	if err != nil {
		return err
	}
	if e.St&hw.NICStatEnabled == 0 && !e.Call(c, "enable") {
		return errors.New(e.Chip + ": enable failed")
	}
	e.txBusy = e.St&hw.NICStatTxBusy != 0
	e.pump(c)
	return nil
}

// HandleRequest implements Device.
func (e *Eth) HandleRequest(c *kernel.Ctx, m kernel.Message) {
	switch m.Type {
	case proto.EthConf:
		e.client = m.Source
		_ = c.Send(m.Source, kernel.Message{Type: proto.EthAck, Arg1: proto.OK})
	case proto.EthSend:
		if len(e.txQ) >= txQueueLen {
			return // queue overflow: frame dropped, TCP will retransmit
		}
		e.txQ = append(e.txQ, m.Payload)
		e.pump(c)
	}
}

// pump pushes queued frames into the card whenever the transmitter idles.
func (e *Eth) pump(c *kernel.Ctx) {
	if e.txBusy || len(e.txQ) == 0 {
		return
	}
	frame := e.txQ[0]
	e.txQ = slices.Delete(e.txQ, 0, 1)
	e.handle.SetTx(frame)
	if e.Call(c, "tx") {
		e.txBusy = true
	}
}

// Deliver forwards the oldest frame the chip popped into the DMA window
// to the bound client. It reports false when the window is empty.
func (e *Eth) Deliver(c *kernel.Ctx) bool {
	frame := e.handle.TakeRx()
	if frame == nil {
		return false
	}
	if e.client != 0 && e.client != kernel.None { // zero or None: no network server configured us
		_ = c.AsyncSend(e.client, kernel.Message{Type: proto.EthRecv, Payload: frame})
	}
	return true
}

// HandleIRQ implements Device: drain received frames and continue
// transmitting.
func (e *Eth) HandleIRQ(c *kernel.Ctx, mask uint64) {
	e.drain(c, e)
	// A tx-done interrupt frees the transmitter.
	if st, ok := e.Status(c); ok && st&hw.NICStatTxBusy == 0 {
		e.txBusy = false
		e.pump(c)
	}
}
