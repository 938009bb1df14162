package hw

import (
	"slices"

	"resilientos/internal/kernel"
	"resilientos/internal/sim"
)

// NIC register offsets (from the device's port base).
const (
	NICRegCmd    = 0x00 // write-only command register
	NICRegStatus = 0x04 // read-only status register
	NICRegCfg    = 0x08 // configuration (promiscuous bit etc.)
	NICRegRxLen  = 0x0C // length of the head receive frame, 0 if none
	NICRegRxPop  = 0x10 // write: pop head frame into the DMA window
	NICRegTxGo   = 0x14 // write: transmit the DMA window contents
	NICRegBnry   = 0x18 // write: boundary page pointer (DP8390-style)
)

// NICBnryPages is the number of valid boundary pages; writing a value
// outside [0, NICBnryPages) is the kind of garbage that can wedge the
// card (the §7.2 hardware gate). Matches the DP8390-class ring size.
const NICBnryPages = 16

// NIC commands (values written to NICRegCmd).
const (
	NICCmdReset       = 1 // soft reset; clears ordinary confusion
	NICCmdRxEnable    = 2 // enable the receiver
	NICCmdMasterReset = 3 // full reset; clears deep confusion if supported
)

// NIC status bits (read from NICRegStatus).
const (
	NICStatLink     = 1 << 0 // link is up
	NICStatRxAvail  = 1 << 1 // at least one received frame pending
	NICStatTxBusy   = 1 << 2 // transmitter serializing a frame
	NICStatConfused = 1 << 3 // card wedged by a bad command stream
	NICStatEnabled  = 1 << 4 // receiver enabled
	NICStatResetBsy = 1 << 5 // reset in progress
)

// NIC configuration bits (NICRegCfg).
const (
	NICCfgPromisc = 1 << 0
)

// nicConfusion levels.
const (
	nicOK   = 0
	nicSoft = 1 // cleared by NICCmdReset
	nicDeep = 2 // cleared by master reset (if supported) or BIOSReset
)

// NICStats counts observable NIC events for tests and experiments.
type NICStats struct {
	RxDelivered int // frames handed to the driver
	RxDropped   int // frames lost (ring overflow or receiver disabled)
	TxFrames    int
	FCSErrors   int // frames dropped for bad FCS
}

// NICConfig configures a simulated Ethernet controller.
type NICConfig struct {
	Base            uint32  // port base
	IRQ             int     // interrupt line
	RingSize        int     // receive ring capacity (frames); default 64
	RateBps         int64   // serialization rate; default NICRateBps
	MasterReset     bool    // whether the card supports a master reset
	ConfuseProb     float64 // P(bad command confuses the card)
	DeepConfuseProb float64 // P(confusion is deep), given confused
}

// NIC is a register-level model of an Ethernet controller.
type NIC struct {
	env *sim.Env
	k   *kernel.Kernel
	cfg NICConfig

	wire *Wire
	side int // 0 or 1 on the wire

	enabled   bool
	promisc   bool
	confusion int
	resetBusy bool

	// rxRing and dmaRx pop from the front by sliding down their backing
	// arrays, so a steady stream of frames does not re-grow them.
	rxRing  [][]byte
	txFrame []byte // DMA window, set by the driver handle
	txBusy  bool
	dmaRx   [][]byte // popped frames awaiting pickup by the driver handle

	Stats NICStats
}

var _ kernel.Device = (*NIC)(nil)

// NewNIC creates a NIC and maps it into the kernel's port space at
// [cfg.Base, cfg.Base+0x20).
func NewNIC(env *sim.Env, k *kernel.Kernel, cfg NICConfig) *NIC {
	if cfg.RingSize == 0 {
		cfg.RingSize = 64
	}
	if cfg.RateBps == 0 {
		cfg.RateBps = NICRateBps
	}
	n := &NIC{env: env, k: k, cfg: cfg}
	k.MapDevice(kernel.PortRange{Lo: cfg.Base, Hi: cfg.Base + 0x20}, n)
	return n
}

// PortRange returns the ports a driver of this NIC needs privileges for.
func (n *NIC) PortRange() kernel.PortRange {
	return kernel.PortRange{Lo: n.cfg.Base, Hi: n.cfg.Base + 0x20}
}

// IRQ returns the NIC's interrupt line.
func (n *NIC) IRQ() int { return n.cfg.IRQ }

// PortIn implements kernel.Device.
func (n *NIC) PortIn(port uint32) (uint32, error) {
	switch port - n.cfg.Base {
	case NICRegStatus:
		var s uint32
		if n.wire != nil {
			s |= NICStatLink
		}
		if len(n.rxRing) > 0 {
			s |= NICStatRxAvail
		}
		if n.txBusy {
			s |= NICStatTxBusy
		}
		if n.confusion != nicOK {
			s |= NICStatConfused
		}
		if n.enabled {
			s |= NICStatEnabled
		}
		if n.resetBusy {
			s |= NICStatResetBsy
		}
		return s, nil
	case NICRegCfg:
		var c uint32
		if n.promisc {
			c |= NICCfgPromisc
		}
		return c, nil
	case NICRegRxLen:
		if len(n.rxRing) == 0 {
			return 0, nil
		}
		return uint32(len(n.rxRing[0])), nil
	default:
		return 0, nil
	}
}

// PortOut implements kernel.Device.
func (n *NIC) PortOut(port uint32, val uint32) error {
	switch port - n.cfg.Base {
	case NICRegCmd:
		n.command(val)
	case NICRegCfg:
		n.promisc = val&NICCfgPromisc != 0
	case NICRegRxPop:
		if len(n.rxRing) > 0 {
			n.dmaRx = append(n.dmaRx, n.rxRing[0])
			n.rxRing = slices.Delete(n.rxRing, 0, 1)
		}
	case NICRegTxGo:
		n.transmit()
	case NICRegBnry:
		if val >= NICBnryPages {
			// A garbage boundary pointer desynchronizes the receive
			// engine; on some cards this wedges the chip.
			n.maybeConfuse()
		}
	default:
		// Writes to undefined registers can confuse the card too.
		n.maybeConfuse()
	}
	return nil
}

func (n *NIC) command(val uint32) {
	if n.resetBusy {
		return
	}
	switch val {
	case NICCmdReset:
		n.beginReset(false)
	case NICCmdMasterReset:
		if !n.cfg.MasterReset {
			// The card does not implement this command; poking it is a
			// protocol violation like any other garbage command.
			n.maybeConfuse()
			return
		}
		n.beginReset(true)
	case NICCmdRxEnable:
		if n.confusion != nicOK {
			return // wedged card ignores enable
		}
		n.enabled = true
	default:
		n.maybeConfuse()
	}
}

func (n *NIC) beginReset(master bool) {
	n.resetBusy = true
	n.enabled = false
	n.rxRing = nil
	n.dmaRx = nil
	n.txBusy = false
	n.env.Schedule(NICResetDelay, func() {
		n.resetBusy = false
		switch {
		case master:
			n.confusion = nicOK
		case n.confusion == nicSoft:
			n.confusion = nicOK
		}
	})
}

// maybeConfuse models the card wedging on a garbage command stream.
func (n *NIC) maybeConfuse() {
	if n.cfg.ConfuseProb <= 0 || n.confusion == nicDeep {
		return
	}
	if n.env.Rand().Float64() >= n.cfg.ConfuseProb {
		return
	}
	n.confusion = nicSoft
	if n.env.Rand().Float64() < n.cfg.DeepConfuseProb {
		n.confusion = nicDeep
	}
	n.enabled = false
}

// BIOSReset is the host-level recovery of last resort for a deeply
// confused card (paper §7.2: "a low-level BIOS reset was needed"). It is
// not reachable from driver code.
func (n *NIC) BIOSReset() {
	n.confusion = nicOK
	n.enabled = false
	n.resetBusy = false
	n.rxRing = nil
	n.dmaRx = nil
	n.txBusy = false
}

// Confused reports whether the card is currently wedged (and deeply).
func (n *NIC) Confused() (confused, deep bool) {
	return n.confusion != nicOK, n.confusion == nicDeep
}

// transmit serializes the DMA window onto the wire.
func (n *NIC) transmit() {
	if n.confusion != nicOK || n.txBusy || n.txFrame == nil || n.wire == nil {
		return
	}
	frame := n.txFrame
	n.txFrame = nil
	n.txBusy = true
	n.Stats.TxFrames++
	serialize := sim.Time(int64(len(frame)) * int64(sim.Time(1e9)) / n.cfg.RateBps)
	n.wire.fly(serialize, n, nil, frame, 0)
}

// sent ends serialization: the TX-done interrupt, and the frame is on the
// wire. A reset in between does not stop it, and the transmitter may
// already be serializing the next frame.
func (n *NIC) sent(frame []byte) {
	n.txBusy = false
	n.k.RaiseIRQ(n.cfg.IRQ)
	n.wire.carry(n.side, frame)
}

// deliver is called by the wire when a frame arrives.
func (n *NIC) deliver(frame []byte, fcs uint32) {
	if !n.enabled || n.confusion != nicOK {
		n.Stats.RxDropped++
		return
	}
	if FCS(frame) != fcs {
		n.Stats.FCSErrors++
		return
	}
	if len(n.rxRing) >= n.cfg.RingSize {
		n.Stats.RxDropped++
		return
	}
	n.rxRing = append(n.rxRing, frame)
	n.k.RaiseIRQ(n.cfg.IRQ)
}

// NICHandle is the driver-side DMA window: the data path a real driver
// would program with DMA descriptors. Control decisions still go through
// the port registers.
type NICHandle struct{ n *NIC }

// Handle returns the DMA handle for the driver.
func (n *NIC) Handle() *NICHandle { return &NICHandle{n: n} }

// TakeRx returns the oldest frame popped via NICRegRxPop and not yet
// collected, or nil when the DMA window is empty.
func (h *NICHandle) TakeRx() []byte {
	if len(h.n.dmaRx) == 0 {
		return nil
	}
	f := h.n.dmaRx[0]
	h.n.dmaRx = slices.Delete(h.n.dmaRx, 0, 1)
	h.n.Stats.RxDelivered++
	return f
}

// SetTx places a frame in the DMA window for the next NICRegTxGo command.
// The card takes the frame over — it travels the wire as is — so the
// caller must not touch it again.
func (h *NICHandle) SetTx(frame []byte) { h.n.txFrame = frame }
