package hw

import (
	"encoding/binary"

	"resilientos/internal/kernel"
	"resilientos/internal/sim"
)

// Character devices. These model the essential property the paper builds
// §6.3 on: character streams are *not* idempotent. Input can be read from
// the controller only once (a dead driver loses it), and there is no way to
// tell how much of an output stream reached the device, so transparent
// recovery is impossible and the failure must be pushed up to the
// application layer.

// Character device register offsets (shared by audio/printer/burner).
const (
	CharRegCmd    = 0x00
	CharRegStatus = 0x04
)

// Character device commands.
const (
	CharCmdReset = 1
	CharCmdStart = 2
	CharCmdStop  = 3
)

// Character device status bits.
const (
	CharStatReady   = 1 << 0
	CharStatRunning = 1 << 1
	CharStatLowBuf  = 1 << 2 // playback buffer below refill watermark
	CharStatInAvail = 1 << 3 // capture bytes available
)

// ---------------------------------------------------------------------------
// Audio codec

// AudioConfig configures the audio device.
type AudioConfig struct {
	Base      uint32
	IRQ       int
	PlayRate  int64    // playback consumption, bytes/s
	BufSize   int      // playback buffer capacity in bytes
	Watermark int      // refill IRQ threshold
	Tick      sim.Time // consumption granularity

	// CaptureRate enables the input side: the codec produces this many
	// bytes/s of samples into a small ring. Input can be read from the
	// controller exactly once: if no driver drains the ring, samples are
	// gone forever (§6.3's read-once property).
	CaptureRate int64
	// CaptureBuf is the capture ring capacity (default 16 KiB).
	CaptureBuf int
}

// Audio is a playback codec: the driver feeds samples, the device consumes
// them at a fixed rate, and an empty buffer while running is an audible
// hiccup.
type Audio struct {
	env *sim.Env
	k   *kernel.Kernel
	cfg AudioConfig

	running bool
	buf     int // bytes buffered (content does not matter, only timing)

	capture    []byte // capture ring (content is sequence-numbered)
	captureSeq uint32 // next sample sequence number

	Consumed    int64
	Underruns   int   // distinct hiccup episodes
	CaptureMade int64 // capture bytes produced by the codec
	CaptureLost int64 // capture bytes dropped because nobody read them
	inUnderrun  bool  // currently starved
	play        *sim.Ticker
}

var _ kernel.Device = (*Audio)(nil)

// NewAudio creates the audio device and maps it at [Base, Base+0x10).
func NewAudio(env *sim.Env, k *kernel.Kernel, cfg AudioConfig) *Audio {
	if cfg.PlayRate == 0 {
		cfg.PlayRate = 176_400 // 44.1 kHz, 16-bit stereo
	}
	if cfg.BufSize == 0 {
		cfg.BufSize = 65536
	}
	if cfg.Watermark == 0 {
		cfg.Watermark = cfg.BufSize / 4
	}
	if cfg.Tick == 0 {
		cfg.Tick = 10 * sim.Time(1e6) // 10ms
	}
	if cfg.CaptureBuf == 0 {
		cfg.CaptureBuf = 16 << 10
	}
	a := &Audio{env: env, k: k, cfg: cfg}
	k.MapDevice(kernel.PortRange{Lo: cfg.Base, Hi: cfg.Base + 0x10}, a)
	if cfg.CaptureRate > 0 {
		env.Tick(cfg.Tick, a.captureTick)
	}
	return a
}

// captureTick runs the codec's input side: samples appear whether or not
// a driver is alive to read them, and overflow is silent loss. Only the
// samples that fit are written; the rest existed, numbered, and are gone.
func (a *Audio) captureTick() {
	n := int(a.cfg.CaptureRate*int64(a.cfg.Tick)/int64(sim.Time(1e9))) / 4 // whole 4-byte samples
	fit := min(n, max(0, (a.cfg.CaptureBuf-len(a.capture))/4))
	for i := range fit {
		a.capture = binary.LittleEndian.AppendUint32(a.capture, a.captureSeq+uint32(i))
	}
	a.captureSeq += uint32(n)
	a.CaptureMade += 4 * int64(n)
	a.CaptureLost += 4 * int64(n-fit)
	if len(a.capture) > 0 {
		a.k.RaiseIRQ(a.cfg.IRQ)
	}
}

// PortRange returns the ports an audio driver needs.
func (a *Audio) PortRange() kernel.PortRange {
	return kernel.PortRange{Lo: a.cfg.Base, Hi: a.cfg.Base + 0x10}
}

// IRQ returns the audio interrupt line.
func (a *Audio) IRQ() int { return a.cfg.IRQ }

// PortIn implements kernel.Device.
func (a *Audio) PortIn(port uint32) (uint32, error) {
	if port-a.cfg.Base == CharRegStatus {
		var s uint32 = CharStatReady
		if a.running {
			s |= CharStatRunning
		}
		if a.buf < a.cfg.Watermark {
			s |= CharStatLowBuf
		}
		if len(a.capture) > 0 {
			s |= CharStatInAvail
		}
		return s, nil
	}
	return 0, nil
}

// PortOut implements kernel.Device.
func (a *Audio) PortOut(port uint32, val uint32) error {
	if port-a.cfg.Base != CharRegCmd {
		return nil
	}
	switch val {
	case CharCmdReset:
		a.stop()
		a.buf = 0
		a.inUnderrun = false
		// Resetting the codec flushes the capture FIFO: whatever input
		// was pending is unrecoverable (read-once, §6.3). A restarted
		// driver always resets.
		a.CaptureLost += int64(len(a.capture))
		a.capture = nil
	case CharCmdStart:
		if !a.running {
			a.running = true
			a.play = a.env.Tick(a.cfg.Tick, a.playTick)
		}
	case CharCmdStop:
		a.stop()
	}
	return nil
}

func (a *Audio) stop() {
	a.running = false
	a.play.Stop()
	a.play = nil
}

// playTick consumes one tick of playback while the codec runs.
func (a *Audio) playTick() {
	need := int(a.cfg.PlayRate * int64(a.cfg.Tick) / int64(sim.Time(1e9)))
	if a.buf >= need {
		a.buf -= need
		a.Consumed += int64(need)
		a.inUnderrun = false
	} else {
		// Starved: whatever remains plays, then silence. One episode
		// counts once however many ticks it lasts.
		a.Consumed += int64(a.buf)
		a.buf = 0
		if !a.inUnderrun {
			a.Underruns++
			a.inUnderrun = true
		}
	}
	if a.buf < a.cfg.Watermark {
		a.k.RaiseIRQ(a.cfg.IRQ)
	}
}

// AudioHandle is the driver-side sample data window.
type AudioHandle struct{ a *Audio }

// Handle returns the audio DMA handle.
func (a *Audio) Handle() *AudioHandle { return &AudioHandle{a: a} }

// Feed appends n bytes of samples to the playback buffer; it returns how
// many bytes fit.
func (h *AudioHandle) Feed(n int) int {
	room := h.a.cfg.BufSize - h.a.buf
	if n > room {
		n = room
	}
	h.a.buf += n
	return n
}

// Buffered returns the bytes currently queued for playback.
func (h *AudioHandle) Buffered() int { return h.a.buf }

// ReadCapture pops up to max captured bytes from the controller. The
// data is consumed by the read: a second read never sees it again.
func (h *AudioHandle) ReadCapture(max int) []byte {
	a := h.a
	if max > len(a.capture) {
		max = len(a.capture)
	}
	max &^= 3
	out := make([]byte, max)
	copy(out, a.capture[:max])
	a.capture = a.capture[max:]
	return out
}

// ---------------------------------------------------------------------------
// Line printer

// PrinterConfig configures the printer device.
type PrinterConfig struct {
	Base     uint32
	IRQ      int
	LineTime sim.Time // time to print one line
}

// Printer prints lines one at a time. The driver cannot observe how far
// into a line the device got — the §6.3 "duplicate printouts may result"
// property.
type Printer struct {
	env *sim.Env
	k   *kernel.Kernel
	cfg PrinterConfig

	busy    bool
	pending string

	Output []string // lines that completed on paper
}

var _ kernel.Device = (*Printer)(nil)

// NewPrinter creates the printer device mapped at [Base, Base+0x10).
func NewPrinter(env *sim.Env, k *kernel.Kernel, cfg PrinterConfig) *Printer {
	if cfg.LineTime == 0 {
		cfg.LineTime = 50 * sim.Time(1e6) // 50ms/line
	}
	p := &Printer{env: env, k: k, cfg: cfg}
	k.MapDevice(kernel.PortRange{Lo: cfg.Base, Hi: cfg.Base + 0x10}, p)
	return p
}

// PortRange returns the ports a printer driver needs.
func (p *Printer) PortRange() kernel.PortRange {
	return kernel.PortRange{Lo: p.cfg.Base, Hi: p.cfg.Base + 0x10}
}

// IRQ returns the printer interrupt line.
func (p *Printer) IRQ() int { return p.cfg.IRQ }

// PortIn implements kernel.Device.
func (p *Printer) PortIn(port uint32) (uint32, error) {
	if port-p.cfg.Base == CharRegStatus {
		var s uint32
		if !p.busy {
			s = CharStatReady
		} else {
			s = CharStatRunning
		}
		return s, nil
	}
	return 0, nil
}

// PortOut implements kernel.Device.
func (p *Printer) PortOut(port uint32, val uint32) error {
	if port-p.cfg.Base == CharRegCmd && val == CharCmdReset {
		// Reset mid-line: the partial line is lost; the device cannot say
		// whether it completed.
		p.busy = false
		p.pending = ""
	}
	return nil
}

// PrinterHandle is the driver-side data window.
type PrinterHandle struct{ p *Printer }

// Handle returns the printer data handle.
func (p *Printer) Handle() *PrinterHandle { return &PrinterHandle{p: p} }

// Submit starts printing one line; returns false if the device is busy.
// An IRQ announces completion.
func (h *PrinterHandle) Submit(line string) bool {
	p := h.p
	if p.busy {
		return false
	}
	p.busy = true
	p.pending = line
	p.env.Schedule(p.cfg.LineTime, func() {
		if !p.busy { // reset raced the completion
			return
		}
		p.Output = append(p.Output, p.pending)
		p.busy = false
		p.pending = ""
		p.k.RaiseIRQ(p.cfg.IRQ)
	})
	return true
}

// ---------------------------------------------------------------------------
// CD burner

// BurnerConfig configures the CD burner.
type BurnerConfig struct {
	Base     uint32
	IRQ      int
	WriteBps int64    // laser write rate
	GapLimit sim.Time // max stall before the burn is ruined (buffer underrun)
}

// Burner models the one device where recovery can never help: a burn in
// progress that stalls longer than the buffer can cover ruins the disc
// (paper §6.3's "continuing the CD burn will most certainly produce a
// corrupted disc").
type Burner struct {
	env *sim.Env
	k   *kernel.Kernel
	cfg BurnerConfig

	burning   bool
	ruined    bool
	written   int64
	total     int64
	lastWrite sim.Time
	guard     *sim.Timer // the gap limit, re-armed by every chunk
}

var _ kernel.Device = (*Burner)(nil)

// NewBurner creates the burner mapped at [Base, Base+0x10).
func NewBurner(env *sim.Env, k *kernel.Kernel, cfg BurnerConfig) *Burner {
	if cfg.WriteBps == 0 {
		cfg.WriteBps = 2_400_000
	}
	if cfg.GapLimit == 0 {
		cfg.GapLimit = 300 * sim.Time(1e6) // 300ms of buffer
	}
	b := &Burner{env: env, k: k, cfg: cfg}
	b.guard = env.NewTimer(func() {
		if b.burning && b.written < b.total {
			b.ruined = true
		}
	})
	k.MapDevice(kernel.PortRange{Lo: cfg.Base, Hi: cfg.Base + 0x10}, b)
	return b
}

// PortRange returns the ports a burner driver needs.
func (b *Burner) PortRange() kernel.PortRange {
	return kernel.PortRange{Lo: b.cfg.Base, Hi: b.cfg.Base + 0x10}
}

// IRQ returns the burner interrupt line.
func (b *Burner) IRQ() int { return b.cfg.IRQ }

// PortIn implements kernel.Device.
func (b *Burner) PortIn(port uint32) (uint32, error) {
	if port-b.cfg.Base == CharRegStatus {
		var s uint32 = CharStatReady
		if b.burning {
			s |= CharStatRunning
		}
		return s, nil
	}
	return 0, nil
}

// PortOut implements kernel.Device.
func (b *Burner) PortOut(port uint32, val uint32) error {
	if port-b.cfg.Base == CharRegCmd && val == CharCmdReset {
		// Resetting the controller mid-burn aborts the write session: the
		// disc is ruined (§6.3's "will most certainly produce a corrupted
		// disc"). A restarted driver always resets.
		if b.burning && b.written < b.total {
			b.ruined = true
		}
	}
	return nil
}

// BurnerHandle is the driver-side data window.
type BurnerHandle struct{ b *Burner }

// Handle returns the burner data handle.
func (b *Burner) Handle() *BurnerHandle { return &BurnerHandle{b: b} }

// Begin starts a burn of total bytes.
func (h *BurnerHandle) Begin(total int64) {
	b := h.b
	b.burning = true
	b.ruined = false
	b.written = 0
	b.total = total
	b.lastWrite = b.env.Now()
	b.guard.Reset(b.cfg.GapLimit)
}

// Write feeds the next chunk of the burn. Late chunks (after the gap
// limit) find the disc already ruined; the burn state still advances so
// the failure is detected at Finish.
func (h *BurnerHandle) Write(n int64) {
	b := h.b
	if !b.burning {
		return
	}
	b.written += n
	b.lastWrite = b.env.Now()
	b.guard.Reset(b.cfg.GapLimit)
}

// Finish ends the burn and reports whether the disc is good.
func (h *BurnerHandle) Finish() (ok bool) {
	b := h.b
	b.guard.Stop()
	ok = b.burning && !b.ruined && b.written >= b.total
	b.burning = false
	return ok
}

// Ruined reports whether the current/last burn was ruined.
func (b *Burner) Ruined() bool { return b.ruined }
