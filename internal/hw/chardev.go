package hw

import (
	"encoding/binary"
	"slices"

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

// Audio is a playback codec: the driver feeds samples, the device consumes
// them at a fixed rate, and an empty buffer while running is an audible
// hiccup.
//
// The codec interrupts on a rising edge of a status bit, not on a level:
// once when CharStatInAvail goes from clear to set (the capture ring
// becomes non-empty), and once when CharStatLowBuf becomes set while
// running (a playback tick takes the buffer below the watermark, or Start
// finds it there). A bit that stays set raises nothing more, so an idle
// driver is not woken a hundred times a second; a driver that wants the
// next edge drains the ring or refills the buffer, and Reset + Start
// re-arms both.
//
// Both sides tick once per AudioTick, capture on the phase of NewAudio and
// playback on that of Start, but a tick costs an event only where it can
// raise an edge or move playback: the capture tick that finds the ring
// empty, and the playback ticks until one is starved (every later one is
// a no-op until a Feed). The other ticks are applied arithmetically by
// sync, which everything that reads or changes the codec calls first: the
// state at any instant includes every tick due at or before it.
type Audio struct {
	env *sim.Env
	k   *kernel.Kernel

	running bool
	buf     int // bytes buffered (content does not matter, only timing)

	capture    []captureRun // capture ring: the held samples' numbers, oldest first
	held       int          // samples in the capture ring
	captureSeq uint32       // next sample sequence number
	made, lost int64        // capture bytes produced, and dropped because nobody read them

	// Playback counters. Only a tick that fires as an event moves them,
	// so they are exact between events.
	Consumed  int64
	Underruns int  // hiccups: starved stretches between two of playback
	gap       bool // silent since playback last ran (a hiccup if it resumes)
	starved   bool // the last playback tick was starved: later ones are no-ops until a Feed

	// The next tick of each side not yet applied, and the timers that
	// fire it when it needs an event (armed says which are pending).
	capNext, playNext   sim.Time
	capTimer, playTimer *sim.Timer
	capArmed, playArmed bool
}

// captureRun is a run of consecutively numbered samples in the capture
// ring. Sample i is the four bytes LittleEndian(uint32(i)), so the ring
// holds numbers, not bytes; a gap between two runs is the samples that
// arrived while the ring was full.
type captureRun struct {
	seq uint32 // the run's first sample
	n   int    // samples in the run
}

var _ kernel.Device = (*Audio)(nil)

// Per-tick amounts: playback bytes consumed, and whole 4-byte capture
// samples produced.
const (
	audioTickBytes   = int(AudioPlayRate * int64(AudioTick) / int64(sim.Time(1e9)))
	audioTickSamples = int(AudioInputRate*int64(AudioTick)/int64(sim.Time(1e9))) / 4
)

// NewAudio creates the audio device and maps it at [PortAudio, PortAudio+0x10).
func NewAudio(env *sim.Env, k *kernel.Kernel) *Audio {
	// A run starts only after a loss, and reads slide the array down, so
	// these few slots seldom regrow.
	a := &Audio{env: env, k: k, capture: make([]captureRun, 0, 4), capNext: env.Now() + AudioTick}
	a.capTimer = env.NewTimer(func() { a.capArmed = false; a.sync() })
	a.playTimer = env.NewTimer(func() { a.playArmed = false; a.sync() })
	k.MapDevice(a.PortRange(), a)
	a.arm()
	return a
}

// sync applies every tick due at or before now, raising the edges they
// make, and arms the timers for the next ticks that need an event.
func (a *Audio) sync() {
	now := a.env.Now()
	if a.capNext <= now {
		k := ticksThrough(a.capNext, now)
		a.captureTicks(k)
		a.capNext += sim.Time(k) * AudioTick
	}
	for a.running && a.playNext <= now {
		if a.starved {
			a.playNext += sim.Time(ticksThrough(a.playNext, now)) * AudioTick
			break
		}
		a.playTick()
		a.playNext += AudioTick
	}
	a.arm()
}

// ticksThrough counts the ticks from next, one per AudioTick, due at or
// before now (next <= now).
func ticksThrough(next, now sim.Time) int64 { return int64((now-next)/AudioTick) + 1 }

// arm schedules the next tick of each side that can raise an edge or
// move playback: capture only while the ring is empty, playback while it
// runs and is not starved. A pending timer is left alone, so a tick keeps
// its place among the events of its instant.
func (a *Audio) arm() {
	now := a.env.Now()
	if a.held == 0 && !a.capArmed {
		a.capArmed = true
		a.capTimer.Reset(a.capNext - now)
	}
	if a.running && !a.starved && !a.playArmed {
		a.playArmed = true
		a.playTimer.Reset(a.playNext - now)
	}
}

// captureTicks runs k ticks of the codec's input side: samples appear
// whether or not a driver is alive to read them, and overflow is silent
// loss. Nothing reads the ring between the k ticks, so the samples kept
// are the first of the k ticks' that fit; the rest existed, numbered, and
// are gone.
func (a *Audio) captureTicks(k int64) {
	n := k * int64(audioTickSamples) // whole 4-byte samples
	was := a.held
	fit := int(min(n, int64(AudioInputRing/4-was)))
	if fit > 0 {
		if last := len(a.capture) - 1; last >= 0 && a.capture[last].seq+uint32(a.capture[last].n) == a.captureSeq {
			a.capture[last].n += fit
		} else {
			a.capture = append(a.capture, captureRun{seq: a.captureSeq, n: fit})
		}
		a.held += fit
	}
	a.captureSeq += uint32(n)
	a.made += 4 * n
	a.lost += 4 * (n - int64(fit))
	if was == 0 && a.held > 0 {
		a.k.RaiseIRQ(IRQAudio)
	}
}

// CaptureMade returns the capture bytes the codec has produced.
func (a *Audio) CaptureMade() int64 {
	a.sync()
	return a.made
}

// CaptureLost returns the capture bytes dropped because nobody read them:
// those that found the ring full, and those a Reset flushed.
func (a *Audio) CaptureLost() int64 {
	a.sync()
	return a.lost
}

// PortRange returns the ports an audio driver needs.
func (a *Audio) PortRange() kernel.PortRange {
	return kernel.PortRange{Lo: PortAudio, Hi: PortAudio + 0x10}
}

// IRQ returns the audio interrupt line.
func (a *Audio) IRQ() int { return IRQAudio }

// PortIn implements kernel.Device.
func (a *Audio) PortIn(port uint32) (uint32, error) {
	if port-PortAudio == CharRegStatus {
		a.sync()
		var s uint32 = CharStatReady
		if a.running {
			s |= CharStatRunning
		}
		if a.buf < AudioWatermark {
			s |= CharStatLowBuf
		}
		if a.held > 0 {
			s |= CharStatInAvail
		}
		return s, nil
	}
	return 0, nil
}

// PortOut implements kernel.Device.
func (a *Audio) PortOut(port uint32, val uint32) error {
	if port-PortAudio != CharRegCmd {
		return nil
	}
	a.sync()
	switch val {
	case CharCmdReset:
		a.stop()
		// Whatever was queued is gone: silence until the next chunk
		// plays, one hiccup with the starved stretch it may extend.
		a.buf = 0
		a.gap = a.Consumed > 0
		// Resetting the codec flushes the capture FIFO: whatever input
		// was pending is unrecoverable (read-once, §6.3). A restarted
		// driver always resets.
		a.lost += 4 * int64(a.held)
		a.capture = a.capture[:0]
		a.held = 0
	case CharCmdStart:
		if !a.running {
			a.running, a.starved = true, false
			a.playNext = a.env.Now() + AudioTick
			if a.buf < AudioWatermark {
				a.k.RaiseIRQ(IRQAudio)
			}
		}
	case CharCmdStop:
		a.stop()
	}
	a.arm()
	return nil
}

func (a *Audio) stop() {
	a.running = false
	if a.playArmed {
		a.playArmed = false
		a.playTimer.Stop()
	}
}

// playTick consumes one tick of playback while the codec runs. A hiccup
// is a starved stretch between two stretches of playback: it counts once,
// when playback resumes, however many ticks it lasted. The wait for the
// first chunk and the silence after the last are not hiccups.
func (a *Audio) playTick() {
	wasLow := a.buf < AudioWatermark
	if a.buf >= audioTickBytes {
		a.buf -= audioTickBytes
		a.Consumed += int64(audioTickBytes)
		if a.gap {
			a.Underruns++
			a.gap = false
		}
	} else {
		// Starved: whatever remains plays, then silence.
		a.Consumed += int64(a.buf)
		a.buf = 0
		a.gap = a.Consumed > 0
		a.starved = true
	}
	if !wasLow && a.buf < AudioWatermark {
		a.k.RaiseIRQ(IRQAudio)
	}
}

// AudioHandle is the driver-side sample data window.
type AudioHandle struct{ a *Audio }

// Handle returns the audio DMA handle.
func (a *Audio) Handle() *AudioHandle { return &AudioHandle{a: a} }

// Feed appends n bytes of samples to the playback buffer; it returns how
// many bytes fit.
func (h *AudioHandle) Feed(n int) int {
	a := h.a
	a.sync()
	n = min(n, AudioBufSize-a.buf)
	a.buf += n
	if n > 0 {
		a.starved = false
		a.arm()
	}
	return n
}

// Buffered returns the bytes currently queued for playback.
func (h *AudioHandle) Buffered() int {
	h.a.sync()
	return h.a.buf
}

// ReadCapture pops up to n captured bytes (whole samples; n < 0 reads
// none) from the controller. The data is consumed by the read: a second
// read never sees it again.
func (h *AudioHandle) ReadCapture(n int) []byte {
	a := h.a
	a.sync()
	take := min(max(n, 0)/4, a.held) // whole samples
	out := make([]byte, 4*take)
	done := 0 // runs read to their end
	for b := out; len(b) > 0; b = b[4:] {
		r := &a.capture[done]
		binary.LittleEndian.PutUint32(b, r.seq)
		r.seq++
		if r.n--; r.n == 0 {
			done++
		}
	}
	a.capture = slices.Delete(a.capture, 0, done)
	a.held -= take
	a.arm()
	return out
}

// ---------------------------------------------------------------------------
// Line printer

// Printer prints lines one at a time. The driver cannot observe how far
// into a line the device got — the §6.3 "duplicate printouts may result"
// property.
type Printer struct {
	env *sim.Env
	k   *kernel.Kernel

	busy    bool
	pending string

	Output []string // lines that completed on paper
}

var _ kernel.Device = (*Printer)(nil)

// NewPrinter creates the printer device mapped at [PortPrinter, PortPrinter+0x10).
func NewPrinter(env *sim.Env, k *kernel.Kernel) *Printer {
	p := &Printer{env: env, k: k}
	k.MapDevice(p.PortRange(), p)
	return p
}

// PortRange returns the ports a printer driver needs.
func (p *Printer) PortRange() kernel.PortRange {
	return kernel.PortRange{Lo: PortPrinter, Hi: PortPrinter + 0x10}
}

// IRQ returns the printer interrupt line.
func (p *Printer) IRQ() int { return IRQPrinter }

// PortIn implements kernel.Device.
func (p *Printer) PortIn(port uint32) (uint32, error) {
	if port-PortPrinter == CharRegStatus {
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
	if port-PortPrinter == CharRegCmd && val == CharCmdReset {
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
	p.env.Schedule(PrinterLineTime, func() {
		if !p.busy { // reset raced the completion
			return
		}
		p.Output = append(p.Output, p.pending)
		p.busy = false
		p.pending = ""
		p.k.RaiseIRQ(IRQPrinter)
	})
	return true
}

// ---------------------------------------------------------------------------
// CD burner

// Burner models the one device where recovery can never help: a burn in
// progress that stalls longer than the buffer can cover ruins the disc
// (paper §6.3's "continuing the CD burn will most certainly produce a
// corrupted disc").
type Burner struct {
	env *sim.Env
	k   *kernel.Kernel

	burning bool
	ruined  bool
	written int64
	total   int64
	guard   *sim.Timer // BurnerMaxStall, re-armed by every chunk
}

var _ kernel.Device = (*Burner)(nil)

// NewBurner creates the burner mapped at [PortBurner, PortBurner+0x10).
func NewBurner(env *sim.Env, k *kernel.Kernel) *Burner {
	b := &Burner{env: env, k: k}
	b.guard = env.NewTimer(func() {
		if b.burning && b.written < b.total {
			b.ruined = true
		}
	})
	k.MapDevice(b.PortRange(), b)
	return b
}

// PortRange returns the ports a burner driver needs.
func (b *Burner) PortRange() kernel.PortRange {
	return kernel.PortRange{Lo: PortBurner, Hi: PortBurner + 0x10}
}

// IRQ returns the burner interrupt line.
func (b *Burner) IRQ() int { return IRQBurner }

// PortIn implements kernel.Device.
func (b *Burner) PortIn(port uint32) (uint32, error) {
	if port-PortBurner == CharRegStatus {
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
	if port-PortBurner == CharRegCmd && val == CharCmdReset {
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
	b.guard.Reset(BurnerMaxStall)
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
	b.guard.Reset(BurnerMaxStall)
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
