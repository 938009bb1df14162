package hw

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/sim"
)

// refAudio is the codec as it was before its ticks ran on sim.Ticker: a
// fresh closure and event per tick, and a capture tick that walks every
// sample, appending it or counting it lost. It is the reference the
// arithmetic capture tick is held to.
type refAudio struct {
	env *sim.Env
	k   *kernel.Kernel
	cfg AudioConfig

	running bool
	buf     int

	capture    []byte
	captureSeq uint32

	Consumed    int64
	Underruns   int
	CaptureMade int64
	CaptureLost int64
	inUnderrun  bool
	ticker      *sim.Event
}

func (a *refAudio) scheduleCapture() {
	a.env.Schedule(a.cfg.Tick, func() {
		n := int(a.cfg.CaptureRate * int64(a.cfg.Tick) / int64(sim.Time(1e9)))
		n &^= 3 // whole 4-byte samples
		for i := 0; i < n; i += 4 {
			a.CaptureMade += 4
			if len(a.capture)+4 > a.cfg.CaptureBuf {
				a.CaptureLost += 4
				a.captureSeq++ // the sample existed; it is simply gone
				continue
			}
			var w [4]byte
			w[0] = byte(a.captureSeq)
			w[1] = byte(a.captureSeq >> 8)
			w[2] = byte(a.captureSeq >> 16)
			w[3] = byte(a.captureSeq >> 24)
			a.capture = append(a.capture, w[:]...)
			a.captureSeq++
		}
		if len(a.capture) > 0 {
			a.k.RaiseIRQ(a.cfg.IRQ)
		}
		a.scheduleCapture()
	})
}

func (a *refAudio) portOut(val uint32) {
	switch val {
	case CharCmdReset:
		a.stop()
		a.buf = 0
		a.inUnderrun = false
		a.CaptureLost += int64(len(a.capture))
		a.capture = nil
	case CharCmdStart:
		if !a.running {
			a.running = true
			a.scheduleTick()
		}
	case CharCmdStop:
		a.stop()
	}
}

func (a *refAudio) stop() {
	a.running = false
	if a.ticker != nil {
		a.ticker.Cancel()
		a.ticker = nil
	}
}

func (a *refAudio) scheduleTick() {
	a.ticker = a.env.Schedule(a.cfg.Tick, func() {
		if !a.running {
			return
		}
		need := int(a.cfg.PlayRate * int64(a.cfg.Tick) / int64(sim.Time(1e9)))
		if a.buf >= need {
			a.buf -= need
			a.Consumed += int64(need)
			a.inUnderrun = false
		} else {
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
		a.scheduleTick()
	})
}

func (a *refAudio) feed(n int) int {
	n = min(n, a.cfg.BufSize-a.buf)
	a.buf += n
	return n
}

func (a *refAudio) readCapture(max int) []byte {
	if max > len(a.capture) {
		max = len(a.capture)
	}
	max &^= 3
	out := make([]byte, max)
	copy(out, a.capture[:max])
	a.capture = a.capture[max:]
	return out
}

// diff names the first state the two codecs disagree on, or "".
func (a *refAudio) diff(b *Audio) string {
	switch {
	case !bytes.Equal(a.capture, b.capture):
		return fmt.Sprintf("ring: %d bytes, reference %d", len(b.capture), len(a.capture))
	case a.CaptureMade != b.CaptureMade || a.CaptureLost != b.CaptureLost:
		return fmt.Sprintf("made/lost %d/%d, reference %d/%d", b.CaptureMade, b.CaptureLost, a.CaptureMade, a.CaptureLost)
	case a.captureSeq != b.captureSeq:
		return fmt.Sprintf("captureSeq %d, reference %d", b.captureSeq, a.captureSeq)
	case a.Consumed != b.Consumed || a.Underruns != b.Underruns || a.buf != b.buf:
		return fmt.Sprintf("consumed/underruns/buffered %d/%d/%d, reference %d/%d/%d",
			b.Consumed, b.Underruns, b.buf, a.Consumed, a.Underruns, a.buf)
	}
	return ""
}

// TestCaptureMatchesPerSampleReference drives the codec and the
// per-sample reference through the same random script — runs of any
// length (a full ring included: nothing reads for up to 40 ticks), reads
// of 0–20 KiB at unaligned sizes, feeds, Reset / Start / Stop — over
// capture rates and ring sizes that do not divide into whole samples. The
// ring bytes and every counter must agree after every step.
func TestCaptureMatchesPerSampleReference(t *testing.T) {
	configs := []AudioConfig{
		{CaptureRate: 64000},                              // the machine's codec: 160 samples a tick
		{CaptureRate: 64100, CaptureBuf: 1001},            // 641 bytes a tick, a ring of 250¼ samples
		{CaptureRate: 300, CaptureBuf: 6, PlayRate: 9000}, // less than one sample a tick
		{CaptureRate: 1 << 20, CaptureBuf: 4099, Tick: 3 * time.Millisecond},
	}
	for ci, cfg := range configs {
		for seed := int64(0); seed < 16; seed++ {
			env, k := testRig(t)
			cfg.Base, cfg.IRQ = 0x3000, 5
			a := NewAudio(env, k, cfg)
			ref := &refAudio{env: env, k: k, cfg: a.cfg}
			ref.scheduleCapture()
			rng := rand.New(rand.NewSource(seed))
			read := 0
			for step := 0; step < 400; step++ {
				var did string
				switch op := rng.Intn(10); {
				case op < 4:
					d := sim.Time(rng.Int63n(int64(40 * a.cfg.Tick)))
					did = fmt.Sprintf("run %v", d)
					env.Run(d)
				case op < 6:
					n := rng.Intn(20<<10 + 1)
					did = fmt.Sprintf("read %d", n)
					got, want := a.Handle().ReadCapture(n), ref.readCapture(n)
					if !bytes.Equal(got, want) {
						t.Fatalf("config %d seed %d step %d: %s returned %d bytes, reference %d",
							ci, seed, step, did, len(got), len(want))
					}
					read += len(got)
				case op < 7:
					n := rng.Intn(8000)
					did = fmt.Sprintf("feed %d", n)
					if got, want := a.Handle().Feed(n), ref.feed(n); got != want {
						t.Fatalf("config %d seed %d step %d: %s took %d, reference %d", ci, seed, step, did, got, want)
					}
				default:
					cmd := []uint32{CharCmdReset, CharCmdStart, CharCmdStop}[rng.Intn(3)]
					did = fmt.Sprintf("command %d", cmd)
					a.PortOut(cfg.Base+CharRegCmd, cmd)
					ref.portOut(cmd)
				}
				if d := ref.diff(a); d != "" {
					t.Fatalf("config %d seed %d step %d, after %s: %s", ci, seed, step, did, d)
				}
			}
			if a.CaptureMade > 0 && (a.CaptureLost == 0 || read == 0) {
				t.Fatalf("config %d seed %d: made %d, lost %d, read %d: the script never lost or never read a sample",
					ci, seed, a.CaptureMade, a.CaptureLost, read)
			}
		}
	}
}
