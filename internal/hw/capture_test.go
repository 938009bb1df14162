package hw

import (
	"bytes"
	"encoding/binary"
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
// arithmetic capture tick is held to. It also keeps the old level-raised
// interrupt — one on every tick while a status bit is set — but only
// counts it in raised, so that the codec's line is the only one the
// kernel sees.
type refAudio struct {
	env *sim.Env
	k   *kernel.Kernel

	running bool
	buf     int

	capture    []byte
	captureSeq uint32

	Consumed    int64
	Underruns   int
	CaptureMade int64
	CaptureLost int64
	gap         bool
	ticker      *sim.Event
	raised      int

	capAt, playAt sim.Time // the instants of the pending capture and playback ticks
}

func (a *refAudio) scheduleCapture() {
	a.capAt = a.env.Now() + AudioTick
	a.env.Schedule(AudioTick, func() {
		n := int(AudioInputRate * int64(AudioTick) / int64(sim.Time(1e9)))
		n &^= 3 // whole 4-byte samples
		for i := 0; i < n; i += 4 {
			a.CaptureMade += 4
			if len(a.capture)+4 > AudioInputRing {
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
			a.raised++
		}
		a.scheduleCapture()
	})
}

func (a *refAudio) portOut(val uint32) {
	switch val {
	case CharCmdReset:
		a.stop()
		a.buf = 0
		a.gap = a.Consumed > 0
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
	a.playAt = a.env.Now() + AudioTick
	a.ticker = a.env.Schedule(AudioTick, func() {
		if !a.running {
			return
		}
		need := int(AudioPlayRate * int64(AudioTick) / int64(sim.Time(1e9)))
		if a.buf >= need {
			a.buf -= need
			a.Consumed += int64(need)
			if a.gap {
				a.Underruns++
				a.gap = false
			}
		} else {
			a.Consumed += int64(a.buf)
			a.buf = 0
			a.gap = a.Consumed > 0
		}
		if a.buf < AudioWatermark {
			a.raised++
		}
		a.scheduleTick()
	})
}

func (a *refAudio) feed(n int) int {
	n = min(n, AudioBufSize-a.buf)
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

// levels returns the two status bits the codec interrupts on: capture
// bytes available, and the playback buffer below the watermark while
// running.
func (a *refAudio) levels() (inAvail, lowBuf bool) {
	return len(a.capture) > 0, a.running && a.buf < AudioWatermark
}

// ringBytes is the codec's capture ring as the bytes a reader would get.
func ringBytes(b *Audio) []byte {
	var out []byte
	for _, r := range b.capture {
		for i := range r.n {
			out = binary.LittleEndian.AppendUint32(out, r.seq+uint32(i))
		}
	}
	return out
}

// diff names the first state the two codecs disagree on, or "". It reads
// the codec through its accessors first, so the ticks it has not run as
// events are applied (Audio.sync) before anything is compared.
func (a *refAudio) diff(b *Audio) string {
	made, lost, buffered := b.CaptureMade(), b.CaptureLost(), b.Handle().Buffered()
	switch {
	case !bytes.Equal(a.capture, ringBytes(b)):
		return fmt.Sprintf("ring: %d bytes, reference %d", len(ringBytes(b)), len(a.capture))
	case 4*b.held != len(a.capture):
		return fmt.Sprintf("ring: %d samples held, reference %d bytes", b.held, len(a.capture))
	case a.CaptureMade != made || a.CaptureLost != lost:
		return fmt.Sprintf("made/lost %d/%d, reference %d/%d", made, lost, a.CaptureMade, a.CaptureLost)
	case a.captureSeq != b.captureSeq:
		return fmt.Sprintf("captureSeq %d, reference %d", b.captureSeq, a.captureSeq)
	case a.Consumed != b.Consumed || a.Underruns != b.Underruns || a.buf != buffered:
		return fmt.Sprintf("consumed/underruns/buffered %d/%d/%d, reference %d/%d/%d",
			b.Consumed, b.Underruns, buffered, a.Consumed, a.Underruns, a.buf)
	}
	return ""
}

// TestCaptureMatchesPerSampleReference drives the machine's codec and
// the per-sample reference through the same random script — runs of any
// length (a full ring included: nothing reads for up to 40 ticks), reads
// of 0–20 KiB at unaligned sizes, feeds, Reset / Start / Stop. The ring
// bytes and every counter must agree after every step, read through the
// codec's catch-up path: a full ring and a starved playback tick no
// events, and their ticks are applied when something looks.
//
// Some runs end exactly on a capture or a playback tick instant, and the
// step after one is a read, a feed or a command at that instant: the
// codec's state then includes the tick due there, as the reference's,
// whose tick event has fired, does. Feeds that find playback parked
// after a starved tick must happen, and must resume it on its phase.
//
// It is also the interrupt oracle: in every step the codec raises its
// line exactly as often as the reference's two level conditions (see
// levels) rise. No step can raise a condition twice — between reads,
// feeds and commands the ring only grows and the playback buffer only
// drains — so comparing the levels before and after each step sees every
// rising edge. The reference's per-tick raises must outnumber them, or
// the script never held a bit set across a tick.
func TestCaptureMatchesPerSampleReference(t *testing.T) {
	ties, parkedFeeds := 0, 0
	for seed := int64(0); seed < 16; seed++ {
		env, k := testRig(t)
		a := NewAudio(env, k)
		ref := &refAudio{env: env, k: k}
		ref.scheduleCapture()
		rng := rand.New(rand.NewSource(seed))
		read, edges := 0, uint64(0)
		onTick := false // the last step ended on a tick instant
		for step := 0; step < 400; step++ {
			var did string
			inAvail, lowBuf := ref.levels()
			raised := k.IRQsRaised(IRQAudio)
			op := rng.Intn(12)
			if onTick {
				op = 4 + rng.Intn(6) // a read, a feed or a command, at the instant
				ties++
			}
			onTick = false
			switch {
			case op < 4:
				d := sim.Time(rng.Int63n(int64(40 * AudioTick)))
				did = fmt.Sprintf("run %v", d)
				env.Run(d)
			case op < 6:
				n := rng.Intn(20<<10 + 1)
				did = fmt.Sprintf("read %d", n)
				got, want := a.Handle().ReadCapture(n), ref.readCapture(n)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: %s returned %d bytes, reference %d",
						seed, step, did, len(got), len(want))
				}
				read += len(got)
			case op < 7:
				n := rng.Intn(8000)
				did = fmt.Sprintf("feed %d", n)
				if a.running && a.starved && n > 0 {
					parkedFeeds++
				}
				if got, want := a.Handle().Feed(n), ref.feed(n); got != want {
					t.Fatalf("seed %d step %d: %s took %d, reference %d", seed, step, did, got, want)
				}
			case op < 10:
				cmd := []uint32{CharCmdReset, CharCmdStart, CharCmdStop}[rng.Intn(3)]
				did = fmt.Sprintf("command %d", cmd)
				a.PortOut(PortAudio+CharRegCmd, cmd)
				ref.portOut(cmd)
			default:
				at := ref.capAt
				if ref.running && rng.Intn(2) == 0 {
					at = ref.playAt
				}
				at += sim.Time(rng.Intn(30)) * AudioTick
				did = fmt.Sprintf("run to the tick at %v", at)
				env.RunUntil(at)
				onTick = true
			}
			if d := ref.diff(a); d != "" {
				t.Fatalf("seed %d step %d, after %s: %s", seed, step, did, d)
			}
			nowAvail, nowLow := ref.levels()
			rose := uint64(0)
			if !inAvail && nowAvail {
				rose++
			}
			if !lowBuf && nowLow {
				rose++
			}
			edges += rose
			if got := k.IRQsRaised(IRQAudio) - raised; got != rose {
				t.Fatalf("seed %d step %d, after %s: codec raised line %d %d times, the status bits rose %d times",
					seed, step, did, IRQAudio, got, rose)
			}
		}
		if uint64(ref.raised) <= edges {
			t.Fatalf("seed %d: the reference's per-tick raises (%d) do not outnumber the edges (%d)",
				seed, ref.raised, edges)
		}
		if a.lost == 0 || read == 0 {
			t.Fatalf("seed %d: made %d, lost %d, read %d: the script never lost or never read a sample",
				seed, a.made, a.lost, read)
		}
	}
	if ties < 400 || parkedFeeds < 50 {
		t.Fatalf("%d accesses on a tick instant, %d feeds to a parked playback: the script missed the cases it is for",
			ties, parkedFeeds)
	}
}

// TestIdleCodecAllocatesNothing: a codec whose capture ring nobody reads
// fills it, then loses every later sample, for a virtual minute without
// allocating: the ring holds sample numbers, never bytes, and the timers
// that fire its ticks are reused. Every booted system runs such a codec.
// Only the codec's own work is counted: a Reset + Start, a minute, and
// the counters read through the catch-up path.
func TestIdleCodecAllocatesNothing(t *testing.T) {
	env, k := testRig(t)
	a := NewAudio(env, k)
	allocs := testing.AllocsPerRun(20, func() {
		a.PortOut(PortAudio+CharRegCmd, CharCmdReset)
		a.PortOut(PortAudio+CharRegCmd, CharCmdStart)
		env.Run(time.Minute)
		a.CaptureLost()
	})
	if allocs != 0 {
		t.Fatalf("a minute of an idle codec made %v allocations, want 0", allocs)
	}
	if a.held != AudioInputRing/4 || a.CaptureLost() == 0 {
		t.Fatalf("ring holds %d samples, %d bytes lost: the ring never filled", a.held, a.CaptureLost())
	}
}

// TestIdleCodecRunsNoEvents: after a Reset + Start nobody feeds or reads,
// the codec raises its two edges — the buffer found low at Start, the
// first capture — and runs one tick event per side: the capture tick that
// finds the ring empty and the playback tick that starves. After those it
// executes no event for a virtual minute, and the minute's ticks are
// still all applied when something looks.
func TestIdleCodecRunsNoEvents(t *testing.T) {
	env, k := testRig(t)
	a := NewAudio(env, k)
	a.PortOut(PortAudio+CharRegCmd, CharCmdReset)
	a.PortOut(PortAudio+CharRegCmd, CharCmdStart)
	env.Run(AudioTick)
	if got := k.IRQsRaised(IRQAudio); got != 2 {
		t.Fatalf("line %d raised %d times after the first tick, want the 2 edges", IRQAudio, got)
	}
	if got := env.EventsExecuted(); got != 2 {
		t.Fatalf("the first tick ran %d events, want one per side", got)
	}
	env.Run(time.Minute)
	if got := env.EventsExecuted(); got != 2 {
		t.Fatalf("an idle minute ran %d events, want none", got-2)
	}
	ticks := int64((AudioTick + time.Minute) / AudioTick)
	if made, want := a.CaptureMade(), 4*int64(audioTickSamples)*ticks; made != want {
		t.Fatalf("captured %d bytes in %d ticks, want %d", made, ticks, want)
	}
	if lost, want := a.CaptureLost(), a.CaptureMade()-AudioInputRing; lost != want {
		t.Fatalf("lost %d bytes, want all but a ring's worth: %d", lost, want)
	}
	if got := k.IRQsRaised(IRQAudio); got != 2 {
		t.Fatalf("line %d raised %d times in an idle minute, want the 2 post-boot edges", IRQAudio, got)
	}
}
