package hw

import (
	"testing"
	"time"
)

func TestAudioPlaybackConsumes(t *testing.T) {
	env, k := testRig(t)
	a := NewAudio(env, k)
	h := a.Handle()
	h.Feed(50_000)
	a.PortOut(PortAudio+CharRegCmd, CharCmdStart)
	env.Run(200 * time.Millisecond)
	if want := int64(20 * audioTickBytes); a.Consumed != want {
		t.Fatalf("consumed %d in 20 ticks, want %d", a.Consumed, want)
	}
}

// TestAudioUnderrunOnStarvation: a hiccup is a starved stretch between
// two stretches of playback, counted once when playback resumes. Neither
// the wait for the first chunk nor the silence after the last is one, so
// an unbroken run reads 0; a Reset while playing flushes the buffer and
// counts once with the starvation it joins.
func TestAudioUnderrunOnStarvation(t *testing.T) {
	env, k := testRig(t)
	a := NewAudio(env, k)
	h := a.Handle()
	a.PortOut(PortAudio+CharRegCmd, CharCmdStart)
	env.Run(time.Second) // idle before the first chunk
	h.Feed(AudioPlayRate / 10)
	env.Run(time.Second) // plays, then runs dry
	if a.Underruns != 0 || a.Consumed != AudioPlayRate/10 {
		t.Fatalf("Underruns = %d after %d bytes, want 0 for an unbroken run", a.Underruns, a.Consumed)
	}
	// Refill: the silence between the two chunks was one hiccup.
	h.Feed(AudioPlayRate / 10)
	env.Run(time.Second)
	if a.Underruns != 1 {
		t.Fatalf("Underruns = %d, want 1", a.Underruns)
	}
	h.Feed(AudioBufSize)
	env.Run(50 * time.Millisecond)
	if a.Underruns != 2 {
		t.Fatalf("Underruns = %d, want 2", a.Underruns)
	}
	// Reset mid-play, restart, feed: one more, however long the gap.
	a.PortOut(PortAudio+CharRegCmd, CharCmdReset)
	env.Run(time.Second)
	a.PortOut(PortAudio+CharRegCmd, CharCmdStart)
	env.Run(time.Second)
	h.Feed(AudioPlayRate / 10)
	env.Run(time.Second)
	if a.Underruns != 3 {
		t.Fatalf("Underruns = %d, want 3", a.Underruns)
	}
}

func TestAudioFeedRespectsCapacity(t *testing.T) {
	env, k := testRig(t)
	a := NewAudio(env, k)
	h := a.Handle()
	if n := h.Feed(AudioBufSize - 200); n != AudioBufSize-200 {
		t.Fatalf("Feed = %d, want %d", n, AudioBufSize-200)
	}
	if n := h.Feed(800); n != 200 {
		t.Fatalf("Feed = %d, want 200 (capacity)", n)
	}
	if h.Buffered() != AudioBufSize {
		t.Fatalf("Buffered = %d", h.Buffered())
	}
	_ = env
}

func TestAudioStopAndReset(t *testing.T) {
	env, k := testRig(t)
	a := NewAudio(env, k)
	a.Handle().Feed(50_000)
	a.PortOut(PortAudio+CharRegCmd, CharCmdStart)
	env.Run(100 * time.Millisecond)
	a.PortOut(PortAudio+CharRegCmd, CharCmdStop)
	consumed := a.Consumed
	env.Run(time.Second)
	if a.Consumed != consumed {
		t.Fatal("device consumed while stopped")
	}
	a.PortOut(PortAudio+CharRegCmd, CharCmdReset)
	if a.Handle().Buffered() != 0 {
		t.Fatal("reset kept buffer")
	}
}

// A negative read length reads nothing and leaves the ring alone; it
// used to make a negative slice and panic the driver that asked.
func TestAudioNegativeReadCapture(t *testing.T) {
	env, k := testRig(t)
	a := NewAudio(env, k)
	env.Run(15 * time.Millisecond)
	ring := a.held
	for _, n := range []int{-1, -1 << 40} {
		if got := a.Handle().ReadCapture(n); len(got) != 0 || a.held != ring {
			t.Fatalf("ReadCapture(%d) = %d bytes, ring %d → %d samples", n, len(got), ring, a.held)
		}
	}
	if ring == 0 {
		t.Fatal("nothing captured")
	}
}

func TestPrinterPrintsLines(t *testing.T) {
	env, k := testRig(t)
	p := NewPrinter(env, k)
	h := p.Handle()
	if !h.Submit("page 1") {
		t.Fatal("submit rejected on idle printer")
	}
	if h.Submit("page 2") {
		t.Fatal("submit accepted while busy")
	}
	env.Run(time.Second)
	if !h.Submit("page 2") {
		t.Fatal("submit rejected after completion")
	}
	env.Run(time.Second)
	if len(p.Output) != 2 || p.Output[0] != "page 1" || p.Output[1] != "page 2" {
		t.Fatalf("output = %v", p.Output)
	}
}

func TestPrinterResetLosesInFlightLine(t *testing.T) {
	env, k := testRig(t)
	p := NewPrinter(env, k)
	p.Handle().Submit("doomed")
	p.PortOut(PortPrinter+CharRegCmd, CharCmdReset)
	env.Run(time.Second)
	if len(p.Output) != 0 {
		t.Fatalf("output = %v, want empty (line was lost by reset)", p.Output)
	}
}

func TestBurnerCompletesWhenFed(t *testing.T) {
	env, k := testRig(t)
	b := NewBurner(env, k)
	h := b.Handle()
	h.Begin(1000)
	for i := 0; i < 10; i++ {
		env.Run(BurnerMaxStall - time.Millisecond) // inside the gap limit
		h.Write(100)
	}
	if !h.Finish() {
		t.Fatal("well-fed burn failed")
	}
}

func TestBurnerRuinedByGap(t *testing.T) {
	env, k := testRig(t)
	b := NewBurner(env, k)
	h := b.Handle()
	h.Begin(1000)
	h.Write(100)
	env.Run(BurnerMaxStall + time.Millisecond) // driver dead: gap exceeds the limit
	for i := 0; i < 9; i++ {
		h.Write(100)
		env.Run(10 * time.Millisecond)
	}
	if h.Finish() {
		t.Fatal("burn with a stall past the gap limit produced a good disc")
	}
	if !b.Ruined() {
		t.Fatal("Ruined not reported")
	}
}

func TestBurnerIncompleteIsBad(t *testing.T) {
	env, k := testRig(t)
	b := NewBurner(env, k)
	h := b.Handle()
	h.Begin(1000)
	h.Write(100)
	if h.Finish() {
		t.Fatal("10% burn reported good")
	}
	_ = env
}

func TestMachineAssembly(t *testing.T) {
	env, k := testRig(t)
	m := NewMachine(env, k, MachineConfig{DiskSeed: 3})
	if m.NIC0 == nil || m.NIC1 == nil || m.Remote == nil || m.Disk == nil {
		t.Fatal("machine incomplete")
	}
	// NIC0 and the remote peer are wired together.
	enable(m.NIC0)
	enable(m.Remote)
	m.Remote.Handle().SetTx([]byte("from afar"))
	m.Remote.PortOut(0xF000+NICRegTxGo, 1)
	env.Run(time.Second)
	if s, _ := m.NIC0.PortIn(PortNIC0 + NICRegStatus); s&NICStatRxAvail == 0 {
		t.Fatal("remote frame did not reach NIC0")
	}
	if m.Disk.Sectors() != 8<<20 {
		t.Fatalf("default disk sectors = %d", m.Disk.Sectors())
	}
}

// Each character device's status register reflects its state: ready when
// idle, running while it plays, prints or burns, and — for audio — low
// buffer once playback drains below the watermark and input available
// once a tick has captured. Other registers read 0.
func TestCharStatusRegisters(t *testing.T) {
	env, k := testRig(t)
	status := func(d interface {
		PortIn(uint32) (uint32, error)
	}, base uint32) uint32 {
		t.Helper()
		s, err := d.PortIn(base + CharRegStatus)
		if err != nil {
			t.Fatal(err)
		}
		if other, _ := d.PortIn(base + CharRegCmd); other != 0 {
			t.Fatalf("command register reads %#x, want 0", other)
		}
		return s
	}

	a := NewAudio(env, k)
	if s := status(a, PortAudio); s != CharStatReady|CharStatLowBuf {
		t.Errorf("idle empty audio status = %#x", s)
	}
	a.Handle().Feed(AudioWatermark + audioTickBytes)
	a.PortOut(PortAudio+CharRegCmd, CharCmdStart)
	if s := status(a, PortAudio); s != CharStatReady|CharStatRunning {
		t.Errorf("playing audio status = %#x", s)
	}
	env.Run(AudioTick) // one tick leaves exactly the watermark, and captures
	if s := status(a, PortAudio); s != CharStatReady|CharStatRunning|CharStatInAvail {
		t.Errorf("audio at the watermark status = %#x", s)
	}
	env.Run(AudioTick) // the next takes it below
	if s := status(a, PortAudio); s != CharStatReady|CharStatRunning|CharStatLowBuf|CharStatInAvail {
		t.Errorf("audio below the watermark status = %#x", s)
	}

	p := NewPrinter(env, k)
	if s := status(p, PortPrinter); s != CharStatReady {
		t.Errorf("idle printer status = %#x", s)
	}
	p.Handle().Submit("line")
	if s := status(p, PortPrinter); s != CharStatRunning {
		t.Errorf("printing printer status = %#x", s)
	}

	b := NewBurner(env, k)
	if s := status(b, PortBurner); s != CharStatReady {
		t.Errorf("idle burner status = %#x", s)
	}
	b.Handle().Begin(1 << 20)
	if s := status(b, PortBurner); s != CharStatReady|CharStatRunning {
		t.Errorf("burning burner status = %#x", s)
	}
}
