package hw

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/sim"
)

func testRig(t *testing.T) (*sim.Env, *kernel.Kernel) {
	t.Helper()
	env := sim.NewEnv(1)
	return env, kernel.New(env)
}

func nicPair(env *sim.Env, k *kernel.Kernel, cfg NICConfig) (*NIC, *NIC, *Wire) {
	a := NewNIC(env, k, cfg)
	bCfg := cfg
	bCfg.Base = cfg.Base + 0x100
	bCfg.IRQ = cfg.IRQ + 1
	b := NewNIC(env, k, bCfg)
	w := Connect(env, a, b)
	return a, b, w
}

// enable turns the receiver on directly (tests drive registers without a
// kernel process, via the Device interface).
func enable(n *NIC) {
	n.PortOut(n.cfg.Base+NICRegCmd, NICCmdRxEnable)
}

func TestNICFrameTransfer(t *testing.T) {
	env, k := testRig(t)
	a, b, _ := nicPair(env, k, NICConfig{Base: 0x1000, IRQ: 9})
	enable(a)
	enable(b)
	payload := []byte("hello ethernet")
	a.Handle().SetTx(payload)
	a.PortOut(0x1000+NICRegTxGo, 1)
	env.Run(time.Second)
	if got, _ := b.PortIn(b.cfg.Base + NICRegStatus); got&NICStatRxAvail == 0 {
		t.Fatal("no frame pending at receiver")
	}
	ln, _ := b.PortIn(b.cfg.Base + NICRegRxLen)
	if int(ln) != len(payload) {
		t.Fatalf("RxLen = %d, want %d", ln, len(payload))
	}
	b.PortOut(b.cfg.Base+NICRegRxPop, 1)
	got := b.Handle().TakeRx()
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame = %q, want %q", got, payload)
	}
	if a.Stats.TxFrames != 1 || b.Stats.RxDelivered != 1 {
		t.Fatalf("stats: tx=%d rx=%d", a.Stats.TxFrames, b.Stats.RxDelivered)
	}
}

func TestNICDropsWhenDisabled(t *testing.T) {
	env, k := testRig(t)
	a, b, _ := nicPair(env, k, NICConfig{Base: 0x1000, IRQ: 9})
	enable(a) // receiver b NOT enabled
	a.Handle().SetTx([]byte("lost"))
	a.PortOut(0x1000+NICRegTxGo, 1)
	env.Run(time.Second)
	if b.Stats.RxDropped != 1 {
		t.Fatalf("RxDropped = %d, want 1", b.Stats.RxDropped)
	}
}

func TestNICRingOverflow(t *testing.T) {
	env, k := testRig(t)
	a, b, _ := nicPair(env, k, NICConfig{Base: 0x1000, IRQ: 9, RingSize: 2})
	enable(a)
	enable(b)
	for i := 0; i < 5; i++ {
		a.Handle().SetTx([]byte{byte(i)})
		a.PortOut(0x1000+NICRegTxGo, 1)
		env.Run(time.Millisecond) // let each serialize
	}
	env.Run(time.Second)
	if b.Stats.RxDropped != 3 {
		t.Fatalf("RxDropped = %d, want 3 (ring of 2, 5 frames)", b.Stats.RxDropped)
	}
}

func TestNICTxBusySerializes(t *testing.T) {
	env, k := testRig(t)
	a, b, _ := nicPair(env, k, NICConfig{Base: 0x1000, IRQ: 9})
	enable(a)
	enable(b)
	a.Handle().SetTx(make([]byte, 1500))
	a.PortOut(0x1000+NICRegTxGo, 1)
	// Second TxGo while busy: the window is empty anyway, nothing sends.
	a.PortOut(0x1000+NICRegTxGo, 1)
	env.Run(time.Second)
	if a.Stats.TxFrames != 1 {
		t.Fatalf("TxFrames = %d, want 1", a.Stats.TxFrames)
	}
}

func TestNICSerializationDelayMatchesRate(t *testing.T) {
	env, k := testRig(t)
	a, b, _ := nicPair(env, k, NICConfig{Base: 0x1000, IRQ: 9, RateBps: 1_000_000})
	enable(a)
	enable(b)
	a.Handle().SetTx(make([]byte, 1000)) // 1000B at 1MB/s = 1ms + 50µs wire
	a.PortOut(0x1000+NICRegTxGo, 1)
	var arrived sim.Time
	for i := sim.Time(0); i < 10*time.Millisecond; i += 10 * time.Microsecond {
		env.Run(10 * time.Microsecond)
		if b.Stats.RxDelivered == 0 {
			if s, _ := b.PortIn(b.cfg.Base + NICRegStatus); s&NICStatRxAvail != 0 {
				arrived = env.Now()
				break
			}
		}
	}
	want := sim.Time(1050 * time.Microsecond)
	if arrived != want {
		t.Fatalf("frame arrived at %v, want %v", arrived, want)
	}
}

func TestWireCorruptionDroppedByFCS(t *testing.T) {
	env, k := testRig(t)
	a, b, w := nicPair(env, k, NICConfig{Base: 0x1000, IRQ: 9})
	w.CorruptProb = 1.0
	enable(a)
	enable(b)
	a.Handle().SetTx([]byte("garbled on the wire"))
	a.PortOut(0x1000+NICRegTxGo, 1)
	env.Run(time.Second)
	if b.Stats.FCSErrors != 1 {
		t.Fatalf("FCSErrors = %d, want 1", b.Stats.FCSErrors)
	}
	if b.Stats.RxDelivered != 0 {
		t.Fatal("corrupted frame delivered")
	}
}

func TestWireLoss(t *testing.T) {
	env, k := testRig(t)
	a, b, w := nicPair(env, k, NICConfig{Base: 0x1000, IRQ: 9})
	w.LossProb = 1.0
	enable(a)
	enable(b)
	a.Handle().SetTx([]byte("into the void"))
	a.PortOut(0x1000+NICRegTxGo, 1)
	env.Run(time.Second)
	if w.Lost != 1 {
		t.Fatalf("Lost = %d, want 1", w.Lost)
	}
}

func TestNICConfusionOnGarbageCommand(t *testing.T) {
	env, k := testRig(t)
	n := NewNIC(env, k, NICConfig{Base: 0x1000, IRQ: 9, ConfuseProb: 1.0})
	n.PortOut(0x1000+NICRegCmd, 0xDEAD) // garbage command
	confused, deep := n.Confused()
	if !confused || deep {
		t.Fatalf("confused=%v deep=%v, want soft confusion", confused, deep)
	}
	// Enable is ignored while confused.
	enable(n)
	if s, _ := n.PortIn(0x1000 + NICRegStatus); s&NICStatEnabled != 0 {
		t.Fatal("confused card accepted RxEnable")
	}
	// A soft reset clears it.
	n.PortOut(0x1000+NICRegCmd, NICCmdReset)
	env.Run(time.Second)
	if c, _ := n.Confused(); c {
		t.Fatal("reset did not clear soft confusion")
	}
	enable(n)
	if s, _ := n.PortIn(0x1000 + NICRegStatus); s&NICStatEnabled == 0 {
		t.Fatal("card not enabled after reset")
	}
}

func TestNICDeepConfusionNeedsMasterReset(t *testing.T) {
	env, k := testRig(t)
	n := NewNIC(env, k, NICConfig{
		Base: 0x1000, IRQ: 9,
		ConfuseProb: 1.0, DeepConfuseProb: 1.0, MasterReset: true,
	})
	n.PortOut(0x1000+NICRegCmd, 0xDEAD)
	if _, deep := n.Confused(); !deep {
		t.Fatal("expected deep confusion")
	}
	// Soft reset does not clear deep confusion.
	n.PortOut(0x1000+NICRegCmd, NICCmdReset)
	env.Run(time.Second)
	if c, _ := n.Confused(); !c {
		t.Fatal("soft reset cleared deep confusion")
	}
	// Master reset does.
	n.PortOut(0x1000+NICRegCmd, NICCmdMasterReset)
	env.Run(time.Second)
	if c, _ := n.Confused(); c {
		t.Fatal("master reset did not clear deep confusion")
	}
}

func TestNICWithoutMasterResetNeedsBIOS(t *testing.T) {
	// The authors' card: no master reset command, so only a host-level
	// BIOS reset recovers deep confusion (paper §7.2).
	env, k := testRig(t)
	n := NewNIC(env, k, NICConfig{
		Base: 0x1000, IRQ: 9,
		ConfuseProb: 1.0, DeepConfuseProb: 1.0, MasterReset: false,
	})
	n.PortOut(0x1000+NICRegCmd, 0xBAD)
	if _, deep := n.Confused(); !deep {
		t.Fatal("expected deep confusion")
	}
	n.PortOut(0x1000+NICRegCmd, NICCmdReset)
	env.Run(time.Second)
	n.PortOut(0x1000+NICRegCmd, NICCmdMasterReset) // unsupported
	env.Run(time.Second)
	if c, _ := n.Confused(); !c {
		t.Fatal("unsupported master reset cleared confusion")
	}
	n.BIOSReset()
	if c, _ := n.Confused(); c {
		t.Fatal("BIOS reset did not clear confusion")
	}
}

func TestNICResetDropsPendingFrames(t *testing.T) {
	env, k := testRig(t)
	a, b, _ := nicPair(env, k, NICConfig{Base: 0x1000, IRQ: 9})
	enable(a)
	enable(b)
	a.Handle().SetTx([]byte("pending"))
	a.PortOut(0x1000+NICRegTxGo, 1)
	env.Run(time.Second)
	b.PortOut(b.cfg.Base+NICRegCmd, NICCmdReset)
	env.Run(time.Second)
	if ln, _ := b.PortIn(b.cfg.Base + NICRegRxLen); ln != 0 {
		t.Fatal("reset kept pending rx frames")
	}
}

// watchIRQs spawns one kernel process per line that logs each interrupt
// it is woken for, with its instant, and then calls on (nil: nothing). The
// processes subscribe before watchIRQs returns, at virtual time 0.
func watchIRQs(t *testing.T, env *sim.Env, k *kernel.Kernel, on func(line int), lines ...int) *[]string {
	t.Helper()
	var log []string
	for _, line := range lines {
		priv := kernel.Privileges{Calls: []kernel.Call{kernel.CallIRQCtl}, IRQs: []int{line}}
		if _, err := k.Spawn(fmt.Sprintf("irq%d", line), priv, func(c *kernel.Ctx) {
			if err := c.IRQSubscribe(line); err != nil {
				t.Errorf("subscribe %d: %v", line, err)
				return
			}
			for {
				m, err := c.Receive(kernel.Any)
				if err != nil {
					return
				}
				if m.Source == kernel.Hardware {
					log = append(log, fmt.Sprintf("%v irq%d", env.Now(), line))
					if on != nil {
						on(line)
					}
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	env.Run(0)
	return &log
}

// takeAll pops every frame pending at n, oldest first.
func takeAll(n *NIC) [][]byte {
	var got [][]byte
	for {
		if ln, _ := n.PortIn(n.cfg.Base + NICRegRxLen); ln == 0 {
			return got
		}
		n.PortOut(n.cfg.Base+NICRegRxPop, 1)
		got = append(got, n.Handle().TakeRx())
	}
}

// TestTxDuringReset: a reset clears the transmitter's busy bit while a
// frame is still serializing, so a second TxGo starts another frame before
// the first one's tx-done. Both tx-done interrupts fire and both frames
// reach the peer, each at the instant its own serialization and the
// propagation delay give — including the tie at 186.363µs, which goes to
// the event scheduled first.
func TestTxDuringReset(t *testing.T) {
	env, k := testRig(t)
	a, b, w := nicPair(env, k, NICConfig{Base: 0x1000, IRQ: 9})
	log := watchIRQs(t, env, k, nil, 9, 10)
	enable(a)
	enable(b)
	first, second := bytes.Repeat([]byte{1}, 1500), bytes.Repeat([]byte{2}, 1500)
	a.Handle().SetTx(first)
	a.PortOut(0x1000+NICRegTxGo, 1) // done at 136.363µs
	env.Run(50 * time.Microsecond)
	a.PortOut(0x1000+NICRegCmd, NICCmdReset)
	if s, _ := a.PortIn(0x1000 + NICRegStatus); s&NICStatTxBusy != 0 {
		t.Fatal("reset left the transmitter busy")
	}
	a.Handle().SetTx(second)
	a.PortOut(0x1000+NICRegTxGo, 1) // done at 186.363µs
	env.Run(time.Second)
	want := []string{
		"136.363µs irq9",  // first tx-done
		"186.363µs irq9",  // second tx-done, scheduled at 50µs
		"186.363µs irq10", // first frame arrives, scheduled at 136.363µs
		"236.363µs irq10", // second frame arrives
	}
	if !slices.Equal(*log, want) {
		t.Errorf("interrupts:\n%q\nwant\n%q", *log, want)
	}
	if a.Stats.TxFrames != 2 || w.Carried != 2 {
		t.Errorf("TxFrames %d, carried %d: want 2 and 2", a.Stats.TxFrames, w.Carried)
	}
	if got := takeAll(b); len(got) != 2 || !bytes.Equal(got[0], first) || !bytes.Equal(got[1], second) {
		t.Errorf("peer received %d frames, want the first then the second", len(got))
	}
}

// TestWireFramesInFlight: with a propagation delay longer than the
// serialization of everything sent, a full-size frame and the 20-byte
// ACKs queued behind it are all on the wire at once. Each arrives one
// delay after its own tx-done, in the order sent.
func TestWireFramesInFlight(t *testing.T) {
	env, k := testRig(t)
	a, b, w := nicPair(env, k, NICConfig{Base: 0x1000, IRQ: 9})
	w.Delay = time.Millisecond
	frames := [][]byte{bytes.Repeat([]byte{0xEE}, 1500)}
	for i := 0; i < 5; i++ {
		frames = append(frames, bytes.Repeat([]byte{byte(i)}, 20))
	}
	queue := frames
	send := func() { // the driver's pump: next frame on every tx-done
		if len(queue) > 0 {
			a.Handle().SetTx(queue[0])
			queue = queue[1:]
			a.PortOut(0x1000+NICRegTxGo, 1)
		}
	}
	log := watchIRQs(t, env, k, func(line int) {
		if line == 9 {
			send()
		}
	}, 9, 10)
	enable(a)
	enable(b)
	send()
	env.Run(time.Second)
	want := []string{
		"136.363µs irq9", "138.181µs irq9", "139.999µs irq9", "141.817µs irq9", "143.635µs irq9", "145.453µs irq9",
		"1.136363ms irq10", "1.138181ms irq10", "1.139999ms irq10", "1.141817ms irq10", "1.143635ms irq10", "1.145453ms irq10",
	}
	if !slices.Equal(*log, want) {
		t.Errorf("interrupts:\n%q\nwant\n%q", *log, want)
	}
	got := takeAll(b)
	if len(got) != len(frames) {
		t.Fatalf("peer received %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("frame %d out of order: % x…", i, got[i][:4])
		}
	}
}
