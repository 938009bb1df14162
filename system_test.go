package resilientos

import (
	"errors"
	"io"
	"maps"
	"runtime"
	"testing"
	"time"

	"resilientos/internal/core"
	"resilientos/internal/ds"
	"resilientos/internal/hw"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/sim"
)

func TestBootAllServicesUp(t *testing.T) {
	sys := New(Config{})
	sys.Run(10 * time.Second)
	for _, label := range []string{
		DriverRTL8139, DriverDP8390, DriverSATA, DriverRAMDisk,
		DriverAudio, DriverPrinter, DriverBurner,
		ServerInet, ServerRemoteInet, ServerMFS, ServerVFS,
	} {
		if sys.RS.ServiceEndpoint(label) < 0 {
			t.Errorf("service %s not running after boot", label)
		}
	}
	if events := sys.RS.Events(); len(events) != 0 {
		t.Fatalf("boot produced recovery events: %+v", events)
	}
}

func TestTCPTransferClean(t *testing.T) {
	sys := New(Config{DisableDisk: true, DisableChar: true})
	const size = 4 << 20
	sys.ServeFile(80, 7, size)
	var res WgetResult
	sys.Wget(DriverRTL8139, 80, 7, size, &res)
	sys.Run(2 * time.Minute)
	if res.Err != nil {
		t.Fatalf("wget: %v", res.Err)
	}
	if !res.OK {
		t.Fatalf("transfer corrupt or short: %d bytes", res.Bytes)
	}
	if res.Duration <= 0 {
		t.Fatal("no duration recorded")
	}
	// Sanity: throughput should be in the NIC's ballpark (10-12 MB/s).
	mbps := float64(size) / res.Duration.Seconds() / 1e6
	if mbps < 5 || mbps > 13 {
		t.Fatalf("clean throughput = %.1f MB/s, expected ~11", mbps)
	}
}

func TestTCPTransferWithDriverKills(t *testing.T) {
	sys := New(Config{DisableDisk: true, DisableChar: true})
	const size = 16 << 20 // ~1.5s of transfer at NIC rate
	sys.ServeFile(80, 9, size)
	var res WgetResult
	sys.Wget(DriverRTL8139, 80, 9, size, &res)
	// Kill the Ethernet driver every 300ms of virtual time — harsher than
	// the paper's 1s minimum interval.
	sys.Every(300*time.Millisecond, func() {
		if res.Duration == 0 && res.Err == nil { // transfer still running
			sys.KillDriver(DriverRTL8139)
		}
	})
	sys.Run(5 * time.Minute)
	if res.Err != nil {
		t.Fatalf("wget: %v", res.Err)
	}
	if !res.OK {
		t.Fatalf("transfer corrupt or short: %d bytes", res.Bytes)
	}
	events := sys.RS.Events()
	if len(events) == 0 {
		t.Fatal("no recovery events despite kills")
	}
	for _, e := range events {
		if e.Label != DriverRTL8139 {
			t.Fatalf("unexpected recovery of %s", e.Label)
		}
		if e.Defect != core.DefectKilled {
			t.Fatalf("defect = %v, want killed", e.Defect)
		}
		if !e.Recovered {
			t.Fatal("a recovery did not complete")
		}
	}
	if sys.LocalInet.Stats().ChannelRestarts == 0 {
		t.Fatal("INET never reintegrated a restarted driver")
	}
}

func TestDiskReadClean(t *testing.T) {
	sys := New(Config{
		DisableNet: true, DisableChar: true,
		PreallocFiles: []PreallocFile{{Name: "bigdata", Size: 16 << 20}},
	})
	var res DdResult
	sys.Dd("/bigdata", 64<<10, &res)
	sys.Run(time.Minute)
	if res.Err != nil {
		t.Fatalf("dd: %v", res.Err)
	}
	if res.Bytes != 16<<20 {
		t.Fatalf("read %d bytes, want %d", res.Bytes, 16<<20)
	}
	mbps := float64(res.Bytes) / res.Duration.Seconds() / 1e6
	if mbps < 20 || mbps > 35 {
		t.Fatalf("clean disk throughput = %.1f MB/s, expected ~32", mbps)
	}
}

func TestDiskReadWithDriverKills(t *testing.T) {
	mk := func() (*System, *DdResult) {
		sys := New(Config{
			DisableNet: true, DisableChar: true,
			PreallocFiles: []PreallocFile{{Name: "bigdata", Size: 32 << 20}},
		})
		res := &DdResult{}
		sys.Dd("/bigdata", 64<<10, res)
		return sys, res
	}
	// Reference run without failures.
	refSys, ref := mk()
	refSys.Run(5 * time.Minute)
	if ref.Err != nil {
		t.Fatalf("reference dd: %v", ref.Err)
	}
	// Run with the driver killed every second.
	sys, res := mk()
	sys.Every(time.Second, func() { // the paper's harshest interval
		if res.Duration == 0 { // dd still running
			sys.KillDriver(DriverSATA)
		}
	})
	sys.Run(10 * time.Minute)
	if res.Err != nil {
		t.Fatalf("dd with kills: %v", res.Err)
	}
	if res.Bytes != ref.Bytes {
		t.Fatalf("read %d bytes, want %d", res.Bytes, ref.Bytes)
	}
	if res.SHA1 != ref.SHA1 {
		t.Fatal("SHA-1 mismatch: data corrupted across driver recoveries")
	}
	if len(sys.RS.Events()) == 0 {
		t.Fatal("no recovery events despite kills")
	}
	if sys.MFS.Stats().Reissues == 0 {
		t.Fatal("MFS never reissued a pending request")
	}
	if res.Duration <= ref.Duration {
		t.Fatalf("interrupted run (%v) not slower than clean run (%v)", res.Duration, ref.Duration)
	}
}

func TestFileWriteReadRoundtrip(t *testing.T) {
	sys := New(Config{DisableNet: true, DisableChar: true})
	okc := make(chan bool, 1)
	sys.Spawn("editor", func(p *Proc) {
		defer func() { okc <- true }()
		f, err := p.Create("/notes.txt")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		text := []byte("driver recovery is policy-driven\n")
		for i := 0; i < 100; i++ {
			if _, err := f.Write(text); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		f.Close()
		g, err := p.Open("/notes.txt")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		var total int
		for data := make([]byte, 4096); ; {
			n, err := g.Read(data)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			total += n
		}
		if total != 100*len(text) {
			t.Errorf("read back %d bytes, want %d", total, 100*len(text))
		}
	})
	sys.Run(time.Minute)
	select {
	case <-okc:
	default:
		t.Fatal("editor did not finish")
	}
}

func TestCharDriverFailureIsPushedToApp(t *testing.T) {
	sys := New(Config{DisableNet: true, DisableDisk: true})
	gotErr := make(chan error, 1)
	sys.Spawn("app", func(p *Proc) {
		p.Sleep(time.Second) // let drivers come up
		f, err := p.Open("/dev/" + DriverPrinter)
		if err != nil {
			gotErr <- err
			return
		}
		// Kill the driver while a line is printing (printing takes 50ms
		// of device time): the in-progress request cannot be recovered
		// transparently and the failure must surface (§6.3).
		sys.After(10*time.Millisecond, func() { sys.KillDriver(DriverPrinter) })
		_, err = f.Write([]byte("page"))
		gotErr <- err
	})
	sys.Run(time.Minute)
	select {
	case err := <-gotErr:
		if err == nil {
			t.Fatal("char driver failure was hidden from the application")
		}
	default:
		t.Fatal("app did not finish")
	}
}

// TestCharDriverKilledMidStream is §6.3 for each character device: the
// driver dies while its application streams to it, the descriptor the
// application holds fails with ErrIO, and the application's own recovery
// decides the outcome. lpd reprints the job it lost (a duplicate is the
// accepted cost), the mp3 player reopens the device and plays on through
// a hiccup, and the burn is reported to the user as failed, the disc
// ruined. Every value is fixed by the seed.
func TestCharDriverKilledMidStream(t *testing.T) {
	for _, tc := range []struct {
		name   string
		victim string
		// run starts the workload and its kills, runs the system and
		// checks the outcome.
		run func(t *testing.T, sys *System)
	}{
		{"lpd", DriverPrinter, func(t *testing.T, sys *System) {
			lines := []string{"p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"}
			var res LpdResult
			sys.Lpd(lines, &res)
			sys.Every(300*time.Millisecond, func() {
				if res.Submitted < len(lines) {
					sys.KillDriver(DriverPrinter)
				}
			})
			sys.Run(2 * time.Minute)
			if res.Submitted != len(lines) || res.Errors != 3 {
				t.Errorf("submitted %d/%d with %d errors, want all with 3", res.Submitted, len(lines), res.Errors)
			}
			// Every line made it to paper at least once: duplicates are
			// possible, loss is not.
			printed := map[string]int{}
			for _, l := range sys.Machine.Printer.Output {
				printed[l]++
			}
			for _, l := range lines {
				if printed[l] == 0 {
					t.Errorf("line %q lost", l)
				}
			}
			if dups := len(sys.Machine.Printer.Output) - len(lines); dups != 2 {
				t.Errorf("%d duplicate printouts, want 2: %v", dups, sys.Machine.Printer.Output)
			}
		}},
		{"mp3", DriverAudio, func(t *testing.T, sys *System) {
			var res Mp3Result
			sys.Mp3(5, &res)
			sys.After(2*time.Second, func() { sys.KillDriver(DriverAudio) })
			sys.Run(6 * time.Second)
			if res.FedBytes != 5*176_400 || res.Errors != 1 || res.Err != nil {
				t.Errorf("played %d bytes with %d errors (%v), want 5 s of audio with 1", res.FedBytes, res.Errors, res.Err)
			}
			// The kill's gap, the restarted driver's Reset included, is
			// the one hiccup (TestMp3UnbrokenHasNoHiccup: none without it).
			if got := sys.Machine.Audio.Underruns; got != 1 {
				t.Errorf("%d underruns, want 1", got)
			}
		}},
		{"burn", DriverBurner, func(t *testing.T, sys *System) {
			var res BurnResult
			sys.Burn(512<<10, &res)
			sys.After(300*time.Millisecond, func() { sys.KillDriver(DriverBurner) })
			sys.Run(time.Minute)
			if want := "burn failed at 245760/524288 bytes: fslib: I/O error"; res.Err == nil || res.Err.Error() != want || !errors.Is(res.Err, ErrIO) {
				t.Errorf("burn error = %v, want %q", res.Err, want)
			}
			if res.Finished || res.DiscOK || !sys.Machine.Burner.Ruined() {
				t.Errorf("finished=%v disc ok=%v ruined=%v, want an unfinished burn and a ruined disc",
					res.Finished, res.DiscOK, sys.Machine.Burner.Ruined())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := New(Config{DisableNet: true, DisableDisk: true})
			defer sys.Close()
			tc.run(t, sys)
			events := sys.RS.Events()
			if len(events) == 0 {
				t.Fatal("no kill landed")
			}
			for _, e := range events {
				if e.Label != tc.victim || !e.Recovered {
					t.Errorf("recovery event %+v, want %s recovered", e, tc.victim)
				}
			}
		})
	}
}

// TestMp3UnbrokenHasNoHiccup: 5 s of audio with no driver failure play
// without a hiccup. The wait for the first chunk and the silence after
// the last are not starved stretches between two of playback.
func TestMp3UnbrokenHasNoHiccup(t *testing.T) {
	sys := New(Config{DisableNet: true, DisableDisk: true})
	defer sys.Close()
	var res Mp3Result
	sys.Mp3(5, &res)
	sys.Run(6 * time.Second)
	if res.FedBytes != 5*176_400 || res.Errors != 0 || res.Err != nil {
		t.Errorf("played %d bytes with %d errors (%v), want 5 s of audio with none", res.FedBytes, res.Errors, res.Err)
	}
	if got := sys.Machine.Audio.Underruns; got != 0 {
		t.Errorf("%d underruns, want 0", got)
	}
}

func TestDynamicUpdateDuringIO(t *testing.T) {
	sys := New(Config{
		DisableNet: true, DisableChar: true,
		PreallocFiles: []PreallocFile{{Name: "bigdata", Size: 8 << 20}},
	})
	var res DdResult
	sys.Dd("/bigdata", 64<<10, &res)
	// Dynamically update the disk driver mid-transfer (§6: "even if I/O
	// is in progress").
	sys.After(200*time.Millisecond, func() {
		sys.UpdateDriver(core.ServiceConfig{
			Label:   DriverSATA,
			Version: "v2",
		})
	})
	sys.Run(5 * time.Minute)
	if res.Err != nil {
		t.Fatalf("dd: %v", res.Err)
	}
	if res.Bytes != 8<<20 {
		t.Fatalf("read %d bytes", res.Bytes)
	}
	events := sys.RS.Events()
	found := false
	for _, e := range events {
		if e.Label == DriverSATA && e.Defect == core.DefectUpdate {
			found = true
		}
	}
	if !found {
		t.Fatalf("no update event: %+v", events)
	}
}

func TestHardwareGateBIOSReset(t *testing.T) {
	// The §7.2 hardware gate: a deeply confused card (no master-reset
	// command) cannot be reinitialized by the restarted driver — every
	// fresh instance's init checks fail — until the host performs a
	// BIOS reset, after which recovery proceeds normally.
	sys := New(Config{
		DisableDisk: true, DisableChar: true,
		Machine: hw.MachineConfig{ConfusableNICs: true},
	})
	sys.Run(3 * time.Second)
	nic := sys.Machine.NIC1
	// Wedge the card the way a faulty driver would, at hw=on's own
	// probabilities: garbage commands until one wedges it deeply (the
	// sixth, on seed 1).
	garbage := 0
	for _, deep := nic.Confused(); !deep; _, deep = nic.Confused() {
		if garbage++; garbage > 100 {
			t.Fatal("100 garbage commands never wedged the card deeply")
		}
		nic.PortOut(hw.PortNIC1+hw.NICRegCmd, 0xDEAD)
	}
	if garbage != 6 {
		t.Errorf("the card went deep after %d garbage commands, want 6 on seed 1", garbage)
	}
	// Crash the driver; its replacements must keep failing init.
	sys.KillDriver(DriverDP8390)
	sys.Run(10 * time.Second)
	events := sys.RS.Events()
	if len(events) < 3 {
		t.Fatalf("expected a crash loop, got %d events", len(events))
	}
	for _, e := range events[1:] {
		if e.Label != DriverDP8390 || e.Defect != core.DefectExit {
			t.Fatalf("crash loop event = %+v, want dp8390 init panic", e)
		}
	}
	if c, _ := nic.Confused(); !c {
		t.Fatal("soft reset cleared deep confusion (should be impossible)")
	}
	// The host intervenes: BIOS reset. The next restart succeeds and the
	// driver stays up.
	nic.BIOSReset()
	before := len(sys.RS.Events())
	sys.Run(30 * time.Second)
	if sys.RS.ServiceEndpoint(DriverDP8390) == kernel.None {
		t.Fatal("driver did not come back after the BIOS reset")
	}
	after := sys.RS.Events()
	// At most a couple more events (the in-flight restart), then stable.
	tail := after[before:]
	for i, e := range tail {
		if i > 1 {
			t.Fatalf("driver still crash-looping after BIOS reset: %+v", e)
		}
	}
}

func TestAudioInputLostAcrossDriverDeath(t *testing.T) {
	// §6.3: "If an input stream is interrupted due to a device driver
	// crash, input might be lost because it can only be read from the
	// controller once." The capture samples are sequence-numbered, so a
	// gap in the recorded stream is directly observable.
	sys := New(Config{DisableNet: true, DisableDisk: true})
	var recorded []byte
	sys.Spawn("recorder", func(p *Proc) {
		for {
			f, err := p.Open("/dev/" + DriverAudio)
			if err != nil {
				p.Sleep(100 * time.Millisecond)
				continue
			}
			for data := make([]byte, 4096); ; {
				n, err := f.Read(data)
				if err != nil && err != io.EOF { // EOF: nothing captured yet
					break // driver died; reopen and continue recording
				}
				recorded = append(recorded, data[:n]...)
				p.Sleep(50 * time.Millisecond)
			}
		}
	})
	// Kill the audio driver a few times; while it is down (and during
	// its restart) the small capture ring overflows.
	for _, at := range []time.Duration{2 * time.Second, 4 * time.Second} {
		sys.After(at, func() { sys.KillDriver(DriverAudio) })
	}
	sys.Run(8 * time.Second)

	if len(recorded) < 4096 {
		t.Fatalf("recorded only %d bytes", len(recorded))
	}
	// Sequence numbers must be strictly increasing; a gap proves loss.
	var prev uint32
	gaps := 0
	for off := 0; off+4 <= len(recorded); off += 4 {
		seq := uint32(recorded[off]) | uint32(recorded[off+1])<<8 |
			uint32(recorded[off+2])<<16 | uint32(recorded[off+3])<<24
		if off > 0 {
			if seq <= prev {
				t.Fatalf("duplicate/reordered sample at %d: %d after %d", off, seq, prev)
			}
			if seq != prev+1 {
				gaps++
			}
		}
		prev = seq
	}
	if gaps == 0 {
		t.Fatal("no input was lost despite driver deaths (read-once violated?)")
	}
	if sys.Machine.Audio.CaptureLost() == 0 {
		t.Fatal("device reports no lost capture bytes")
	}
}

func TestNetworkServerRecovery(t *testing.T) {
	// §5.2: a network server failure closes all open connections; the
	// reincarnation server restarts INET, the fresh instance reconfigures
	// its drivers, and recovery-aware applications reconnect — the
	// "restart the DHCP client and X" story at transport level.
	sys := New(Config{DisableDisk: true, DisableChar: true})
	sys.Run(3 * time.Second)
	const size = 16 << 20
	sys.ServeFile(80, 5, size)
	attempts := 0
	done := false
	sys.Spawn("aware-wget", func(p *Proc) {
		for !done {
			attempts++
			conn, err := p.Dial(NetLocal, DriverRTL8139, 80)
			if err != nil {
				p.Sleep(300 * time.Millisecond)
				continue
			}
			var got int64
			for data := make([]byte, 64<<10); got < size; {
				n, err := conn.Read(data)
				if err != nil {
					break // INET died mid-transfer: reconnect from scratch
				}
				got += int64(n)
			}
			if got >= size {
				done = true
				return
			}
			p.Sleep(300 * time.Millisecond)
		}
	})
	// Kill the local network server mid-transfer.
	sys.After(600*time.Millisecond, func() { sys.KillDriver(ServerInet) })
	sys.Run(5 * time.Minute)

	if !done {
		t.Fatal("recovery-aware client never completed its download")
	}
	if attempts < 2 {
		t.Fatalf("attempts = %d; the kill should have forced a reconnect", attempts)
	}
	var inetRecovered bool
	for _, e := range sys.RS.Events() {
		if e.Label == ServerInet && e.Recovered {
			inetRecovered = true
		}
	}
	if !inetRecovered {
		t.Fatal("reincarnation server did not recover INET")
	}
}

func TestFileServerRecovery(t *testing.T) {
	// Killing the file server mid-transfer: the in-flight call fails (the
	// paper left transparent *server* recovery as future work), but
	// because this MFS is stateless toward its clients — handles are
	// inode numbers, offsets live in VFS — a single application-level
	// retry resumes exactly where it left off.
	sys := New(Config{
		DisableNet: true, DisableChar: true,
		PreallocFiles: []PreallocFile{{Name: "bigdata", Size: 16 << 20}},
	})
	sys.Run(3 * time.Second)
	var ioErrors int
	var got int64
	done := false
	sys.Spawn("dd-retry", func(p *Proc) {
		f, err := p.Open("/bigdata")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for data := make([]byte, 64<<10); ; {
			n, err := f.Read(data)
			if err == io.EOF {
				break
			}
			if err != nil {
				ioErrors++
				if ioErrors > 10 {
					t.Errorf("too many errors: %v", err)
					return
				}
				p.Sleep(200 * time.Millisecond) // server coming back
				continue
			}
			got += int64(n)
		}
		done = true
	})
	sys.After(300*time.Millisecond, func() { sys.KillDriver(ServerMFS) })
	sys.Run(5 * time.Minute)
	if !done {
		t.Fatal("retrying dd never completed")
	}
	if got != 16<<20 {
		t.Fatalf("read %d bytes", got)
	}
	if ioErrors == 0 {
		t.Fatal("the kill was never observed (timing?)")
	}
	recovered := false
	for _, e := range sys.RS.Events() {
		if e.Label == ServerMFS && e.Recovered {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("MFS not recovered by RS")
	}
}

func TestVFSRestartInvalidatesDescriptors(t *testing.T) {
	// A VFS restart loses the descriptor table: applications must reopen
	// (open files are VFS state; the paper's data-store backup mechanism
	// could preserve them, but like the paper's prototype we don't).
	sys := New(Config{DisableNet: true, DisableChar: true})
	sys.Run(3 * time.Second)
	reopened := false
	sys.Spawn("editor", func(p *Proc) {
		f, err := p.Create("/doc")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write([]byte("before"))
		sys.KillDriver(ServerVFS)
		p.Sleep(100 * time.Millisecond)
		// The old descriptor is dead.
		if _, err := f.Write([]byte("x")); err == nil {
			t.Error("stale descriptor survived the VFS restart")
			return
		}
		// Reopening works; the file's data survived (it lives in MFS).
		g, err := p.Open("/doc")
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		data := make([]byte, 64)
		n, err := g.Read(data)
		if err != nil || string(data[:n]) != "before" {
			t.Errorf("reread: %q %v", data[:n], err)
			return
		}
		reopened = true
	})
	sys.Run(time.Minute)
	if !reopened {
		t.Fatal("editor did not finish")
	}
}

// TestCloseUnwindsWholeSystem stops a full system in the middle of a
// transfer and a driver recovery — servers blocked in every kind of call —
// and closes it: no process and no goroutine is left, and the teardown
// stays out of the trace.
func TestCloseUnwindsWholeSystem(t *testing.T) {
	before := runtime.NumGoroutine()
	events := &obs.SliceSink{}
	sys := New(Config{Obs: obs.NewRecorder(events),
		PreallocFiles: []PreallocFile{{Name: "bigdata", Size: 8 << 20}}})
	sys.ServeFile(80, 7, 64<<20)
	var wget WgetResult
	sys.Wget(DriverRTL8139, 80, 7, 64<<20, &wget)
	var dd DdResult
	sys.Dd("/bigdata", 64<<10, &dd)
	sys.Run(4 * time.Second)
	sys.KillDriver(DriverRTL8139)
	sys.Run(50 * time.Millisecond) // RS has seen the death, the restart is under way
	if wget.Duration != 0 || sys.Kernel.ProcCount() < 10 {
		t.Fatalf("not mid-run: wget done = %v, %d processes", wget.Duration != 0, sys.Kernel.ProcCount())
	}
	traced := len(events.Events())

	sys.Close()
	if n := sys.Kernel.ProcCount(); n != 0 {
		t.Errorf("%d kernel processes alive after Close", n)
	}
	if n := len(events.Events()); n != traced {
		t.Errorf("teardown emitted %d trace events", n-traced)
	}
	if after := sim.SettledGoroutines(before); after > before {
		t.Errorf("%d goroutines before the system booted, %d after Close", before, after)
	}
}

// TestGaveUpServiceIsNotRecovering: a driver RS has given up on is down,
// not mid-recovery, so neither its snapshot nor the node's health counts
// it as recovering (which made campaign cells wait out their whole
// quiesce bound for an episode that had already ended).
func TestGaveUpServiceIsNotRecovering(t *testing.T) {
	sys := New(Config{DisableDisk: true, DisableChar: true, MaxRestarts: 1})
	defer sys.Close()
	sys.Run(time.Second)
	for i := 0; i < 2; i++ { // the second death exceeds the budget
		sys.KillDriver(DriverRTL8139)
		sys.Run(time.Second)
	}
	var info core.ServiceInfo
	for _, s := range sys.RS.Services() {
		if s.Label == DriverRTL8139 {
			info = s
		}
	}
	if info.Phase != core.PhaseGaveUp {
		t.Fatalf("%s after exhausting MaxRestarts: %+v, want given up", DriverRTL8139, info)
	}
	if h := sys.Health(); h.GaveUp != 1 || h.Recovering != 0 || h.NetOK {
		t.Fatalf("health %+v, want one given-up service, none recovering, net down", h)
	}
}

// TestIdleSystemExactCounts pins what a booted default System at rest
// costs. The codec interrupts on a rising edge of a status bit, not on
// every tick while the bit stays set (hw.Audio), so over an idle minute
// line 5 is raised twice — the buffer found low at Start, the first
// capture — and the audio driver wakes for RS's pings and at most those
// two edges. Settled, a virtual second is exactly 26 events: RS's
// heartbeats and its alarm. The codec still ticks 100 times a second on
// each side, but with its ring full and its playback starved no tick can
// raise an edge, so none is an event.
func TestIdleSystemExactCounts(t *testing.T) {
	sys := New(Config{Seed: 1})
	defer sys.Close()
	sys.Run(time.Millisecond) // the audio driver is up
	audio := sys.Kernel.LookupLabel(DriverAudio)
	woken := sys.Kernel.Resumes(audio)
	sys.Run(time.Minute)
	pings := uint64(time.Minute / defaultHeartbeatPeriod)
	if got := sys.Kernel.Resumes(audio) - woken; got < pings || got > pings+2 {
		t.Errorf("%s woke %d times in an idle minute, want its %d pings plus at most 2 edges", DriverAudio, got, pings)
	}
	if got := sys.Kernel.IRQsRaised(hw.IRQAudio); got != 2 {
		t.Errorf("line %d raised %d times in an idle minute, want the 2 post-boot edges", hw.IRQAudio, got)
	}
	for i := 0; i < 3; i++ {
		before := sys.Env.EventsExecuted()
		sys.Run(time.Second)
		if got := sys.Env.EventsExecuted() - before; got != 26 {
			t.Fatalf("idle second %d ran %d events, want 26", i, got)
		}
	}
}

// TestServersWaitOnEvents: VFS and MFS block on messages, never on a
// clock. An uninterrupted dd wakes each about twice per request (the
// request, then the reply from below), and across a disk-driver kill
// neither misses a heartbeat while MFS, waiting for the restarted driver,
// is woken only by pings, the data store's push and the fresh instance's
// answer to the reopen.
func TestServersWaitOnEvents(t *testing.T) {
	t.Run("uninterrupted", func(t *testing.T) {
		sys := New(Config{
			Seed: 1, HeartbeatPeriod: -1, DisableNet: true, DisableChar: true,
			PreallocFiles: []PreallocFile{{Name: "data", Size: 8 << 20}},
		})
		defer sys.Close()
		sys.Run(3 * time.Second) // booted, volume mounted
		vfsEp, mfsEp := sys.Kernel.LookupLabel(ServerVFS), sys.Kernel.LookupLabel(ServerMFS)
		v0, m0 := sys.Kernel.Resumes(vfsEp), sys.Kernel.Resumes(mfsEp)
		var res DdResult
		sys.Dd("/data", 64<<10, &res)
		sys.Run(time.Minute)
		if res.Err != nil || res.Bytes != 8<<20 {
			t.Fatalf("dd: %d bytes, %v", res.Bytes, res.Err)
		}
		// 131 requests reach VFS (open, 128 reads, the read that sees EOF,
		// close) and all but the close reach MFS. VFS wakes for each and
		// for MFS's reply; MFS wakes for each and for the driver's reply
		// to each transfer. Polling for replies, VFS woke 5,271 times and
		// MFS 395.
		if v, m := sys.Kernel.Resumes(vfsEp)-v0, sys.Kernel.Resumes(mfsEp)-m0; v != 261 || m != 265 {
			t.Errorf("dd woke VFS %d and MFS %d times, want 261 and 265", v, m)
		}
	})
	t.Run("driver-kill", func(t *testing.T) {
		w := &mfsWait{}
		sys := New(Config{
			Seed: 1, Obs: obs.NewRecorder(w), HeartbeatPeriod: 250 * time.Millisecond,
			DisableNet: true, DisableChar: true,
			PreallocFiles: []PreallocFile{{Name: "data", Size: 16 << 20}},
		})
		defer sys.Close()
		w.k = sys.Kernel
		sys.Run(3 * time.Second)
		var res DdResult
		sys.Dd("/data", 64<<10, &res)
		sys.After(200*time.Millisecond, func() { sys.KillDriver(DriverSATA) })
		sys.Run(time.Minute)
		if res.Err != nil || res.Bytes != 16<<20 {
			t.Fatalf("dd: %d bytes, %v", res.Bytes, res.Err)
		}
		if w.misses != 0 {
			t.Errorf("VFS and MFS missed %d heartbeats", w.misses)
		}
		// The driver's 600 ms reset spans three 250 ms pings.
		want := map[string]int{core.Label: 3, ds.Label: 1, DriverSATA: 1}
		if !maps.Equal(w.received, want) {
			t.Errorf("waiting for the driver, MFS received %v, want %v", w.received, want)
		}
		if w.woke != 5 {
			t.Errorf("waiting for the driver, MFS woke %d times for 5 messages", w.woke)
		}
	})
}

// mfsWait watches MFS's wait for a restarted disk driver on the trace
// bus: from the abort of its call to the dead driver to its
// reintegration, it counts MFS's wake-ups and the messages it received,
// by sender. It also counts heartbeat misses of VFS and MFS.
type mfsWait struct {
	k        *kernel.Kernel
	waiting  bool
	woke     uint64 // MFS resumes at the abort, then the count during the wait
	received map[string]int
	misses   int
}

func (w *mfsWait) Emit(e *obs.Event) {
	switch {
	case e.Kind == obs.KindHeartbeat && (e.Comp == ServerVFS || e.Comp == ServerMFS):
		w.misses++
	case e.Comp != ServerMFS: // the cases below are MFS's events
	case e.Kind == obs.KindIPCAbort && e.Aux == "dead" && w.received == nil:
		w.waiting, w.received = true, map[string]int{}
		w.woke = w.k.Resumes(w.k.LookupLabel(ServerMFS))
	case e.Kind == obs.KindIPCRecv && w.waiting:
		w.received[e.Aux]++
	case e.Kind == obs.KindReintegrate && w.waiting:
		w.waiting = false
		w.woke = w.k.Resumes(w.k.LookupLabel(ServerMFS)) - w.woke
	}
}
