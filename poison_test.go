package resilientos

import (
	"crypto/sha1"
	"reflect"
	"testing"
	"time"
)

// The use-after-release oracle. A bulk buffer has one owner at a time and
// the last one puts it back on the system's free list (DESIGN.md, "Who
// owns a buffer"). With poisonFreed set the list overwrites every buffer
// it takes back, so a holder that reads after releasing — or a server
// that hands one buffer to two readers — no longer gets the right bytes
// by luck: a digest changes, and since the run is deterministic it
// changes against the unpoisoned run's.

// TestPoisonFigures: a Fig. 7 and a Fig. 8 run with kills give the same
// result — digest, curve, recoveries, every field — poisoned or not.
func TestPoisonFigures(t *testing.T) {
	for _, cfg := range []FigureConfig{
		{Fig: 7, Size: 24 << 20, Interval: time.Second},
		{Fig: 8, Size: 128 << 20, Interval: time.Second},
	} {
		clean := RunFigure(cfg)
		if !clean.OK || clean.Kills == 0 || clean.Recoveries == 0 {
			t.Fatalf("fig %d: ok=%v kills=%d recoveries=%d: not the run this test needs",
				cfg.Fig, clean.OK, clean.Kills, clean.Recoveries)
		}
		t.Run(clean.Driver, func(t *testing.T) {
			poison(t)
			if got := RunFigure(cfg); !reflect.DeepEqual(got, clean) {
				t.Errorf("poisoned run differs: digest %s ok=%v %d bytes in %v, unpoisoned %s ok=%v %d bytes in %v",
					got.Digest, got.OK, got.Bytes, got.Duration, clean.Digest, clean.OK, clean.Bytes, clean.Duration)
			}
		})
	}
}

// TestPoisonRecoveryConformance is the 54-cell recovery table with every
// released buffer overwritten: respawn, promotion and in-place reset all
// drop buffers on the floor, and none may come back.
func TestPoisonRecoveryConformance(t *testing.T) {
	ddReference() // the reference digest is an unpoisoned read
	poison(t)
	recoveryConformance(t)
}

// TestPoisonLossyWire drives a transfer over a wire that drops and
// corrupts frames — retransmission, out-of-order parking and reassembly
// all handle frames that are recycled the moment they are ingested.
func TestPoisonLossyWire(t *testing.T) {
	const size = 4 << 20
	type outcome struct {
		WgetResult
		retransmits, parked, fcsErrors int
	}
	run := func() outcome {
		sys := New(Config{Seed: 5, DisableDisk: true, DisableChar: true})
		defer sys.Close()
		sys.Machine.Wire0.LossProb = 0.02
		sys.Machine.Wire0.CorruptProb = 0.02
		sys.ServeFile(80, 5, size)
		var o outcome
		sys.Wget(DriverRTL8139, 80, 5, size, &o.WgetResult)
		sys.Run(10 * time.Minute)
		sender := sys.RemoteInet.Stats()
		o.retransmits = sender.Retransmits + sender.FastRetransmits
		o.parked = sys.LocalInet.Stats().SegsFuture
		o.fcsErrors = sys.Machine.NIC0.Stats.FCSErrors
		return o
	}
	clean := run()
	if !clean.OK || clean.retransmits == 0 || clean.parked == 0 || clean.fcsErrors == 0 {
		t.Fatalf("%+v: not the run this test needs", clean)
	}
	poison(t)
	if got := run(); got != clean {
		t.Errorf("poisoned transfer %+v, unpoisoned %+v", got, clean)
	}
}

// TestTwoReaders runs two dd readers on one file server and two wget
// readers on one network server at once, poisoned, through the whole
// stack: four streams draw replies and frames from one free list, and
// every digest must be right. (File.Read and Conn.Read copy a reply out the
// instant it arrives; the readers that sit on one for a while — the
// case one server-wide scratch reply would break — are in internal/mfs
// and internal/inet.)
func TestTwoReaders(t *testing.T) {
	files := []PreallocFile{{Name: "a", Size: 8 << 20}, {Name: "b", Size: 6<<20 + 4097}}
	alone := func(path string) [sha1.Size]byte {
		sys := New(Config{DisableNet: true, DisableChar: true, PreallocFiles: files})
		defer sys.Close()
		var res DdResult
		sys.Dd(path, 64<<10, &res)
		sys.Run(time.Minute)
		if res.Err != nil {
			t.Fatalf("dd %s alone: %v", path, res.Err)
		}
		return res.SHA1
	}
	wantA, wantB := alone("/a"), alone("/b")

	poison(t)
	sys := New(Config{DisableChar: true, PreallocFiles: files})
	defer sys.Close()
	var ddA, ddB DdResult
	var wgetA, wgetB WgetResult
	sys.Dd("/a", 64<<10, &ddA)
	sys.Dd("/b", 4096+1, &ddB) // every read ends mid-block
	sys.ServeFile(80, 21, 3<<20)
	sys.ServeFile(81, 22, 2<<20+5)
	sys.Wget(DriverRTL8139, 80, 21, 3<<20, &wgetA)
	sys.Wget(DriverRTL8139, 81, 22, 2<<20+5, &wgetB)
	sys.Run(2 * time.Minute)
	if ddA.Err != nil || ddA.SHA1 != wantA || ddA.Bytes != files[0].Size {
		t.Errorf("dd /a beside /b: %d bytes, err %v, sha1 ok=%v", ddA.Bytes, ddA.Err, ddA.SHA1 == wantA)
	}
	if ddB.Err != nil || ddB.SHA1 != wantB || ddB.Bytes != files[1].Size {
		t.Errorf("dd /b beside /a: %d bytes, err %v, sha1 ok=%v", ddB.Bytes, ddB.Err, ddB.SHA1 == wantB)
	}
	if !wgetA.OK || !wgetB.OK {
		t.Errorf("wget: first ok=%v (%d bytes, %v), second ok=%v (%d bytes, %v)",
			wgetA.OK, wgetA.Bytes, wgetA.Err, wgetB.OK, wgetB.Bytes, wgetB.Err)
	}
}
