package hw

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

func newTestDisk(t *testing.T) (*Disk, func(horizon time.Duration)) {
	t.Helper()
	env, k := testRig(t)
	d := NewDisk(env, k, DiskConfig{
		Base: 0x2000, IRQ: 14, Sectors: 1024, Seed: 7,
	})
	return d, func(h time.Duration) { env.Run(h) }
}

func (d *Disk) out(reg, val uint32) { d.PortOut(d.cfg.Base+reg, val) }

func (d *Disk) in(reg uint32) uint32 {
	v, _ := d.PortIn(d.cfg.Base + reg)
	return v
}

func TestDiskReadCommand(t *testing.T) {
	d, run := newTestDisk(t)
	d.out(DiskRegLBA, 10)
	d.out(DiskRegCount, 2)
	d.out(DiskRegCmd, DiskCmdRead)
	if d.in(DiskRegStatus)&DiskStatBusy == 0 {
		t.Fatal("disk not busy after read command")
	}
	run(time.Second)
	st := d.in(DiskRegStatus)
	if st&DiskStatDRQ == 0 || st&DiskStatReady == 0 {
		t.Fatalf("status = %#x, want DRQ|READY", st)
	}
	data := d.Handle().TakeData()
	if len(data) != 2*SectorSize {
		t.Fatalf("len = %d", len(data))
	}
	if !bytes.Equal(data[:SectorSize], d.PeekSector(10)) {
		t.Fatal("sector 10 content mismatch")
	}
	if !bytes.Equal(data[SectorSize:], d.PeekSector(11)) {
		t.Fatal("sector 11 content mismatch")
	}
}

func TestDiskWriteCommand(t *testing.T) {
	d, run := newTestDisk(t)
	payload := bytes.Repeat([]byte{0xAB}, SectorSize)
	d.Handle().PutData(payload)
	d.out(DiskRegLBA, 20)
	d.out(DiskRegCount, 1)
	d.out(DiskRegCmd, DiskCmdWrite)
	run(time.Second)
	if !bytes.Equal(d.PeekSector(20), payload) {
		t.Fatal("write did not commit")
	}
}

func TestDiskWriteReadRoundtrip(t *testing.T) {
	d, run := newTestDisk(t)
	payload := bytes.Repeat([]byte{0x5C}, 3*SectorSize)
	d.Handle().PutData(payload)
	d.out(DiskRegLBA, 100)
	d.out(DiskRegCount, 3)
	d.out(DiskRegCmd, DiskCmdWrite)
	run(time.Second)
	d.out(DiskRegLBA, 100)
	d.out(DiskRegCount, 3)
	d.out(DiskRegCmd, DiskCmdRead)
	run(time.Second)
	if !bytes.Equal(d.Handle().TakeData(), payload) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestDiskDeterministicContent(t *testing.T) {
	d1, _ := newTestDisk(t)
	d2, _ := newTestDisk(t)
	for _, lba := range []int64{0, 1, 512, 1023} {
		if !bytes.Equal(d1.PeekSector(lba), d2.PeekSector(lba)) {
			t.Fatalf("sector %d differs between same-seed disks", lba)
		}
	}
	if bytes.Equal(d1.PeekSector(0), d1.PeekSector(1)) {
		t.Fatal("adjacent sectors identical; generator is degenerate")
	}
}

func TestDiskBadLBA(t *testing.T) {
	d, run := newTestDisk(t)
	d.out(DiskRegLBA, 2000) // beyond 1024 sectors
	d.out(DiskRegCount, 1)
	d.out(DiskRegCmd, DiskCmdRead)
	run(time.Second)
	if d.in(DiskRegStatus)&DiskStatError == 0 {
		t.Fatal("no error for out-of-range LBA")
	}
}

func TestDiskZeroCount(t *testing.T) {
	d, run := newTestDisk(t)
	d.out(DiskRegLBA, 0)
	d.out(DiskRegCount, 0)
	d.out(DiskRegCmd, DiskCmdRead)
	run(time.Second)
	if d.in(DiskRegStatus)&DiskStatError == 0 {
		t.Fatal("no error for zero count")
	}
}

func TestDiskBadCommand(t *testing.T) {
	d, run := newTestDisk(t)
	d.out(DiskRegCmd, 0x77)
	run(time.Second)
	if d.Stats.BadCmds != 1 {
		t.Fatalf("BadCmds = %d, want 1", d.Stats.BadCmds)
	}
	if d.in(DiskRegStatus)&DiskStatError == 0 {
		t.Fatal("no error bit for bad command")
	}
}

func TestDiskResetQuiescesInFlight(t *testing.T) {
	d, run := newTestDisk(t)
	d.out(DiskRegLBA, 0)
	d.out(DiskRegCount, 64)
	d.out(DiskRegCmd, DiskCmdRead)
	// Reset while the read is in flight (what a restarted driver does).
	d.out(DiskRegCmd, DiskCmdReset)
	run(10 * time.Second)
	if d.Stats.InFlightKO != 1 {
		t.Fatalf("InFlightKO = %d, want 1", d.Stats.InFlightKO)
	}
	st := d.in(DiskRegStatus)
	if st&DiskStatReady == 0 {
		t.Fatalf("disk not ready after reset: %#x", st)
	}
	if d.Handle().TakeData() != nil {
		t.Fatal("stale read data survived reset")
	}
}

func TestDiskCommandIgnoredWhileBusy(t *testing.T) {
	d, run := newTestDisk(t)
	d.out(DiskRegLBA, 0)
	d.out(DiskRegCount, 8)
	d.out(DiskRegCmd, DiskCmdRead)
	d.out(DiskRegCmd, DiskCmdRead) // ignored
	run(time.Second)
	if d.Stats.Reads != 1 {
		t.Fatalf("Reads = %d, want 1", d.Stats.Reads)
	}
}

func TestDiskTimingMatchesRate(t *testing.T) {
	env, k := testRig(t)
	d := NewDisk(env, k, DiskConfig{
		Base: 0x2000, IRQ: 14, Sectors: 1 << 20, Seed: 1,
		RateBps: 32 * 1024 * 1024, Overhead: 0,
	})
	d.out(DiskRegLBA, 0)
	d.out(DiskRegCount, 64) // 32 KiB at 32 MiB/s = ~1ms
	d.out(DiskRegCmd, DiskCmdRead)
	env.Run(500 * time.Microsecond)
	if d.in(DiskRegStatus)&DiskStatBusy == 0 {
		t.Fatal("finished too early")
	}
	env.Run(time.Second)
	if d.in(DiskRegStatus)&DiskStatDRQ == 0 {
		t.Fatal("read never completed")
	}
}

func TestDiskPokePeek(t *testing.T) {
	d, _ := newTestDisk(t)
	d.PokeSector(5, []byte("bootblock"))
	got := d.PeekSector(5)
	if !bytes.HasPrefix(got, []byte("bootblock")) {
		t.Fatalf("got %q", got[:16])
	}
	if len(got) != SectorSize {
		t.Fatalf("len = %d", len(got))
	}
}

// sectorReference is the unwritten-sector generator as it stood when it
// made a fresh slice per sector; the in-place fill is checked against it.
func sectorReference(seed, lba int64) []byte {
	s := make([]byte, SectorSize)
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(lba)*0xBF58476D1CE4E5B9 + 1
	for i := 0; i < SectorSize; i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(s[i:], x*0x2545F4914F6CDD1D)
	}
	return s
}

// TestDiskFillMatchesReference: PeekSector and the read command both
// fill in place; they must yield the reference generator's bytes for
// unwritten sectors and the written bytes for the rest — also when the
// device's transfer buffer still holds a longer, earlier read.
func TestDiskFillMatchesReference(t *testing.T) {
	d, run := newTestDisk(t)
	written := bytes.Repeat([]byte{0xC3}, SectorSize)
	d.PokeSector(41, written)
	want := func(lba int64) []byte {
		if lba == 41 {
			return written
		}
		return sectorReference(7, lba)
	}
	for _, lba := range []int64{0, 1, 40, 41, 42, 1023} {
		if !bytes.Equal(d.PeekSector(lba), want(lba)) {
			t.Fatalf("PeekSector(%d) differs from the reference", lba)
		}
	}
	for _, span := range [][2]int64{{0, 64}, {40, 3}, {1000, 24}, {41, 1}} {
		d.out(DiskRegLBA, uint32(span[0]))
		d.out(DiskRegCount, uint32(span[1]))
		d.out(DiskRegCmd, DiskCmdRead)
		run(time.Second)
		data := d.Handle().TakeData()
		if int64(len(data)) != span[1]*SectorSize {
			t.Fatalf("read %v returned %d bytes", span, len(data))
		}
		for i := int64(0); i < span[1]; i++ {
			if !bytes.Equal(data[i*SectorSize:][:SectorSize], want(span[0]+i)) {
				t.Fatalf("read %v: sector %d differs from the reference", span, span[0]+i)
			}
		}
	}
}
