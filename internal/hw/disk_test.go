package hw

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/sim"
)

func newTestDisk(t *testing.T) (*Disk, func(horizon time.Duration)) {
	t.Helper()
	env, k := testRig(t)
	d := NewDisk(env, k, DiskConfig{Sectors: 1024, Seed: 7})
	return d, func(h time.Duration) { env.Run(h) }
}

func (d *Disk) out(reg, val uint32) { d.PortOut(PortDisk+reg, val) }

func (d *Disk) in(reg uint32) uint32 {
	v, _ := d.PortIn(PortDisk + reg)
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
	d := NewDisk(env, k, DiskConfig{Sectors: 1 << 20, Seed: 1})
	d.out(DiskRegLBA, 0)
	d.out(DiskRegCount, 64) // 32 KiB: the command overhead plus 32 KiB at DiskRateBps
	d.out(DiskRegCmd, DiskCmdRead)
	want := DiskCmdOverhead + 32<<10*time.Second/DiskRateBps
	env.Run(want - 1)
	if d.in(DiskRegStatus)&DiskStatBusy == 0 {
		t.Fatal("finished too early")
	}
	env.Run(1)
	if d.in(DiskRegStatus)&DiskStatDRQ == 0 {
		t.Fatalf("read not complete at %v", want)
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

// TestDiskStaleCompletionOutlivesReset: a reset quiesces the read in
// flight, but a garbage COUNT keeps that read's completion pending past
// DiskResetDelay. The next command then runs while the stale completion
// is still queued; each fires at its own instant, the stale one as a
// no-op that leaves the live read's data alone.
func TestDiskStaleCompletionOutlivesReset(t *testing.T) {
	env, k := testRig(t)
	d := NewDisk(env, k, DiskConfig{Sectors: 1 << 20, Seed: 7})
	const garbage = 1 << 17 // 64 MiB: about two seconds on the platter
	d.out(DiskRegLBA, 0)
	d.out(DiskRegCount, garbage)
	d.out(DiskRegCmd, DiskCmdRead)
	d.out(DiskRegCmd, DiskCmdReset)
	env.Run(DiskResetDelay)
	if d.in(DiskRegStatus)&DiskStatReady == 0 {
		t.Fatal("disk not ready after the reset")
	}
	if env.EventsExecuted() != 1 || env.Pending() != 1 {
		t.Fatalf("after the reset: %d events run, %d pending; want 1 and 1", env.EventsExecuted(), env.Pending())
	}
	d.out(DiskRegLBA, 100)
	d.out(DiskRegCount, 3)
	d.out(DiskRegCmd, DiskCmdRead)
	live := DiskCmdOverhead + 3*SectorSize*time.Second/DiskRateBps
	env.Run(live)
	if d.in(DiskRegStatus)&DiskStatDRQ == 0 || env.Pending() != 1 {
		t.Fatalf("live read not complete at reset+%v with the stale one pending (%d pending)", live, env.Pending())
	}
	env.Run(10 * time.Second) // the stale completion fires
	if env.EventsExecuted() != 3 || env.Pending() != 0 {
		t.Fatalf("%d events run, %d pending; want 3 and 0", env.EventsExecuted(), env.Pending())
	}
	data := d.Handle().TakeData()
	for i := int64(0); i < 3; i++ {
		if !bytes.Equal(data[i*SectorSize:][:SectorSize], sectorReference(7, 100+i)) {
			t.Fatalf("sector %d of the live read differs from the reference", 100+i)
		}
	}
	if d.Stats.Reads != 2 || d.Stats.InFlightKO != 1 || d.Stats.SectorsIO != 3 {
		t.Fatalf("stats = %+v", d.Stats)
	}
}

// TestDiskCommandsAllocateNothing: a warm read or write re-arms a pooled
// completion record and fills the device's own buffer.
func TestDiskCommandsAllocateNothing(t *testing.T) {
	d, run := newTestDisk(t)
	payload := make([]byte, 8*SectorSize)
	for _, cmd := range []uint32{DiskCmdRead, DiskCmdWrite} {
		op := func() {
			if cmd == DiskCmdWrite {
				d.Handle().PutData(payload)
			}
			d.out(DiskRegLBA, 64)
			d.out(DiskRegCount, 8)
			d.out(DiskRegCmd, cmd)
			run(time.Second)
			d.Handle().TakeData()
		}
		op()
		allocs := testing.AllocsPerRun(20, op)
		if cmd == DiskCmdWrite {
			allocs -= 8 // the copy-on-write sectors: a write changes their owner
		}
		if allocs != 0 {
			t.Errorf("command %d allocates %v times beyond its sectors", cmd, allocs)
		}
	}
}

// Ops of a FuzzDiskReadMatchesReference program, one per 5 bytes: the op,
// a 16-bit LBA and a 16-bit COUNT.
const (
	fuzzPoke  = 0 // PokeSector(LBA)
	fuzzWrite = 1 // write command of COUNT sectors at LBA
	fuzzRead  = 2 // read command, compared with the reference
	fuzzPeek  = 3 // PeekSector(LBA), compared with the reference
)

func diskProg(ops ...[3]int) []byte {
	var p []byte
	for _, op := range ops {
		p = append(p, byte(op[0]), byte(op[1]>>8), byte(op[1]), byte(op[2]>>8), byte(op[2]))
	}
	return p
}

// FuzzDiskReadMatchesReference runs a program of pokes, writes, reads
// and peeks on a disk of fuzzSectors sectors and compares every read
// and peek with sectorReference plus the bytes written: runs of any
// length at any lane position, written sectors anywhere in them, a zero
// COUNT, spans past the end and COUNTs above xferKeep.
func FuzzDiskReadMatchesReference(f *testing.F) {
	const fuzzSectors = 3 << 10 // above xferKeep's 2,048 sectors
	// TestDiskFillMatchesReference's pokes, peeks and spans.
	f.Add(int64(7), diskProg(
		[3]int{fuzzPoke, 41, 0},
		[3]int{fuzzPeek, 0, 0}, [3]int{fuzzPeek, 1, 0}, [3]int{fuzzPeek, 40, 0},
		[3]int{fuzzPeek, 41, 0}, [3]int{fuzzPeek, 42, 0}, [3]int{fuzzPeek, 1023, 0},
		[3]int{fuzzRead, 0, 64}, [3]int{fuzzRead, 40, 3}, [3]int{fuzzRead, 1000, 24}, [3]int{fuzzRead, 41, 1}))
	// A written sector at each lane position of runs whose lengths are
	// not a multiple of the lane width, across a 64-sector index word.
	f.Add(int64(-3), diskProg(
		[3]int{fuzzPoke, 60, 0}, [3]int{fuzzPoke, 65, 0}, [3]int{fuzzWrite, 70, 2}, [3]int{fuzzPoke, 75, 0},
		[3]int{fuzzRead, 57, 23}, [3]int{fuzzRead, 58, 9}, [3]int{fuzzRead, 59, 130}, [3]int{fuzzRead, 63, 5},
		[3]int{fuzzRead, 64, 2}, [3]int{fuzzRead, 65, 1}, [3]int{fuzzRead, 0, 128}))
	// Zero COUNT, a span past the end, COUNTs above xferKeep, then a
	// short read from the retained buffer.
	f.Add(int64(1), diskProg(
		[3]int{fuzzRead, 5, 0}, [3]int{fuzzRead, fuzzSectors - 2, 3}, [3]int{fuzzRead, fuzzSectors, 1},
		[3]int{fuzzWrite, 2100, 3}, [3]int{fuzzRead, 1, 2049}, [3]int{fuzzRead, 0, fuzzSectors}, [3]int{fuzzRead, 2101, 7}))
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		env := sim.NewEnv(1)
		d := NewDisk(env, kernel.New(env), DiskConfig{Sectors: fuzzSectors, Seed: seed})
		written := map[int64][]byte{}
		want := func(lba int64) []byte {
			if w, ok := written[lba]; ok {
				return w
			}
			return sectorReference(seed, lba)
		}
		for i := 0; i+5 <= len(prog); i += 5 {
			op := prog[i] % 4
			lba := int64(prog[i+1])<<8 | int64(prog[i+2])
			count := (int64(prog[i+3])<<8 | int64(prog[i+4])) % (fuzzSectors + 2)
			switch op {
			case fuzzPoke, fuzzPeek:
				lba %= fuzzSectors
				if op == fuzzPoke {
					s := bytes.Repeat([]byte{byte(i/5) | 0x80}, SectorSize)
					d.PokeSector(lba, s)
					written[lba] = s
				} else if !bytes.Equal(d.PeekSector(lba), want(lba)) {
					t.Fatalf("op %d: PeekSector(%d) differs", i/5, lba)
				}
				continue
			case fuzzWrite:
				count %= 64 // a write keeps a copy of every sector
				data := make([]byte, count*SectorSize)
				for s := int64(0); s < count; s++ {
					copy(data[s*SectorSize:], bytes.Repeat([]byte{byte(i/5 + int(s))}, SectorSize))
				}
				d.Handle().PutData(data)
				d.out(DiskRegLBA, uint32(lba))
				d.out(DiskRegCount, uint32(count))
				d.out(DiskRegCmd, DiskCmdWrite)
				env.Run(0)
				if count == 0 || lba+count > fuzzSectors {
					break
				}
				for s := int64(0); s < count; s++ {
					written[lba+s] = data[s*SectorSize:][:SectorSize]
				}
			case fuzzRead:
				d.out(DiskRegLBA, uint32(lba))
				d.out(DiskRegCount, uint32(count))
				d.out(DiskRegCmd, DiskCmdRead)
				env.Run(0)
				data := d.Handle().TakeData()
				if count == 0 || lba+count > fuzzSectors {
					if data != nil || d.in(DiskRegStatus)&DiskStatError == 0 {
						t.Fatalf("op %d: read %d+%d: no error", i/5, lba, count)
					}
					break
				}
				if int64(len(data)) != count*SectorSize {
					t.Fatalf("op %d: read %d+%d returned %d bytes", i/5, lba, count, len(data))
				}
				for s := int64(0); s < count; s++ {
					if !bytes.Equal(data[s*SectorSize:][:SectorSize], want(lba+s)) {
						t.Fatalf("op %d: read %d+%d: sector %d differs", i/5, lba, count, lba+s)
					}
				}
			}
			if bad := d.in(DiskRegStatus)&DiskStatError != 0; bad != (count == 0 || lba+count > fuzzSectors) {
				t.Fatalf("op %d: error bit %v for %d+%d", i/5, bad, lba, count)
			}
		}
	})
}
