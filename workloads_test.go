package resilientos

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// PatternMD5 returns the MD5 of the first size bytes of the pattern
// stream: the digest of the original file, which a clean wget's MD5 must
// equal.
func PatternMD5(seed int64, size int64) [md5.Size]byte {
	h := md5.New()
	buf := make([]byte, 64<<10)
	for off := int64(0); off < size; {
		n := min(int64(len(buf)), size-off)
		Pattern(seed, off, buf[:n])
		h.Write(buf[:n])
		off += n
	}
	var sum [md5.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// Property: the workload byte stream is offset-consistent — reading it in
// arbitrary chunkings yields identical bytes. This is what lets the wget
// client verify an MD5 computed over differently-sized reads.
func TestPatternOffsetConsistency(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(r.Int63n(1000) + 1) // seed
			args[1] = reflect.ValueOf(r.Int63n(4096))     // offset
			args[2] = reflect.ValueOf(r.Int63n(512) + 1)  // length
			args[3] = reflect.ValueOf(r.Int63n(64) + 1)   // chunk size
		},
	}
	f := func(seed, off, n, chunk int64) bool {
		oneShot := make([]byte, n)
		Pattern(seed, off, oneShot)
		pieced := make([]byte, 0, n)
		for p := int64(0); p < n; {
			c := chunk
			if c > n-p {
				c = n - p
			}
			buf := make([]byte, c)
			Pattern(seed, off+p, buf)
			pieced = append(pieced, buf...)
			p += c
		}
		return bytes.Equal(oneShot, pieced)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPatternSeedsDiffer(t *testing.T) {
	a := make([]byte, 256)
	b := make([]byte, 256)
	Pattern(1, 0, a)
	Pattern(2, 0, b)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestPatternMD5MatchesStream(t *testing.T) {
	// The checksum helper must agree with hashing the stream manually in
	// odd-sized pieces.
	const seed, size = 9, 100_001
	want := PatternMD5(seed, size)
	h := make([]byte, 0, size)
	for off := int64(0); off < size; {
		n := int64(777)
		if n > size-off {
			n = size - off
		}
		buf := make([]byte, n)
		Pattern(seed, off, buf)
		h = append(h, buf...)
		off += n
	}
	got := PatternMD5(seed, size)
	_ = h
	if want != got {
		t.Fatal("PatternMD5 not deterministic")
	}
}

// patternReference is Pattern as it was before it stored whole lanes: one
// byte per inner-loop iteration. Kept as the oracle for the fast path.
func patternReference(seed int64, off int64, buf []byte) {
	lane := off / 8
	phase := off % 8
	var word [8]byte
	for i := 0; i < len(buf); {
		x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(lane)*0xBF58476D1CE4E5B9 + 1
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(word[:], x*0x2545F4914F6CDD1D)
		for ; phase < 8 && i < len(buf); phase++ {
			buf[i] = word[phase]
			i++
		}
		phase = 0
		lane++
	}
}

// TestPatternMatchesByteWiseReference: the lane-wise generator emits the
// byte-wise one's stream bit for bit — every offset phase against every
// length around one and two lanes, then random (seed, off, len).
func TestPatternMatchesByteWiseReference(t *testing.T) {
	check := func(seed, off int64, n int) {
		t.Helper()
		// Guard bytes either side catch a store outside buf.
		got := bytes.Repeat([]byte{0xA5}, n+16)
		want := bytes.Repeat([]byte{0xA5}, n+16)
		Pattern(seed, off, got[8:8+n])
		patternReference(seed, off, want[8:8+n])
		if !bytes.Equal(got, want) {
			t.Fatalf("Pattern(%d, %d, len %d) = % x, want % x", seed, off, n, got, want)
		}
	}
	for off := int64(0); off < 17; off++ {
		for n := 0; n <= 17; n++ {
			check(3, off, n)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		check(r.Int63()-r.Int63(), r.Int63n(1<<40), r.Intn(5000))
	}
}

// TestPatternMD5Pinned pins the stream itself: these sums were taken from
// the byte-wise generator, and every wget digest and golden hangs on them.
func TestPatternMD5Pinned(t *testing.T) {
	for _, c := range []struct {
		seed, size int64
		md5        string
	}{
		{1, 0, "d41d8cd98f00b204e9800998ecf8427e"},
		{1, 1, "0fbd1776e1ad22c59a7080d35c7fd4db"},
		{1, 4097, "fc8d1f3a56883d3c0594f47355b40ed4"},
		{7, 65536, "e8933e8bb6148825f419fc9e8baab1be"},
		{11, 1048579, "4fad4d23e4bf970815153871e9b54fee"},
	} {
		if got := fmt.Sprintf("%x", PatternMD5(c.seed, c.size)); got != c.md5 {
			t.Errorf("PatternMD5(%d, %d) = %s, want %s", c.seed, c.size, got, c.md5)
		}
	}
}

// TestDdDigestPinned pins Fig. 8's content: the figures compare each run's
// digest with a baseline run's, and other tests compare two runs, so a disk
// fill that went wrong the same way everywhere would pass them all. This
// sum was taken from the one-chain-per-sector generator.
func TestDdDigestPinned(t *testing.T) {
	const size = 8 << 20
	cfg := Config{DisableNet: true, DisableChar: true,
		PreallocFiles: []PreallocFile{{Name: "f", Size: size}}}
	cfg.Machine.DiskSeed = 11
	sys := New(cfg)
	defer sys.Close()
	var res DdResult
	sys.Dd("/f", 64<<10, &res)
	sys.Run(time.Minute)
	if res.Err != nil || res.Bytes != size {
		t.Fatalf("dd read %d bytes, err %v", res.Bytes, res.Err)
	}
	if got, want := fmt.Sprintf("%x", res.SHA1), "4b143faeefe399b6b956aa3f77b63cfad263be22"; got != want {
		t.Fatalf("dd SHA-1 = %s, want %s", got, want)
	}
}

// TestWgetDetectsCorruption: wget's verdict is a byte-for-byte comparison
// with the pattern, made as the stream arrives, and its MD5 is the digest
// of what arrived. A server that flips one byte mid-stream, one that
// serves another seed's file and one that closes early must each fail the
// check, and the digest must still be that of the bytes actually sent.
func TestWgetDetectsCorruption(t *testing.T) {
	const seed, size = 3, 1<<20 + 5
	for _, c := range []struct {
		name  string
		sent  int64                       // bytes the server writes
		serve func(off int64, buf []byte) // fills one chunk of the stream
		ok    bool
	}{
		{"clean", size, func(off int64, buf []byte) { Pattern(seed, off, buf) }, true},
		{"flipped-byte", size, func(off int64, buf []byte) {
			Pattern(seed, off, buf)
			const at = 300_001 // mid-stream, off any lane and chunk boundary
			if off <= at && at < off+int64(len(buf)) {
				buf[at-off] ^= 0x40
			}
		}, false},
		{"other-seed", size, func(off int64, buf []byte) { Pattern(seed+1, off, buf) }, false},
		{"short", size - 4097, func(off int64, buf []byte) { Pattern(seed, off, buf) }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := New(Config{Seed: 1, DisableDisk: true, DisableChar: true})
			defer sys.Close()
			sent := md5.New()
			sys.Spawn("httpd", func(p *Proc) {
				lst, err := p.Listen(NetRemote, 80)
				if err != nil {
					t.Errorf("listen: %v", err)
					return
				}
				conn, err := lst.Accept()
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				buf := make([]byte, 64<<10)
				for off := int64(0); off < c.sent; {
					n := min(int64(len(buf)), c.sent-off)
					c.serve(off, buf[:n])
					sent.Write(buf[:n])
					if _, err := conn.Write(buf[:n]); err != nil {
						t.Errorf("write at %d: %v", off, err)
						return
					}
					off += n
				}
				conn.Close()
			})
			var res WgetResult
			sys.Wget(DriverRTL8139, 80, seed, size, &res)
			sys.Run(time.Minute)
			if res.Err != nil || res.Bytes != c.sent {
				t.Fatalf("got %d of %d bytes sent, err %v", res.Bytes, c.sent, res.Err)
			}
			if res.OK != c.ok {
				t.Errorf("OK = %v, want %v", res.OK, c.ok)
			}
			if want := [md5.Size]byte(sent.Sum(nil)); res.MD5 != want {
				t.Errorf("MD5 %x, but the server sent %x", res.MD5, want)
			}
			if c.ok && res.MD5 != PatternMD5(seed, size) {
				t.Errorf("clean MD5 %x, want the original's %x", res.MD5, PatternMD5(seed, size))
			}
		})
	}
}

// Closing a listener gives its port back: a second Listen on a bound port
// is refused, and succeeds once the first listener is closed.
func TestListenerCloseFreesPort(t *testing.T) {
	sys := New(Config{DisableDisk: true, DisableChar: true})
	defer sys.Close()
	done := false
	sys.Spawn("app", func(p *Proc) {
		lst, err := p.Listen(NetRemote, 9000)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		if _, err := p.Listen(NetRemote, 9000); err == nil {
			t.Error("second listen on a bound port succeeded")
			return
		}
		if err := lst.Close(); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		again, err := p.Listen(NetRemote, 9000)
		if err != nil {
			t.Errorf("listen after close: %v", err)
			return
		}
		done = again.Close() == nil
	})
	sys.Run(time.Minute)
	if !done {
		t.Fatal("app did not finish")
	}
}
