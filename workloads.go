package resilientos

import (
	"bytes"
	"crypto/md5"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"resilientos/internal/netlib"
	"resilientos/internal/proto"
)

// The workloads of the paper's evaluation: a remote file server and a
// wget-style TCP fetch (Fig. 7), a dd | sha1sum disk read (Fig. 8), and
// the recovery-aware character-device applications of §6.3 (lpd, mp3
// player, CD burner).

// Pattern fills buf with the deterministic pseudo-random byte stream used
// by the network transfer workloads, starting at stream offset off: whole
// 8-byte lanes at a time, byte-wise only at the two unaligned edges.
func Pattern(seed int64, off int64, buf []byte) {
	lane := off / 8
	if phase := off % 8; phase != 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], patternLane(seed, lane))
		buf = buf[copy(buf, w[phase:]):]
		lane++
	}
	for ; len(buf) >= 8; buf = buf[8:] {
		binary.LittleEndian.PutUint64(buf, patternLane(seed, lane))
		lane++
	}
	if len(buf) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], patternLane(seed, lane))
		copy(buf, w[:])
	}
}

// patternLane is one 8-byte lane of the stream: xorshift64* keyed by seed
// and lane index.
func patternLane(seed, lane int64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(lane)*0xBF58476D1CE4E5B9 + 1
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x * 0x2545F4914F6CDD1D
}

// ServeFile starts the remote peer's download server: for every accepted
// connection it streams size bytes of Pattern(seed) and closes. This is
// "the Internet" end of the wget experiment.
func (sys *System) ServeFile(port uint16, seed int64, size int64) {
	sys.Spawn("httpd", func(p *Proc) {
		lst, err := p.Listen(NetRemote, port)
		if err != nil {
			p.Logf("httpd: listen: %v", err)
			return
		}
		for {
			conn, err := lst.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 64<<10)
			for off := int64(0); off < size; {
				n := int64(len(buf))
				if n > size-off {
					n = size - off
				}
				Pattern(seed, off, buf[:n])
				if _, err := conn.Write(buf[:n]); err != nil {
					break
				}
				off += n
			}
			conn.Close()
		}
	})
}

// WgetResult reports one wget run.
type WgetResult struct {
	Bytes    int64
	Duration time.Duration
	MD5      [md5.Size]byte
	OK       bool // completed, and every byte matched the original
	Err      error
}

// Wget fetches size bytes from the remote server over the given local
// driver channel and verifies them against the original — the Fig. 7
// procedure. MD5 is the MD5 of what arrived, as the paper's check takes
// it; the verdict compares each chunk byte for byte with the pattern as it
// is read, which is stronger than comparing digests and hashes nothing
// twice. The result lands in *res when the transfer finishes.
func (sys *System) Wget(channel string, port uint16, seed int64, size int64, res *WgetResult) {
	sys.Spawn("wget", func(p *Proc) {
		start := p.Now()
		conn, err := p.Dial(NetLocal, channel, port)
		if err != nil {
			res.Err = err
			return
		}
		h := md5.New()
		buf := make([]byte, 64<<10)
		want := make([]byte, len(buf))
		var got int64
		match := true
		for got < size {
			n, err := conn.Read(buf)
			if err != nil {
				if err == io.EOF || errors.Is(err, netlib.ErrClosed) {
					break
				}
				res.Err = err
				return
			}
			h.Write(buf[:n])
			if match {
				Pattern(seed, got, want[:n])
				match = bytes.Equal(buf[:n], want[:n])
			}
			got += int64(n)
			res.Bytes = got
		}
		conn.Close()
		res.Duration = p.Now() - start
		copy(res.MD5[:], h.Sum(nil))
		res.OK = got == size && match
	})
}

// DdResult reports one dd | sha1sum run.
type DdResult struct {
	Bytes    int64
	Duration time.Duration
	SHA1     [sha1.Size]byte
	Err      error
}

// Dd reads the named file in chunks of bs bytes, piping it through SHA-1
// — the Fig. 8 procedure ("reading a 1-GB file filled with random data
// using dd; the input was immediately redirected to sha1sum").
func (sys *System) Dd(path string, bs int, res *DdResult) {
	sys.Spawn("dd", func(p *Proc) {
		f, err := p.Open(path)
		if err != nil {
			res.Err = err
			return
		}
		// Measure from the first read, not from boot: opening waits for
		// the disk driver's initial reset+identify.
		start := p.Now()
		h := sha1.New()
		buf := make([]byte, bs)
		for {
			n, err := f.Read(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				res.Err = err
				return
			}
			h.Write(buf[:n])
			res.Bytes += int64(n)
		}
		f.Close()
		res.Duration = p.Now() - start
		copy(res.SHA1[:], h.Sum(nil))
	})
}

// LpdResult reports a print run of the recovery-aware printer daemon.
type LpdResult struct {
	Submitted int
	Errors    int // driver failures absorbed by resubmitting
	Err       error
}

// Lpd runs a recovery-aware printer daemon: it prints the given lines and
// *reissues* any job whose driver call failed, without bothering the user
// (§6.3). Duplicate printouts may result — that is the accepted cost.
func (sys *System) Lpd(lines []string, res *LpdResult) {
	sys.Spawn("lpd", func(p *Proc) {
		for _, line := range lines {
			for {
				f, err := p.Open("/dev/" + DriverPrinter)
				if err != nil {
					res.Errors++
					p.Sleep(200 * time.Millisecond) // driver coming back
					continue
				}
				_, werr := f.Write([]byte(line))
				f.Close()
				if werr != nil {
					// The §6.3 lpd behavior: redo the job.
					res.Errors++
					p.Sleep(200 * time.Millisecond)
					continue
				}
				break
			}
			res.Submitted++
		}
	})
}

// Mp3Result reports a playback run.
type Mp3Result struct {
	FedBytes int64
	Errors   int // driver failures ridden out (each risks a hiccup)
	Err      error
}

// Mp3 plays seconds of audio by feeding the audio driver, continuing
// through driver failures at the risk of audible hiccups (§6.3).
func (sys *System) Mp3(seconds int, res *Mp3Result) {
	sys.Spawn("mp3", func(p *Proc) {
		const rate = 176_400 // bytes per second of audio
		chunk := make([]byte, rate/10)
		deadline := p.Now() + time.Duration(seconds)*time.Second
		var f interface {
			Write([]byte) (int, error)
			Close() error
		}
		for p.Now() < deadline {
			if f == nil {
				file, err := p.Open("/dev/" + DriverAudio)
				if err != nil {
					res.Errors++
					p.Sleep(100 * time.Millisecond)
					continue
				}
				f = file
			}
			n, err := f.Write(chunk)
			if err != nil {
				// Keep playing after the driver recovers; small hiccup.
				res.Errors++
				f.Close()
				f = nil
				continue
			}
			res.FedBytes += int64(n)
			if n < len(chunk) {
				p.Sleep(50 * time.Millisecond) // device buffer full
			} else {
				p.Sleep(100 * time.Millisecond)
			}
		}
		if f != nil {
			f.Close()
		}
	})
}

// BurnResult reports a CD burn.
type BurnResult struct {
	DiscOK   bool
	Finished bool
	Err      error
}

// Burn writes size bytes to the CD burner. Unlike lpd and mp3, a failure
// mid-burn cannot be recovered at any layer: the user must be told the
// disc is ruined (§6.3).
func (sys *System) Burn(size int64, res *BurnResult) {
	sys.Spawn("cdrecord", func(p *Proc) {
		f, err := p.Open("/dev/" + DriverBurner)
		if err != nil {
			res.Err = err
			return
		}
		if _, err := f.Ioctl(proto.ChrIoctlBurnBegin, size); err != nil {
			res.Err = err
			return
		}
		chunk := make([]byte, 16<<10)
		for written := int64(0); written < size; {
			n := int64(len(chunk))
			if n > size-written {
				n = size - written
			}
			if _, err := f.Write(chunk[:n]); err != nil {
				// Driver failure mid-burn: report to the user (the disc
				// is almost certainly ruined).
				res.Err = fmt.Errorf("burn failed at %d/%d bytes: %w", written, size, err)
				return
			}
			written += n
			p.Sleep(20 * time.Millisecond) // pace the laser
		}
		ok, err := f.Ioctl(proto.ChrIoctlBurnFinish, 0)
		f.Close()
		if err != nil {
			res.Err = err
			return
		}
		res.Finished = true
		res.DiscOK = ok == 1
	})
}
