package resilientos

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/proto"
)

// VFS-level behavior through the public API: descriptor ownership, device
// routing, and error propagation.

func TestCodeErrMapping(t *testing.T) {
	cases := map[int64]error{
		proto.ErrNotFound: ErrNotFound,
		proto.ErrExist:    ErrExist,
		proto.ErrIO:       ErrIO,
		proto.ErrNoSpace:  ErrNoSpace,
		proto.ErrAgain:    ErrAgain,
	}
	for code, want := range cases {
		if !errors.Is(codeErr(code), want) {
			t.Errorf("code %d not mapped to %v", code, want)
		}
	}
	if err := codeErr(-99); err == nil {
		t.Error("unknown code mapped to nil")
	}
}

func TestSockErrMapping(t *testing.T) {
	if !errors.Is(sockErr(proto.ErrClosed), ErrClosed) {
		t.Error("ErrClosed not mapped")
	}
	if !errors.Is(sockErr(proto.ErrNotFound), ErrRefused) {
		t.Error("ErrNotFound not mapped to refused")
	}
	if err := sockErr(proto.ErrIO); err == nil {
		t.Error("unknown code mapped to nil")
	}
}

func TestFig3RecoverySchemes(t *testing.T) {
	rows := fig3Rows(t.Logf)
	for _, r := range rows {
		t.Log(r)
	}
	join := strings.Join(rows, "\n")
	if !strings.Contains(join, "Network    Yes") {
		t.Error("network driver recovery not transparent")
	}
	if !strings.Contains(join, "Block      Yes") {
		t.Error("block driver recovery not transparent")
	}
	if !strings.Contains(join, "I/O error") {
		t.Error("character driver failure did not reach the application")
	}
}

func TestVFSFdIsolationBetweenProcesses(t *testing.T) {
	sys := New(Config{DisableNet: true, DisableChar: true})
	var stolen error
	fdCh := make(chan int64, 1)
	sys.Spawn("owner", func(p *Proc) {
		f, err := p.Create("/private")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// Expose the raw fd number to the thief.
		fdCh <- f.fd
		p.Sleep(time.Hour)
	})
	sys.Spawn("thief", func(p *Proc) {
		p.Sleep(time.Second)
		select {
		case fd := <-fdCh:
			vfsEp := sys.Kernel.LookupLabel(ServerVFS)
			reply, err := p.ctx.SendRec(vfsEp, kernel.Message{
				Type: proto.FSRead, Arg1: fd, Arg2: 16,
			})
			if err != nil {
				stolen = err
			} else if reply.Arg1 < 0 {
				stolen = ErrIO
			}
		default:
			t.Error("no fd to steal")
		}
	})
	sys.Run(2 * time.Second)
	if stolen == nil {
		t.Fatal("a process read another process's descriptor")
	}
}

func TestVFSUnknownDevice(t *testing.T) {
	sys := New(Config{DisableNet: true, DisableDisk: true})
	var err error
	done := false
	sys.Spawn("app", func(p *Proc) {
		p.Sleep(time.Second)
		_, err = p.Open("/dev/chr.nonexistent")
		done = true
	})
	sys.Run(5 * time.Second)
	if !done {
		t.Fatal("app did not finish")
	}
	if err == nil {
		t.Fatal("open of unknown device succeeded")
	}
}

func TestVFSSequentialReadOffsets(t *testing.T) {
	sys := New(Config{DisableNet: true, DisableChar: true})
	done := false
	sys.Spawn("app", func(p *Proc) {
		f, err := p.Create("/seq")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		for i := 0; i < 10; i++ {
			f.Write([]byte{byte('a' + i)})
		}
		f.Close()
		g, err := p.Open("/seq")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// Reads advance the VFS-held offset.
		var got []byte
		for d := make([]byte, 3); ; {
			n, err := g.Read(d)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = append(got, d[:n]...)
		}
		if string(got) != "abcdefghij" {
			t.Errorf("sequential read = %q", got)
			return
		}
		done = true
	})
	sys.Run(time.Minute)
	if !done {
		t.Fatal("app did not finish")
	}
}

func TestVFSIoctlOnRegularFileRejected(t *testing.T) {
	sys := New(Config{DisableNet: true, DisableChar: true})
	done := false
	sys.Spawn("app", func(p *Proc) {
		f, err := p.Create("/plain")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if _, err := f.Ioctl(1, 2); err == nil {
			t.Error("ioctl on a regular file succeeded")
			return
		}
		done = true
	})
	sys.Run(time.Minute)
	if !done {
		t.Fatal("app did not finish")
	}
}

func TestVFSCloseInvalidatesFd(t *testing.T) {
	sys := New(Config{DisableNet: true, DisableChar: true})
	done := false
	sys.Spawn("app", func(p *Proc) {
		f, err := p.Create("/once")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Close()
		if _, err := f.Read(make([]byte, 10)); err == nil {
			t.Error("read on closed fd succeeded")
			return
		}
		done = true
	})
	sys.Run(time.Minute)
	if !done {
		t.Fatal("app did not finish")
	}
}

// TestVFSNegativeReadLengthRejected: the length of a read comes from the
// client. A negative one used to reach MFS (a regular file) or the audio
// driver (a device) as a negative slice length, and the panic took the
// whole simulator down. VFS refuses it with ErrBadCall; the descriptor
// still reads, and nothing crashed or was restarted.
func TestVFSNegativeReadLengthRejected(t *testing.T) {
	for _, path := range []string{"/file", "/dev/" + DriverAudio} {
		for _, n := range []int64{-1, -1 << 40} {
			t.Run(fmt.Sprintf("%s%d", path[strings.LastIndex(path, "/")+1:], n), func(t *testing.T) {
				sys := New(Config{DisableNet: true})
				defer sys.Close()
				var bad kernel.Message
				got := -1
				sys.Spawn("app", func(p *Proc) {
					p.Sleep(time.Second)
					if path == "/file" {
						f, err := p.Create(path)
						if err != nil {
							t.Errorf("create: %v", err)
							return
						}
						f.Write([]byte("resilient"))
						f.Close()
					}
					f, err := p.Open(path)
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					bad, err = p.ctx.SendRec(p.vfsEp(), kernel.Message{Type: proto.FSRead, Arg1: f.fd, Arg2: n})
					if err != nil {
						t.Errorf("read %d: %v", n, err)
						return
					}
					got, err = f.Read(make([]byte, 8))
					if err != nil {
						t.Errorf("read after the refused one: %v", err)
					}
				})
				sys.Run(5 * time.Second)
				if bad.Arg1 != proto.ErrBadCall {
					t.Errorf("read of %d bytes answered %d, want ErrBadCall (%d)", n, bad.Arg1, proto.ErrBadCall)
				}
				if got != 8 {
					t.Errorf("the next read returned %d bytes, want 8", got)
				}
				if events := sys.RS.Events(); len(events) != 0 {
					t.Errorf("recovery events: %+v", events)
				}
			})
		}
	}
}
