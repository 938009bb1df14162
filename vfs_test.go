package resilientos

import (
	"io"
	"strings"
	"testing"
	"time"

	"resilientos/internal/fslib"
	"resilientos/internal/kernel"
	"resilientos/internal/proto"
)

// VFS-level behavior through the public API: descriptor ownership, device
// routing, and error propagation.

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
		fdCh <- f.Fd()
		p.Sleep(time.Hour)
	})
	sys.Spawn("thief", func(p *Proc) {
		p.Sleep(time.Second)
		select {
		case fd := <-fdCh:
			vfsEp := sys.Kernel.LookupLabel(ServerVFS)
			reply, err := p.Ctx().SendRec(vfsEp, kernel.Message{
				Type: proto.FSRead, Arg1: fd, Arg2: 16,
			})
			if err != nil {
				stolen = err
			} else if reply.Arg1 < 0 {
				stolen = fslib.ErrIO
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
