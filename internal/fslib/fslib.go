// Package fslib is the application-side file library: blocking wrappers
// over the VFS protocol, playing the role of libc's file calls.
package fslib

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"resilientos/internal/kernel"
	"resilientos/internal/proto"
)

// Errors mapped from VFS reply codes.
var (
	ErrNotFound = errors.New("fslib: no such file")
	ErrExist    = errors.New("fslib: file exists")
	ErrIO       = errors.New("fslib: I/O error")
	ErrNoSpace  = errors.New("fslib: no space")
	ErrAgain    = errors.New("fslib: try again")
)

func codeErr(code int64) error {
	switch code {
	case proto.ErrNotFound:
		return ErrNotFound
	case proto.ErrExist:
		return ErrExist
	case proto.ErrIO:
		return ErrIO
	case proto.ErrNoSpace:
		return ErrNoSpace
	case proto.ErrAgain:
		return ErrAgain
	default:
		return fmt.Errorf("fslib: error %d", code)
	}
}

// File is one open descriptor belonging to the calling process.
type File struct {
	ctx *kernel.Ctx
	vfs kernel.Endpoint
	fd  int64
}

// call is a SendRec with uniform error mapping.
func call(c *kernel.Ctx, vfs kernel.Endpoint, m kernel.Message) (kernel.Message, error) {
	reply, err := c.SendRec(vfs, m)
	if err != nil {
		return kernel.Message{}, ErrIO
	}
	if reply.Arg1 < 0 {
		return reply, codeErr(reply.Arg1)
	}
	return reply, nil
}

// Open opens an existing file or device node for I/O.
func Open(c *kernel.Ctx, vfs kernel.Endpoint, path string) (*File, error) {
	reply, err := call(c, vfs, kernel.Message{
		Type: proto.FSOpen, Name: path, Arg1: proto.FSFlagRead | proto.FSFlagWrite,
	})
	if err != nil {
		return nil, err
	}
	return &File{ctx: c, vfs: vfs, fd: reply.Arg1}, nil
}

// Create creates (and opens) a new file.
func Create(c *kernel.Ctx, vfs kernel.Endpoint, path string) (*File, error) {
	reply, err := call(c, vfs, kernel.Message{
		Type: proto.FSCreate, Name: path, Arg1: proto.FSFlagRead | proto.FSFlagWrite,
	})
	if err != nil {
		return nil, err
	}
	return &File{ctx: c, vfs: vfs, fd: reply.Arg1}, nil
}

// Read reads up to len(p) bytes at the current offset into p; io.EOF at
// end of file. The reply buffer goes back to the system's free list.
func (f *File) Read(p []byte) (int, error) {
	reply, err := call(f.ctx, f.vfs, kernel.Message{
		Type: proto.FSRead, Arg1: f.fd, Arg2: int64(len(p)),
	})
	if err != nil {
		return 0, err
	}
	if reply.Arg1 == 0 {
		return 0, io.EOF
	}
	n := copy(p, reply.Payload)
	f.ctx.Bufs().Put(reply.Payload)
	return n, nil
}

// Write appends b at the current offset.
func (f *File) Write(b []byte) (int, error) {
	reply, err := call(f.ctx, f.vfs, kernel.Message{
		Type: proto.FSWrite, Arg1: f.fd, Payload: b,
	})
	if err != nil {
		return 0, err
	}
	return int(reply.Arg1), nil
}

// Ioctl issues a device control call on a device descriptor.
func (f *File) Ioctl(op, arg int64) (int64, error) {
	reply, err := call(f.ctx, f.vfs, kernel.Message{
		Type: proto.FSIoctl, Arg1: f.fd, Arg2: op, Arg3: arg,
	})
	if err != nil {
		return 0, err
	}
	return reply.Arg1, nil
}

// Close releases the descriptor.
func (f *File) Close() error {
	_, err := call(f.ctx, f.vfs, kernel.Message{Type: proto.FSClose, Arg1: f.fd})
	return err
}

// Stat returns a file's size.
func Stat(c *kernel.Ctx, vfs kernel.Endpoint, path string) (int64, error) {
	reply, err := call(c, vfs, kernel.Message{Type: proto.FSStat, Name: path})
	if err != nil {
		return 0, err
	}
	return reply.Arg2, nil
}

// Unlink removes a file or empty directory.
func Unlink(c *kernel.Ctx, vfs kernel.Endpoint, path string) error {
	_, err := call(c, vfs, kernel.Message{Type: proto.FSUnlink, Name: path})
	return err
}

// Mkdir creates a directory.
func Mkdir(c *kernel.Ctx, vfs kernel.Endpoint, path string) error {
	_, err := call(c, vfs, kernel.Message{Type: proto.FSMkdir, Name: path})
	return err
}

// Readdir lists a directory.
func Readdir(c *kernel.Ctx, vfs kernel.Endpoint, path string) ([]string, error) {
	reply, err := call(c, vfs, kernel.Message{Type: proto.FSReaddir, Name: path})
	if err != nil {
		return nil, err
	}
	if len(reply.Payload) == 0 {
		return nil, nil
	}
	return strings.Split(string(reply.Payload), "\n"), nil
}

// Fd exposes the descriptor number (tests and diagnostics).
func (f *File) Fd() int64 { return f.fd }
