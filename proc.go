package resilientos

import (
	"errors"
	"fmt"
	"io"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/proto"
)

// Proc is a simulated application process: the handle a workload body
// uses for time, sockets, and files. All calls are blocking in virtual
// time, like the system calls of a real process; the file calls play the
// role of libc's, as blocking wrappers over the VFS protocol.
type Proc struct {
	sys *System
	ctx *kernel.Ctx
}

// Spawn starts an application process running body. Applications get
// ordinary unprivileged process rights: IPC to the servers, nothing else.
func (sys *System) Spawn(name string, body func(p *Proc)) {
	_, err := sys.Kernel.Spawn(name, kernel.Privileges{
		IPCTo: []string{ServerInet, ServerRemoteInet, ServerVFS, "pm"},
		UID:   1000,
	}, func(c *kernel.Ctx) {
		body(&Proc{sys: sys, ctx: c})
	})
	if err != nil {
		panic(err)
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.ctx.Now() }

// Sleep suspends the process in virtual time.
func (p *Proc) Sleep(d time.Duration) { p.ctx.Sleep(d) }

// waitLabel resolves a server label, waiting (in virtual time) for the
// service to come up — processes started at boot race the reincarnation
// server bringing the system up, and a restarted server is briefly absent.
func (p *Proc) waitLabel(label string) kernel.Endpoint {
	deadline := p.ctx.Now() + time.Minute
	for {
		if ep := p.sys.Kernel.LookupLabel(label); ep != kernel.None {
			return ep
		}
		if p.ctx.Now() > deadline {
			return kernel.None
		}
		p.ctx.Sleep(10 * time.Millisecond)
	}
}

// inetEp resolves the network server for a side, failing soft (the
// socket calls report ErrNoServer on None).
func (p *Proc) inetEp(side NetSide) kernel.Endpoint {
	label := ServerInet
	if side == NetRemote {
		label = ServerRemoteInet
	}
	return p.waitLabel(label)
}

// Errors of the socket calls, mapped from the network server's reply
// codes. Their texts name the socket library they were first written
// for; recorded outputs carry them.
var (
	ErrClosed   = errors.New("netlib: connection closed")
	ErrRefused  = errors.New("netlib: connection refused")
	ErrNoServer = errors.New("netlib: network server unavailable")
)

func sockErr(code int64) error {
	switch code {
	case proto.ErrClosed:
		return ErrClosed
	case proto.ErrNotFound:
		return ErrRefused
	default:
		return fmt.Errorf("netlib: error %d", code)
	}
}

// inetCall is a SendRec to the network server with uniform error
// mapping.
func inetCall(c *kernel.Ctx, inet kernel.Endpoint, m kernel.Message) (kernel.Message, error) {
	reply, err := c.SendRec(inet, m)
	if err != nil {
		return kernel.Message{}, ErrNoServer
	}
	if reply.Arg1 < 0 {
		return reply, sockErr(reply.Arg1)
	}
	return reply, nil
}

// Conn is one TCP socket belonging to the calling process.
type Conn struct {
	ctx  *kernel.Ctx
	inet kernel.Endpoint
	id   int64
}

// Listener accepts inbound TCP connections on a port.
type Listener struct {
	ctx  *kernel.Ctx
	inet kernel.Endpoint
	id   int64
}

// Dial opens a TCP connection through the given side's network server
// over the named driver channel to the remote port. It blocks until the
// handshake completes.
func (p *Proc) Dial(side NetSide, channel string, port uint16) (*Conn, error) {
	inet := p.inetEp(side)
	reply, err := inetCall(p.ctx, inet, kernel.Message{
		Type: proto.TCPConnect, Name: channel, Arg1: int64(port),
	})
	if err != nil {
		return nil, err
	}
	return &Conn{ctx: p.ctx, inet: inet, id: reply.Arg1}, nil
}

// Listen binds a TCP listener on the given side's local port.
func (p *Proc) Listen(side NetSide, port uint16) (*Listener, error) {
	inet := p.inetEp(side)
	reply, err := inetCall(p.ctx, inet, kernel.Message{Type: proto.TCPListen, Arg1: int64(port)})
	if err != nil {
		return nil, err
	}
	return &Listener{ctx: p.ctx, inet: inet, id: reply.Arg1}, nil
}

// Accept blocks for the next inbound connection.
func (l *Listener) Accept() (*Conn, error) {
	reply, err := inetCall(l.ctx, l.inet, kernel.Message{Type: proto.TCPAccept, Arg1: l.id})
	if err != nil {
		return nil, err
	}
	return &Conn{ctx: l.ctx, inet: l.inet, id: reply.Arg1}, nil
}

// Close closes the listener.
func (l *Listener) Close() error {
	_, err := l.ctx.SendRec(l.inet, kernel.Message{Type: proto.TCPClose, Arg1: l.id})
	return err
}

// Write sends b, blocking until the network server has queued all of it.
func (cn *Conn) Write(b []byte) (int, error) {
	reply, err := inetCall(cn.ctx, cn.inet, kernel.Message{
		Type: proto.TCPSend, Arg1: cn.id, Payload: b,
	})
	if err != nil {
		return 0, err
	}
	return int(reply.Arg1), nil
}

// Read blocks for up to len(p) bytes into p; io.EOF after the peer's
// orderly close has drained. The reply buffer goes back to the system's
// free list.
func (cn *Conn) Read(p []byte) (int, error) {
	reply, err := inetCall(cn.ctx, cn.inet, kernel.Message{
		Type: proto.TCPRecv, Arg1: cn.id, Arg2: int64(len(p)),
	})
	if err != nil {
		return 0, err
	}
	if reply.Arg1 == 0 {
		return 0, io.EOF
	}
	n := copy(p, reply.Payload)
	cn.ctx.Bufs().Put(reply.Payload)
	return n, nil
}

// Close initiates an orderly close.
func (cn *Conn) Close() error {
	_, err := cn.ctx.SendRec(cn.inet, kernel.Message{Type: proto.TCPClose, Arg1: cn.id})
	return err
}

// vfsEp resolves the VFS endpoint, waiting for boot to settle.
func (p *Proc) vfsEp() kernel.Endpoint {
	return p.waitLabel(ServerVFS)
}

// Errors of the file calls, mapped from VFS reply codes. Their texts
// name the file library they were first written for; recorded outputs
// carry them.
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

// vfsCall is a SendRec to VFS with uniform error mapping.
func vfsCall(c *kernel.Ctx, vfs kernel.Endpoint, m kernel.Message) (kernel.Message, error) {
	reply, err := c.SendRec(vfs, m)
	if err != nil {
		return kernel.Message{}, ErrIO
	}
	if reply.Arg1 < 0 {
		return reply, codeErr(reply.Arg1)
	}
	return reply, nil
}

// File is one open descriptor belonging to the calling process.
type File struct {
	ctx *kernel.Ctx
	vfs kernel.Endpoint
	fd  int64
}

// Open opens an existing file or device (e.g. "/dev/chr.printer").
func (p *Proc) Open(path string) (*File, error) { return p.open(proto.FSOpen, path) }

// Create creates and opens a new file.
func (p *Proc) Create(path string) (*File, error) { return p.open(proto.FSCreate, path) }

func (p *Proc) open(typ int32, path string) (*File, error) {
	vfs := p.vfsEp()
	reply, err := vfsCall(p.ctx, vfs, kernel.Message{Type: typ, Name: path})
	if err != nil {
		return nil, err
	}
	return &File{ctx: p.ctx, vfs: vfs, fd: reply.Arg1}, nil
}

// Read reads up to len(p) bytes at the current offset into p; io.EOF at
// end of file. The reply buffer goes back to the system's free list.
func (f *File) Read(p []byte) (int, error) {
	reply, err := vfsCall(f.ctx, f.vfs, kernel.Message{
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
	reply, err := vfsCall(f.ctx, f.vfs, kernel.Message{
		Type: proto.FSWrite, Arg1: f.fd, Payload: b,
	})
	if err != nil {
		return 0, err
	}
	return int(reply.Arg1), nil
}

// Ioctl issues a device control call on a device descriptor.
func (f *File) Ioctl(op, arg int64) (int64, error) {
	reply, err := vfsCall(f.ctx, f.vfs, kernel.Message{
		Type: proto.FSIoctl, Arg1: f.fd, Arg2: op, Arg3: arg,
	})
	if err != nil {
		return 0, err
	}
	return reply.Arg1, nil
}

// Close releases the descriptor.
func (f *File) Close() error {
	_, err := vfsCall(f.ctx, f.vfs, kernel.Message{Type: proto.FSClose, Arg1: f.fd})
	return err
}
