package resilientos

import (
	"time"

	"resilientos/internal/fslib"
	"resilientos/internal/kernel"
	"resilientos/internal/netlib"
)

// Proc is a simulated application process: the handle a workload body
// uses for time, sockets, and files. All calls are blocking in virtual
// time, like the system calls of a real process.
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

// Ctx exposes the raw kernel context for advanced use.
func (p *Proc) Ctx() *kernel.Ctx { return p.ctx }

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

// inetEp resolves the network server for a side, failing soft (netlib
// reports ErrNoServer on None).
func (p *Proc) inetEp(side NetSide) kernel.Endpoint {
	label := ServerInet
	if side == NetRemote {
		label = ServerRemoteInet
	}
	return p.waitLabel(label)
}

// Dial opens a TCP connection through the given side's network server
// over the named driver channel.
func (p *Proc) Dial(side NetSide, channel string, port uint16) (*netlib.Conn, error) {
	return netlib.Dial(p.ctx, p.inetEp(side), channel, port)
}

// Listen binds a TCP listener on the given side.
func (p *Proc) Listen(side NetSide, port uint16) (*netlib.Listener, error) {
	return netlib.Listen(p.ctx, p.inetEp(side), port)
}

// UDPSend transmits one datagram on the given side.
func (p *Proc) UDPSend(side NetSide, channel string, dstPort, srcPort uint16, payload []byte) error {
	return netlib.UDPSend(p.ctx, p.inetEp(side), channel, dstPort, srcPort, payload)
}

// UDPRecv blocks for one datagram on the given side.
func (p *Proc) UDPRecv(side NetSide, port uint16) ([]byte, error) {
	return netlib.UDPRecv(p.ctx, p.inetEp(side), port)
}

// vfsEp resolves the VFS endpoint, waiting for boot to settle.
func (p *Proc) vfsEp() kernel.Endpoint {
	return p.waitLabel(ServerVFS)
}

// Open opens an existing file or device (e.g. "/dev/chr.printer").
func (p *Proc) Open(path string) (*fslib.File, error) {
	return fslib.Open(p.ctx, p.vfsEp(), path)
}

// Create creates and opens a new file.
func (p *Proc) Create(path string) (*fslib.File, error) {
	return fslib.Create(p.ctx, p.vfsEp(), path)
}

// Stat returns a file's size.
func (p *Proc) Stat(path string) (int64, error) {
	return fslib.Stat(p.ctx, p.vfsEp(), path)
}

// Unlink removes a file.
func (p *Proc) Unlink(path string) error {
	return fslib.Unlink(p.ctx, p.vfsEp(), path)
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(path string) error {
	return fslib.Mkdir(p.ctx, p.vfsEp(), path)
}

// Readdir lists a directory.
func (p *Proc) Readdir(path string) ([]string, error) {
	return fslib.Readdir(p.ctx, p.vfsEp(), path)
}
