// Package vfs implements the virtual file system: the single entry point
// applications use for file and device I/O. Regular paths route to the
// file server (MFS); /dev/ paths route to character device drivers.
//
// The recovery split of paper Fig. 3 is visible right here: block-backed
// file I/O is transparently recovered *below* VFS (the file server
// reissues idempotent block requests), while character-device failures
// cannot be hidden — VFS pushes ErrIO up to the application, which may or
// may not be able to recover (§6.3). Recovery-specific lines are marked
// "// [recovery]" for cmd/locstats.
package vfs

import (
	"resilientos/internal/core"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/proto"
)

// DevPrefix routes paths to character drivers: /dev/<driver label>.
const DevPrefix = "/dev/"

// Config configures a VFS instance.
type Config struct {
	// DS is the data store endpoint.
	DS kernel.Endpoint
	// FSLabel is the file server's stable name.
	FSLabel string
}

// Stats counts VFS events.
type Stats struct {
	FileOps   int
	DevOps    int
	DevErrors int // character-driver failures pushed to applications
}

// file is one open descriptor.
type file struct {
	fd     int64
	owner  kernel.Endpoint
	ino    uint32          // file-server handle (0 for devices)
	drv    kernel.Endpoint // the driver instance a device was opened on (None for regular files)
	offset int64
}

// Server is the virtual file system.
type Server struct {
	cfg Config
	ctx *kernel.Ctx

	fsEp   kernel.Endpoint
	files  map[int64]*file
	nextFd int64

	stats Stats
	bytes *obs.Counter // bytes moved through read/write, cached per incarnation
}

// New creates a VFS; run its Binary as an RS service.
func New(cfg Config) *Server {
	return &Server{cfg: cfg, files: make(map[int64]*file), nextFd: 3}
}

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats { return s.stats }

// Binary returns the service binary.
func (s *Server) Binary() func(c *kernel.Ctx) {
	return func(c *kernel.Ctx) { s.run(c) }
}

func (s *Server) run(c *kernel.Ctx) {
	s.ctx = c
	// Fresh per-incarnation state: open descriptors die with the server.
	s.files = make(map[int64]*file)
	s.nextFd = 3
	s.fsEp = 0
	s.bytes = c.Obs().Metrics().Counter("vfs.bytes")
	if _, err := c.SendRec(s.cfg.DS, kernel.Message{
		Type: proto.DSSubscribe, Name: s.cfg.FSLabel,
	}); err != nil {
		c.Panic("subscribe: " + err.Error())
	}
	for {
		m, err := c.Receive(kernel.Any)
		if err != nil {
			return
		}
		switch m.Type {
		case proto.RSPing: // [recovery] heartbeat
			_ = s.ctx.AsyncSend(m.Source, kernel.Message{Type: proto.RSPong}) // [recovery]
		case proto.DSUpdate:
			if m.Arg1 != proto.InvalidEndpoint {
				s.fsEp = kernel.Endpoint(m.Arg1)
			}
		case proto.FSOpen, proto.FSCreate, proto.FSClose, proto.FSRead,
			proto.FSWrite, proto.FSIoctl:
			s.dispatch(m)
		}
	}
}

// vfsOpName names a client request type for trace spans.
func vfsOpName(typ int32) string {
	switch typ {
	case proto.FSOpen:
		return "open"
	case proto.FSCreate:
		return "create"
	case proto.FSClose:
		return "close"
	case proto.FSRead:
		return "read"
	case proto.FSWrite:
		return "write"
	case proto.FSIoctl:
		return "ioctl"
	default:
		return "badcall"
	}
}

// dispatch runs one client request as a span under the caller's context:
// the file-server relay (and everything the file server does below it,
// down to reissued block requests) nests under the user-visible call.
func (s *Server) dispatch(m kernel.Message) {
	sc := s.ctx.BeginWork("vfs."+vfsOpName(m.Type), m.Trace)
	switch m.Type {
	case proto.FSOpen:
		s.open(m, false)
	case proto.FSCreate:
		s.open(m, true)
	case proto.FSClose:
		s.closeFd(m)
	case proto.FSRead:
		s.read(m)
	case proto.FSWrite:
		s.write(m)
	case proto.FSIoctl:
		s.ioctl(m)
	}
	s.ctx.EndWork(sc, 0)
}

func (s *Server) reply(to kernel.Endpoint, m kernel.Message) {
	m.Type = proto.FSReply
	_ = s.ctx.Send(to, m)
}

// fsCall relays a request to the file server. The wait is heartbeat-
// friendly: the file server may legitimately block for seconds while its
// disk driver is being reincarnated, and VFS must keep answering the
// reincarnation server's pings meanwhile or be mistaken for stuck.
func (s *Server) fsCall(m kernel.Message) (kernel.Message, bool) {
	if s.fsEp == 0 || s.fsEp == kernel.None {
		if ep := s.ctx.LookupLabel(s.cfg.FSLabel); ep != kernel.None {
			s.fsEp = ep
		} else {
			return kernel.Message{}, false
		}
	}
	reply, err := core.Call(s.ctx, s.fsEp, m)
	if err != nil {
		return kernel.Message{}, false
	}
	return reply, true
}

// open handles FSOpen/FSCreate for files and devices.
func (s *Server) open(m kernel.Message, create bool) {
	path := m.Name
	if len(path) > len(DevPrefix) && path[:len(DevPrefix)] == DevPrefix {
		s.stats.DevOps++
		ep := s.ctx.LookupLabel(path[len(DevPrefix):])
		if ep == kernel.None {
			s.reply(m.Source, kernel.Message{Arg1: proto.ErrNotFound})
			return
		}
		reply, err := s.ctx.SendRec(ep, kernel.Message{Type: proto.ChrOpen})
		if err != nil || reply.Arg1 != proto.OK {
			s.stats.DevErrors++ // [recovery] error is pushed up, §6.3
			s.reply(m.Source, kernel.Message{Arg1: proto.ErrIO})
			return
		}
		f := &file{fd: s.nextFd, owner: m.Source, drv: ep}
		s.nextFd++
		s.files[f.fd] = f
		s.reply(m.Source, kernel.Message{Arg1: f.fd})
		return
	}
	s.stats.FileOps++
	typ := proto.FSOpen
	if create {
		typ = proto.FSCreate
	}
	reply, ok := s.fsCall(kernel.Message{Type: typ, Name: path})
	if !ok {
		s.reply(m.Source, kernel.Message{Arg1: proto.ErrIO})
		return
	}
	if reply.Arg1 < 0 {
		s.reply(m.Source, kernel.Message{Arg1: reply.Arg1})
		return
	}
	f := &file{
		fd:    s.nextFd,
		owner: m.Source,
		ino:   uint32(reply.Arg1),
		drv:   kernel.None,
	}
	s.nextFd++
	s.files[f.fd] = f
	s.reply(m.Source, kernel.Message{Arg1: f.fd})
}

func (s *Server) lookupFd(m kernel.Message) *file {
	f := s.files[m.Arg1]
	if f == nil || f.owner != m.Source {
		return nil
	}
	return f
}

func (s *Server) closeFd(m kernel.Message) {
	if f := s.lookupFd(m); f != nil {
		delete(s.files, f.fd)
		s.reply(m.Source, kernel.Message{Arg1: proto.OK})
		return
	}
	s.reply(m.Source, kernel.Message{Arg1: proto.ErrBadCall})
}

// read handles FSRead on a descriptor; Arg2 = max bytes. A negative
// length is the client's error: it never reaches MFS or a driver.
func (s *Server) read(m kernel.Message) {
	f := s.lookupFd(m)
	if f == nil || m.Arg2 < 0 {
		s.reply(m.Source, kernel.Message{Arg1: proto.ErrBadCall})
		return
	}
	if f.drv != kernel.None {
		s.devCall(m, f, kernel.Message{Type: proto.ChrRead, Arg1: m.Arg2})
		return
	}
	s.stats.FileOps++
	reply, ok := s.fsCall(kernel.Message{
		Type: proto.FSRead, Arg1: int64(f.ino), Arg2: m.Arg2, Arg3: f.offset,
	})
	if !ok {
		s.reply(m.Source, kernel.Message{Arg1: proto.ErrIO})
		return
	}
	if reply.Arg1 > 0 {
		f.offset += reply.Arg1
		s.bytes.Add(reply.Arg1)
	}
	s.reply(m.Source, kernel.Message{Arg1: reply.Arg1, Payload: reply.Payload})
}

// write handles FSWrite on a descriptor.
func (s *Server) write(m kernel.Message) {
	f := s.lookupFd(m)
	if f == nil {
		s.reply(m.Source, kernel.Message{Arg1: proto.ErrBadCall})
		return
	}
	if f.drv != kernel.None {
		s.devCall(m, f, kernel.Message{Type: proto.ChrWrite, Payload: m.Payload})
		return
	}
	s.stats.FileOps++
	reply, ok := s.fsCall(kernel.Message{
		Type: proto.FSWrite, Arg1: int64(f.ino), Arg3: f.offset, Payload: m.Payload,
	})
	if !ok {
		s.reply(m.Source, kernel.Message{Arg1: proto.ErrIO})
		return
	}
	if reply.Arg1 > 0 {
		f.offset += reply.Arg1
		s.bytes.Add(reply.Arg1)
	}
	s.reply(m.Source, kernel.Message{Arg1: reply.Arg1})
}

// ioctl routes a device control call.
func (s *Server) ioctl(m kernel.Message) {
	f := s.lookupFd(m)
	if f == nil || f.drv == kernel.None {
		s.reply(m.Source, kernel.Message{Arg1: proto.ErrBadCall})
		return
	}
	s.devCall(m, f, kernel.Message{Type: proto.ChrIoctl, Arg1: m.Arg2, Arg2: m.Arg3})
}

// devCall relays one request to the driver instance the descriptor was
// opened on. A dead driver — one that dies mid-request, aborting the
// rendezvous, or one a restart has already replaced — is an ErrIO to the
// application: there is no transparent recovery for character streams
// (§6.3). Endpoints are temporally unique, so a descriptor never reaches
// the replacement; the application reopens the device.
func (s *Server) devCall(m kernel.Message, f *file, req kernel.Message) {
	s.stats.DevOps++
	reply, err := core.Call(s.ctx, f.drv, req)
	if err != nil {
		s.stats.DevErrors++ // [recovery] the instance died
		s.reply(m.Source, kernel.Message{Arg1: proto.ErrIO})
		return
	}
	switch req.Type {
	case proto.ChrRead:
		s.bytes.Add(int64(len(reply.Payload)))
	case proto.ChrWrite:
		if reply.Arg1 > 0 {
			s.bytes.Add(reply.Arg1)
		}
	}
	s.reply(m.Source, kernel.Message{Arg1: reply.Arg1, Payload: reply.Payload})
}
