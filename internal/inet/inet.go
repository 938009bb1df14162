// Package inet implements the network server (INET): TCP and UDP sockets
// for applications, multiplexed over Ethernet driver channels. Its
// recovery role is the paper's §6.1: INET subscribes to 'eth.*' naming
// updates in the data store; when a driver is restarted, the data store
// notifies INET, which reconfigures the fresh driver (promiscuous mode)
// and resumes I/O — while TCP retransmission masks every frame the dead
// driver dropped. The code lines specific to recovery are a minimal
// extension of the code that starts a new driver, marked "// [recovery]"
// for cmd/locstats.
package inet

import (
	"sort"

	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

// Config configures a network server instance.
type Config struct {
	// Pattern is the DS subscription for this server's drivers
	// (the paper's example: "eth.*").
	Pattern string
	// DS is the data store endpoint.
	DS kernel.Endpoint
	// RTOInit is the first TCP retransmission timeout of a connection;
	// every retransmission doubles it, up to rtoMax.
	RTOInit sim.Time
}

// rtoMax caps the exponential retransmission backoff.
const rtoMax = 5 * sim.Time(1e9) // 5s

// Defaults fills unset config fields.
func (c *Config) defaults() {
	if c.Pattern == "" {
		c.Pattern = "eth.*"
	}
	if c.RTOInit == 0 {
		c.RTOInit = 300 * sim.Time(1e6) // 300ms
	}
}

// Stats counts transport events for experiments and tests.
type Stats struct {
	FramesOut       int
	FramesDropped   int // sends that failed because the driver was down
	FramesIn        int
	Retransmits     int
	FastRetransmits int
	ChannelRestarts int // driver reconfigurations after a DS update

	// Receive-path classification (diagnostics).
	SegsData     int // segments carrying payload
	SegsAccepted int // payload (fully or partially) accepted in order
	SegsPast     int // stale retransmissions fully below rcvNxt
	SegsFuture   int // out-of-order segments beyond rcvNxt
	SegsNoRoom   int // in-order segments dropped for lack of buffer
}

// channel is one Ethernet driver binding.
type channel struct {
	label string
	ep    kernel.Endpoint
	up    bool
	bytes *obs.Counter // bytes moved, cached so frameOut never builds names
}

// sock is one application-visible socket.
type sock struct {
	id      int64
	kind    int // 1 = listener, 2 = tcp conn, 3 = udp
	port    uint16
	conn    *tcpConn
	acceptQ []int64
	acceptW kernel.Endpoint

	// UDP state.
	udpQ [][]byte
	udpW kernel.Endpoint
	ch   *channel
}

const (
	sockListen = 1
	sockTCP    = 2
	sockUDP    = 3
)

// Server is the network server. Fields are only touched from its own
// process; accessors for tests read them after the simulation settles.
type Server struct {
	cfg Config
	ctx *kernel.Ctx

	channels []*channel
	chByName map[string]*channel

	socks     map[int64]*sock
	sockOrder []int64 // deterministic iteration order
	listeners map[uint16]*sock
	udpBinds  map[uint16]*sock
	nextSock  int64
	nextPort  uint16
	nextISS   uint32

	// episode is the RS recovery episode's span context, carried on the
	// DSUpdate that announced a restarted driver; held only while
	// resumeIO links outstanding operations to it. // [recovery]
	episode obs.SpanContext

	stats Stats
}

// New creates a network server; run its Binary as an RS service.
func New(cfg Config) *Server {
	cfg.defaults()
	return &Server{
		cfg:       cfg,
		chByName:  make(map[string]*channel),
		socks:     make(map[int64]*sock),
		listeners: make(map[uint16]*sock),
		udpBinds:  make(map[uint16]*sock),
		nextSock:  1,
		nextPort:  40000,
		nextISS:   1000,
	}
}

// Stats returns a copy of the transport counters.
func (s *Server) Stats() Stats { return s.stats }

// Binary returns the service binary for this server.
func (s *Server) Binary() func(c *kernel.Ctx) {
	return func(c *kernel.Ctx) { s.run(c) }
}

func (s *Server) now() sim.Time { return s.ctx.Now() }

func (s *Server) reply(to kernel.Endpoint, m kernel.Message) {
	_ = s.ctx.Send(to, m)
}

// resetState clears all per-incarnation state: a restarted network
// server starts with empty socket and channel tables, exactly like the
// paper's "failure closes all open network connections" (§5.2). The
// cumulative Stats survive for the experiment harness.
func (s *Server) resetState() {
	s.channels = nil
	s.chByName = make(map[string]*channel)
	s.socks = make(map[int64]*sock)
	s.sockOrder = nil
	s.listeners = make(map[uint16]*sock)
	s.udpBinds = make(map[uint16]*sock)
	s.nextSock = 1
	s.nextPort = 40000
	s.nextISS = 1000
}

// run is the INET message loop.
func (s *Server) run(c *kernel.Ctx) {
	s.ctx = c
	s.resetState()
	// Subscribe to driver naming updates; current drivers are replayed.
	if _, err := c.SendRec(s.cfg.DS, kernel.Message{
		Type: proto.DSSubscribe, Name: s.cfg.Pattern,
	}); err != nil {
		c.Panic("subscribe: " + err.Error())
	}
	for {
		s.armTimer(c)
		m, err := c.Receive(kernel.Any)
		if err != nil {
			return
		}
		switch m.Type {
		case kernel.MsgNotify:
			// Notifications carry no causal context; drop any stale
			// ambient so timer-driven retransmissions aren't attributed
			// to whatever request this loop handled last.
			c.SetTraceCtx(obs.SpanContext{})
			if m.Source == kernel.Clock {
				s.onTimer()
			}
		case proto.RSPing: // [recovery] the reincarnation server monitors servers too
			_ = c.AsyncSend(m.Source, kernel.Message{Type: proto.RSPong}) // [recovery]
		case proto.DSUpdate:
			s.onDriverUpdate(c, m) // [recovery]
		case proto.EthRecv:
			s.onFrame(m)
		case proto.TCPConnect:
			s.onConnect(m)
		case proto.TCPListen:
			s.onListen(m)
		case proto.TCPAccept:
			s.onAccept(m)
		case proto.TCPSend:
			s.onSend(m)
		case proto.TCPRecv:
			s.onRecv(m)
		case proto.TCPClose:
			s.onClose(m)
		case proto.UDPSend:
			s.onUDPSend(m)
		case proto.UDPRecv:
			s.onUDPRecv(m)
		}
	}
}

// onDriverUpdate handles a data-store naming update for one of our
// drivers: a new driver, or — the recovery path — a restarted one whose
// endpoint changed. Either way the procedure is the same as first start:
// configure promiscuous mode and resume I/O (§6.1).
func (s *Server) onDriverUpdate(c *kernel.Ctx, m kernel.Message) {
	ch, known := s.chByName[m.Name]
	if !known {
		ch = &channel{label: m.Name}
		s.chByName[m.Name] = ch
		s.channels = append(s.channels, ch)
	}
	if m.Arg1 == proto.InvalidEndpoint { // [recovery] driver withdrawn
		ch.up = false // [recovery]
		return        // [recovery]
	}
	newEp := kernel.Endpoint(m.Arg1)
	restarted := known && ch.ep != newEp // [recovery]
	ch.ep = newEp
	ch.bytes = c.Obs().Metrics().Counter("inet.bytes." + ch.label)
	reply, err := c.SendRec(ch.ep, kernel.Message{
		Type: proto.EthConf,
		Arg1: proto.EthConfPromisc,
	})
	if err != nil || reply.Arg1 != proto.OK {
		ch.up = false
		return
	}
	ch.up = true
	if restarted { // [recovery]
		s.stats.ChannelRestarts++                                               // [recovery]
		s.episode = m.Trace                                                     // [recovery]
		c.Obs().Emit(obs.KindReintegrate, c.Label(), ch.label, int64(newEp), 0) // [recovery]
		s.resumeIO(ch)                                                          // [recovery]
		s.episode = obs.SpanContext{}                                           // [recovery]
	}
}

// resumeIO restarts transmission on every connection bound to a
// recovered channel; anything lost while the driver was dead is covered
// by retransmission.
func (s *Server) resumeIO(ch *channel) { // [recovery]
	for _, id := range s.sockOrder { // [recovery]
		sk := s.socks[id]                                        // [recovery]
		if sk != nil && sk.kind == sockTCP && sk.conn.ch == ch { // [recovery]
			s.linkEpisode(sk.conn) // [recovery]
			s.trySend(sk.conn)     // [recovery]
		} // [recovery]
	} // [recovery]
}

// linkEpisode marks every operation still outstanding on a connection as
// recovered by the current driver-recovery episode: each op span gets a
// "recovered-by" link to the episode span, the network-path (§6.1)
// mirror of the file server's reissue arc (§6.2).
func (s *Server) linkEpisode(c *tcpConn) { // [recovery]
	if !s.episode.Valid() { // [recovery]
		return // [recovery]
	} // [recovery]
	for _, sc := range [...]obs.SpanContext{c.connectCtx, c.sendCtx, c.recvCtx} { // [recovery]
		if sc.Valid() { // [recovery]
			s.ctx.Obs().LinkSpan(s.ctx.Label(), sc, s.episode, "recovered-by") // [recovery]
		} // [recovery]
	} // [recovery]
}

// frameOut transmits one frame on a channel, stamped with the causal
// context of the operation it serves (zero lets the kernel stamp the
// server's ambient context). A down driver drops the frame — exactly the
// window TCP retransmission covers.
func (s *Server) frameOut(ch *channel, frame []byte, trace obs.SpanContext) {
	if ch == nil || !ch.up {
		s.stats.FramesDropped++
		return
	}
	err := s.ctx.AsyncSend(ch.ep, kernel.Message{Type: proto.EthSend, Payload: frame, Trace: trace})
	if err != nil {
		// Driver died since the last DS update.
		ch.up = false // [recovery]
		s.stats.FramesDropped++
		return
	}
	s.stats.FramesOut++
	ch.bytes.Add(int64(len(frame)))
}

// onFrame ingests a frame delivered by a driver. A TCP frame ends here:
// handleSegment copies what it keeps (into rcvBuf, or a parked
// out-of-order segment), so the frame goes back to the free list. A
// datagram's payload stays a view of its frame and goes to the reader
// with it.
func (s *Server) onFrame(m kernel.Message) {
	ch := s.channelByEp(m.Source)
	if ch == nil {
		return // stale instance or unknown driver
	}
	s.stats.FramesIn++
	ch.bytes.Add(int64(len(m.Payload)))
	f := m.Payload
	if len(f) == 0 {
		return
	}
	switch f[0] {
	case protoTCP:
		if seg, ok := decodeTCP(f); ok {
			s.handleSegment(ch, &seg)
		}
		s.ctx.Bufs().Put(f)
	case protoUDP:
		if d, ok := decodeUDP(f); ok {
			s.handleDatagram(d)
		}
	}
}

func (s *Server) channelByEp(ep kernel.Endpoint) *channel {
	for _, ch := range s.channels {
		if ch.ep == ep {
			return ch
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Socket calls

func (s *Server) newSock(kind int) *sock {
	sk := &sock{id: s.nextSock, kind: kind}
	s.nextSock++
	s.socks[sk.id] = sk
	s.sockOrder = append(s.sockOrder, sk.id)
	return sk
}

func (s *Server) removeSock(id int64) {
	delete(s.socks, id)
	for i, v := range s.sockOrder {
		if v == id {
			s.sockOrder = append(s.sockOrder[:i], s.sockOrder[i+1:]...)
			break
		}
	}
}

func (s *Server) findConn(local, remote uint16) *tcpConn {
	for _, id := range s.sockOrder {
		sk := s.socks[id]
		if sk.kind == sockTCP && sk.conn.localPort == local && sk.conn.remotePort == remote {
			return sk.conn
		}
	}
	return nil
}

func (s *Server) removeConn(c *tcpConn) {
	s.removeSock(c.id)
}

func (s *Server) allocPort() uint16 {
	for {
		s.nextPort++
		if s.nextPort < 40000 {
			s.nextPort = 40000
		}
		p := s.nextPort
		if s.listeners[p] == nil && s.udpBinds[p] == nil {
			return p
		}
	}
}

// onConnect handles TCPConnect: Name = driver channel label, Arg1 =
// remote port. Blocks the caller until established.
func (s *Server) onConnect(m kernel.Message) {
	ch := s.chByName[m.Name]
	if ch == nil && len(s.channels) == 1 {
		ch = s.channels[0]
	}
	if ch == nil {
		s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: proto.ErrNotFound})
		return
	}
	sk := s.newSock(sockTCP)
	s.nextISS += 64000
	c := &tcpConn{
		id:         sk.id,
		ch:         ch,
		localPort:  s.allocPort(),
		remotePort: uint16(m.Arg1),
		state:      stateSynSent,
		iss:        s.nextISS,
		rto:        s.cfg.RTOInit,
		peerWnd:    0xFFFF,
		connectW:   m.Source,
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	sk.conn = c
	c.connectCtx = s.ctx.BeginWork("tcp.connect", m.Trace)
	s.tcpSegOut(c, flagSYN, c.iss, nil)
	s.armRetx(c)
}

// acceptSyn creates the passive side of a connection for a SYN aimed at
// a listener.
func (s *Server) acceptSyn(ch *channel, lst *sock, seg *segment) {
	sk := s.newSock(sockTCP)
	s.nextISS += 64000
	c := &tcpConn{
		id:         sk.id,
		ch:         ch,
		localPort:  seg.dstPort,
		remotePort: seg.srcPort,
		state:      stateSynRcvd,
		iss:        s.nextISS,
		rto:        s.cfg.RTOInit,
		peerWnd:    seg.wnd,
		rcvNxt:     seg.seq + 1,
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	sk.conn = c
	s.tcpSegOut(c, flagSYN|flagACK, c.iss, nil)
	s.armRetx(c)
}

func (s *Server) onListen(m kernel.Message) {
	port := uint16(m.Arg1)
	if s.listeners[port] != nil {
		s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: proto.ErrExist})
		return
	}
	sk := s.newSock(sockListen)
	sk.port = port
	s.listeners[port] = sk
	s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: sk.id})
}

func (s *Server) onAccept(m kernel.Message) {
	sk := s.socks[m.Arg1]
	if sk == nil || sk.kind != sockListen {
		s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: proto.ErrBadCall})
		return
	}
	sk.acceptW = m.Source
	s.wakeAccepter(sk)
}

func (s *Server) wakeAccepter(lst *sock) {
	if lst.acceptW == 0 || len(lst.acceptQ) == 0 {
		return
	}
	id := lst.acceptQ[0]
	lst.acceptQ = lst.acceptQ[1:]
	w := lst.acceptW
	lst.acceptW = 0
	s.reply(w, kernel.Message{Type: proto.SockReply, Arg1: id})
}

func (s *Server) onSend(m kernel.Message) {
	sk := s.socks[m.Arg1]
	if sk == nil || sk.kind != sockTCP {
		s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: proto.ErrBadCall})
		return
	}
	c := sk.conn
	if c.state == stateClosed || c.closeReq {
		s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: proto.ErrClosed})
		return
	}
	// Queue what fits; block the caller for the rest.
	c.sendW = m.Source
	c.sendData = m.Payload
	c.sendDone = 0
	c.sendCtx = s.ctx.BeginWork("tcp.send", m.Trace)
	s.admitBlockedSend(c)
}

func (s *Server) onRecv(m kernel.Message) {
	sk := s.socks[m.Arg1]
	if sk == nil || sk.kind != sockTCP {
		s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: proto.ErrBadCall})
		return
	}
	c := sk.conn
	max := int(m.Arg2)
	if max <= 0 {
		max = MSS
	}
	c.recvCtx = s.ctx.BeginWork("tcp.recv", m.Trace)
	if len(c.rcvBuf) > 0 || c.rcvFIN {
		s.replyRecv(c, m.Source, max)
		return
	}
	if c.state == stateClosed {
		s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: proto.ErrClosed})
		s.ctx.EndWork(c.recvCtx, 1)
		c.recvCtx = obs.SpanContext{}
		return
	}
	c.recvW = m.Source
	c.recvMax = max
}

func (s *Server) onClose(m kernel.Message) {
	sk := s.socks[m.Arg1]
	if sk == nil {
		s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: proto.ErrBadCall})
		return
	}
	switch sk.kind {
	case sockListen:
		delete(s.listeners, sk.port)
		s.removeSock(sk.id)
	case sockUDP:
		delete(s.udpBinds, sk.port)
		s.removeSock(sk.id)
	case sockTCP:
		sk.conn.closeReq = true
		s.trySend(sk.conn)
	}
	s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: proto.OK})
}

// ---------------------------------------------------------------------
// UDP

func (s *Server) udpBind(port uint16) *sock {
	if sk := s.udpBinds[port]; sk != nil {
		return sk
	}
	sk := s.newSock(sockUDP)
	sk.port = port
	s.udpBinds[port] = sk
	return sk
}

// onUDPSend: Name = channel label, Arg1 = destination port, Arg2 = source
// port (0 = ephemeral). Datagram loss is explicitly tolerated (§6.1).
func (s *Server) onUDPSend(m kernel.Message) {
	ch := s.chByName[m.Name]
	if ch == nil && len(s.channels) == 1 {
		ch = s.channels[0]
	}
	if ch == nil {
		s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: proto.ErrNotFound})
		return
	}
	src := uint16(m.Arg2)
	if src == 0 {
		src = s.allocPort()
	}
	s.frameOut(ch, encodeUDP(&datagram{
		srcPort: src,
		dstPort: uint16(m.Arg1),
		payload: m.Payload,
	}), m.Trace)
	s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: int64(len(m.Payload))})
}

// onUDPRecv blocks until a datagram arrives on the local port (Arg1).
func (s *Server) onUDPRecv(m kernel.Message) {
	sk := s.udpBind(uint16(m.Arg1))
	if len(sk.udpQ) > 0 {
		d := sk.udpQ[0]
		sk.udpQ = sk.udpQ[1:]
		s.reply(m.Source, kernel.Message{Type: proto.SockReply, Arg1: int64(len(d)), Payload: d})
		return
	}
	sk.udpW = m.Source
}

func (s *Server) handleDatagram(d *datagram) {
	sk := s.udpBinds[d.dstPort]
	if sk == nil {
		return // no listener: dropped, as UDP does
	}
	if sk.udpW != 0 {
		w := sk.udpW
		sk.udpW = 0
		s.reply(w, kernel.Message{Type: proto.SockReply, Arg1: int64(len(d.payload)), Payload: d.payload})
		return
	}
	if len(sk.udpQ) < 64 {
		sk.udpQ = append(sk.udpQ, d.payload)
	}
}

// ---------------------------------------------------------------------
// Timers

func (s *Server) armTimer(c *kernel.Ctx) {
	var next sim.Time
	for _, id := range s.sockOrder {
		sk := s.socks[id]
		if sk.kind != sockTCP {
			continue
		}
		if t := sk.conn.retxAt; t != 0 && (next == 0 || t < next) {
			next = t
		}
		if t := sk.conn.deleteAt; t != 0 && (next == 0 || t < next) {
			next = t
		}
	}
	if next == 0 {
		c.SetAlarm(0)
		return
	}
	d := next - s.now()
	if d <= 0 {
		d = 1
	}
	c.SetAlarm(d)
}

func (s *Server) onTimer() {
	now := s.now()
	// Copy the order: timer handlers can delete sockets.
	ids := append([]int64(nil), s.sockOrder...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sk := s.socks[id]
		if sk == nil || sk.kind != sockTCP {
			continue
		}
		c := sk.conn
		if c.deleteAt != 0 && now >= c.deleteAt {
			c.state = stateClosed
			s.removeConn(c)
			continue
		}
		if c.retxAt != 0 && now >= c.retxAt {
			s.onTcpTimer(c)
		}
	}
}
