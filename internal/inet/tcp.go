package inet

import (
	"bytes"
	"slices"

	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

// TCP engine. Deliberately small but real: three-way handshake,
// cumulative ACKs, sliding window with receiver flow control,
// retransmission timeout with exponential backoff, fast retransmit on
// three duplicate ACKs, and FIN teardown. This is the reliable transport
// whose retransmission masks every frame lost while a network driver is
// dead (paper §6.1) — and whose timeout is the dominant term in the
// paper's 0.48 s mean network recovery time.

type tcpState int

const (
	stateSynSent tcpState = iota + 1
	stateSynRcvd
	stateEstablished
	stateClosed
)

// Window sizes: the capacities of a connection's send and receive rings,
// powers of two as ring requires.
const (
	sndBufLimit = 256 << 10
	rcvBufLimit = 128 << 10
)

// tcpConn is one TCP connection endpoint.
type tcpConn struct {
	id         int64
	ch         *channel // the driver channel this connection is bound to
	localPort  uint16
	remotePort uint16
	state      tcpState

	// Send side. snd holds bytes [sndUna, sndUna+snd.n); its buffer goes
	// back to the free list once the FIN is acked.
	iss      uint32
	sndUna   uint32
	sndNxt   uint32
	snd      ring
	peerWnd  uint16
	dupAcks  int
	closeReq bool // app closed; FIN goes out after the buffer drains
	finSent  bool
	finSeq   uint32
	finAcked bool

	// Receive side. rcv holds the bytes delivered in order and not yet
	// read; its buffer goes back to the free list once the reader has
	// taken EOF.
	rcvNxt uint32
	rcv    ring
	rcvFIN bool
	ooo    []oooSeg // out-of-order segments awaiting the gap fill, by seq

	// Retransmission.
	rto    sim.Time
	retxAt sim.Time // zero = timer off

	// Teardown.
	deleteAt sim.Time

	// Blocked application calls.
	connectW kernel.Endpoint // waiting TCPConnect caller
	recvW    kernel.Endpoint // waiting TCPRecv caller
	recvMax  int
	sendW    kernel.Endpoint // waiting TCPSend caller
	sendData []byte          // remainder the waiting sender still owes
	sendDone int             // bytes of the blocked send already queued

	// Causal tracing: one op span per outstanding application call,
	// opened when the call arrives and ended at its reply site. Frames
	// the connection emits while an op is outstanding carry that op's
	// context, so driver-side work — including a restarted driver's
	// retransmission handling — nests under the application request.
	connectCtx obs.SpanContext
	recvCtx    obs.SpanContext
	sendCtx    obs.SpanContext
}

// inFlight reports whether unacknowledged data (or control) is
// outstanding.
func (c *tcpConn) inFlight() bool {
	if c.state == stateSynSent || c.state == stateSynRcvd {
		return true
	}
	if c.finSent && !c.finAcked {
		return true
	}
	return seqLT(c.sndUna, c.sndNxt)
}

// rcvWindow is the receive window to advertise.
func (c *tcpConn) rcvWindow() uint16 {
	avail := rcvBufLimit - c.rcv.n
	if avail < 0 {
		avail = 0
	}
	if avail > 0xFFFF {
		avail = 0xFFFF
	}
	return uint16(avail)
}

// tcpSegOut transmits one segment on the connection's channel, carrying
// the n bytes of the send window that start off bytes past sndUna. They
// are copied from the ring into the frame once. The frame comes from the
// free list and changes hands with every hop — driver, card, wire, peer
// card, peer driver — and the network server it reaches puts it back
// (onFrame); one dropped on the way is garbage.
func (s *Server) tcpSegOut(c *tcpConn, flags uint8, seq uint32, off, n int) {
	f := s.ctx.Bufs().Get(tcpHeaderLen + n)
	c.snd.read(f[tcpHeaderLen:], off)
	s.frameOut(c.ch, encodeTCP(f, &segment{
		srcPort: c.localPort,
		dstPort: c.remotePort,
		seq:     seq,
		ack:     c.rcvNxt,
		flags:   flags,
		wnd:     c.rcvWindow(),
	}), c.opCtx())
}

// rstOut transmits a bare RST outside any connection's window.
func (s *Server) rstOut(ch *channel, seg *segment) {
	s.frameOut(ch, encodeTCP(s.ctx.Bufs().Get(tcpHeaderLen), seg), obs.SpanContext{})
}

// opCtx picks the causal context an outgoing segment belongs to: the
// handshake while connecting, otherwise the blocked send (data and its
// retransmissions) before the blocked receive (window-update ACKs). Zero
// when no application call is outstanding — the kernel then stamps the
// server's ambient context, typically the inbound frame being answered.
func (c *tcpConn) opCtx() obs.SpanContext {
	switch {
	case c.connectCtx.Valid():
		return c.connectCtx
	case c.sendCtx.Valid():
		return c.sendCtx
	}
	return c.recvCtx
}

// sendAck emits a bare ACK.
func (s *Server) sendAck(c *tcpConn) {
	s.tcpSegOut(c, flagACK, c.sndNxt, 0, 0)
}

// armRetx starts (or restarts) the retransmission timer.
func (s *Server) armRetx(c *tcpConn) {
	c.retxAt = s.now() + c.rto
}

// trySend pushes as much buffered data as the peer's window allows.
func (s *Server) trySend(c *tcpConn) {
	if c.state != stateEstablished {
		return
	}
	wnd := uint32(c.peerWnd)
	if wnd == 0 {
		// Zero window: rely on the retransmission timer as a persist
		// probe when data is pending.
		if c.snd.n > 0 && c.retxAt == 0 {
			s.armRetx(c)
		}
	}
	for !c.finSent {
		offset := c.sndNxt - c.sndUna // bytes already in flight
		if offset >= uint32(c.snd.n) {
			break // everything buffered is in flight
		}
		avail := uint32(c.snd.n) - offset
		if avail == 0 || offset >= wnd {
			break
		}
		n := avail
		if n > MSS {
			n = MSS
		}
		if offset+n > wnd {
			n = wnd - offset
		}
		if n == 0 {
			break
		}
		s.tcpSegOut(c, flagACK, c.sndNxt, int(offset), int(n))
		c.sndNxt += n
		if c.retxAt == 0 {
			s.armRetx(c)
		}
	}
	// All buffered data transmitted: flush a pending FIN.
	if c.closeReq && !c.finSent && c.sndNxt == c.sndUna+uint32(c.snd.n) {
		c.finSeq = c.sndNxt
		c.finSent = true
		s.tcpSegOut(c, flagFIN|flagACK, c.finSeq, 0, 0)
		c.sndNxt++
		if c.retxAt == 0 {
			s.armRetx(c)
		}
	}
}

// onTcpTimer handles a retransmission timeout for one connection.
func (s *Server) onTcpTimer(c *tcpConn) {
	if !c.inFlight() && c.snd.n == 0 {
		c.retxAt = 0
		return
	}
	switch c.state {
	case stateSynSent:
		s.tcpSegOut(c, flagSYN, c.iss, 0, 0)
	case stateSynRcvd:
		s.tcpSegOut(c, flagSYN|flagACK, c.iss, 0, 0)
	case stateEstablished:
		switch {
		case seqLT(c.sndUna, c.sndNxt) && c.snd.n > 0:
			// Retransmit the first unacknowledged chunk.
			n := c.snd.n
			if n > MSS {
				n = MSS
			}
			inflight := int(c.sndNxt - c.sndUna)
			if c.finSent {
				inflight-- // FIN occupies one sequence number
			}
			if n > inflight && inflight > 0 {
				n = inflight
			}
			s.tcpSegOut(c, flagACK, c.sndUna, 0, n)
			// Go-back-N: a timeout usually means the whole flight was
			// lost (a dead driver drops everything). Collapse the send
			// window so the acks that follow stream the lost region out
			// again immediately, instead of one segment per timeout.
			c.sndNxt = c.sndUna + uint32(n)
			if c.finSent && !c.finAcked {
				c.finSent = false // FIN re-flushes after the data drains
			}
		case c.finSent && !c.finAcked:
			s.tcpSegOut(c, flagFIN|flagACK, c.finSeq, 0, 0)
		case c.snd.n > 0:
			// Persist probe against a zero window.
			s.tcpSegOut(c, flagACK, c.sndNxt, int(c.sndNxt-c.sndUna), 1)
			c.sndNxt++
		}
	}
	// Exponential backoff.
	c.rto *= 2
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
	s.armRetx(c)
	s.stats.Retransmits++
}

// handleSegment is the receive-side demultiplexed segment processor.
func (s *Server) handleSegment(ch *channel, seg *segment) {
	c := s.findConn(seg.dstPort, seg.srcPort)
	if c == nil {
		// New connection attempt against a listener?
		if seg.flags&flagSYN != 0 && seg.flags&flagACK == 0 {
			if lst := s.listeners[seg.dstPort]; lst != nil {
				s.acceptSyn(ch, lst, seg)
				return
			}
		}
		if seg.flags&flagRST == 0 {
			// No socket: refuse.
			s.rstOut(ch, &segment{
				srcPort: seg.dstPort, dstPort: seg.srcPort,
				seq: seg.ack, ack: seg.seq, flags: flagRST,
			})
		}
		return
	}
	if seg.flags&flagRST != 0 {
		s.abortConn(c, proto.ErrClosed)
		return
	}
	c.peerWnd = seg.wnd
	switch c.state {
	case stateSynSent:
		if seg.flags&flagACK != 0 && seg.ack != c.iss+1 {
			// An unacceptable ACK in SYN-SENT — typically the peer's
			// challenge-ACK for a half-open connection left over from a
			// previous network-server instance. Answer RST (RFC 793) so
			// the peer discards the stale connection; our SYN retransmit
			// then reaches its listener.
			s.rstOut(c.ch, &segment{
				srcPort: c.localPort, dstPort: c.remotePort,
				seq: seg.ack, flags: flagRST,
			})
			return
		}
		if seg.flags&(flagSYN|flagACK) == flagSYN|flagACK && seg.ack == c.iss+1 {
			c.rcvNxt = seg.seq + 1
			c.sndUna = c.iss + 1
			c.sndNxt = c.sndUna
			c.state = stateEstablished
			c.rto = rtoInit
			c.retxAt = 0
			s.sendAck(c)
			if c.connectW != 0 {
				s.reply(c.connectW, kernel.Message{Type: proto.SockReply, Arg1: c.id})
				c.connectW = 0
				s.ctx.EndWork(c.connectCtx, 0)
				c.connectCtx = obs.SpanContext{}
			}
		}
	case stateSynRcvd:
		if seg.flags&flagACK != 0 && seg.ack == c.iss+1 {
			c.sndUna = c.iss + 1
			c.sndNxt = c.sndUna
			c.state = stateEstablished
			c.rto = rtoInit
			c.retxAt = 0
			if lst := s.listeners[c.localPort]; lst != nil {
				lst.acceptQ = append(lst.acceptQ, c.id)
				s.wakeAccepter(lst)
			}
			// Fall through into data processing for piggybacked payload.
			s.processData(c, seg)
		} else if seg.flags&flagSYN != 0 {
			// Duplicate SYN: re-answer.
			s.tcpSegOut(c, flagSYN|flagACK, c.iss, 0, 0)
		}
	case stateEstablished:
		if seg.flags&flagSYN != 0 {
			// A SYN on an established connection means the peer's network
			// server lost its state (it was restarted). Challenge-ACK: the
			// restarted peer answers with RST, we tear down, and the next
			// SYN retransmission reaches the listener cleanly.
			s.sendAck(c)
			return
		}
		if seg.flags&flagACK != 0 {
			s.processAck(c, seg.ack)
		}
		s.processData(c, seg)
	}
}

// processAck advances the send window for a cumulative ACK.
func (s *Server) processAck(c *tcpConn, ack uint32) {
	if seqLT(c.sndUna, ack) {
		if seqLT(c.sndNxt, ack) {
			// The ack lies beyond sndNxt: go-back-N collapsed the send
			// window after those bytes were first transmitted, and the
			// receiver reassembled them out of order. The cumulative ack
			// proves delivery; fast-forward the window.
			c.sndNxt = ack
		}
		acked := ack - c.sndUna
		dataAcked := acked
		if c.finSent && ack == c.finSeq+1 {
			c.finAcked = true
			dataAcked--
		}
		if int(dataAcked) > c.snd.n {
			dataAcked = uint32(c.snd.n)
		}
		c.snd.discard(int(dataAcked))
		if c.finAcked {
			c.snd.release(s.ctx.Bufs()) // nothing is sent after the FIN
		}
		c.sndUna = ack
		c.dupAcks = 0
		c.rto = rtoInit
		if c.inFlight() {
			s.armRetx(c)
		} else {
			c.retxAt = 0
		}
		s.admitBlockedSend(c)
		s.trySend(c)
		s.maybeFinish(c)
		return
	}
	if ack == c.sndUna && seqLT(c.sndUna, c.sndNxt) {
		// Duplicate ACK: third one triggers fast retransmit.
		c.dupAcks++
		if c.dupAcks == 3 && c.snd.n > 0 {
			n := c.snd.n
			if n > MSS {
				n = MSS
			}
			s.tcpSegOut(c, flagACK, c.sndUna, 0, n)
			s.stats.FastRetransmits++
			c.dupAcks = 0
		}
	}
}

// processData ingests in-order payload and FIN, acks, and wakes readers.
func (s *Server) processData(c *tcpConn, seg *segment) {
	advanced := false
	payload := seg.payload
	seq := seg.seq
	if len(payload) > 0 {
		s.stats.SegsData++
		if seqLT(seq, c.rcvNxt) {
			// Retransmission overlapping delivered data: trim.
			skip := c.rcvNxt - seq
			if int(skip) >= len(payload) {
				payload = nil
				s.stats.SegsPast++
			} else {
				payload = payload[skip:]
			}
			seq = c.rcvNxt
		}
		if len(payload) > 0 {
			switch {
			case seq != c.rcvNxt:
				s.stats.SegsFuture++
				c.park(seq, payload)
			case rcvBufLimit-c.rcv.n <= 0:
				s.stats.SegsNoRoom++
			}
		}
		if len(payload) > 0 && seq == c.rcvNxt {
			room := rcvBufLimit - c.rcv.n
			if room > 0 {
				n := len(payload)
				if n > room {
					n = room
				}
				c.rcv.push(s.ctx.Bufs(), rcvBufLimit, payload[:n])
				c.rcvNxt += uint32(n)
				advanced = true
				s.stats.SegsAccepted++
				s.drainOoo(c)
			}
		}
	}
	if seg.flags&flagFIN != 0 {
		finSeq := seg.seq + uint32(len(seg.payload))
		if finSeq == c.rcvNxt && !c.rcvFIN {
			c.rcvFIN = true
			c.rcvNxt++
			advanced = true
		}
	}
	// Acknowledge any segment carrying payload or FIN (dup ACKs for
	// out-of-order arrivals drive the sender's fast retransmit).
	if len(seg.payload) > 0 || seg.flags&flagFIN != 0 {
		s.sendAck(c)
	}
	if advanced {
		s.wakeReader(c)
		s.maybeFinish(c)
	}
}

// oooLimit bounds the out-of-order reassembly buffer (segments).
const oooLimit = 128

// oooSeg is an out-of-order segment parked until the gap before it closes.
type oooSeg struct {
	seq  uint32
	data []byte
}

// park keeps a copy of an out-of-order segment, in seq order, unless
// oooLimit segments are parked already or one starts at the same seq.
func (c *tcpConn) park(seq uint32, payload []byte) {
	if len(c.ooo) >= oooLimit {
		return
	}
	i := len(c.ooo)
	for i > 0 && seqLT(seq, c.ooo[i-1].seq) {
		i--
	}
	if i > 0 && c.ooo[i-1].seq == seq {
		return
	}
	c.ooo = slices.Insert(c.ooo, i, oooSeg{seq, bytes.Clone(payload)})
}

// drainOoo folds parked segments into the in-order stream once the gap
// before them closes, lowest seq first, so the bytes taken and the
// segments left parked are a function of the segments alone. A segment
// the receive window cannot take whole stays parked, and a later fold
// takes the rest of it.
func (s *Server) drainOoo(c *tcpConn) {
	for len(c.ooo) > 0 && seqLE(c.ooo[0].seq, c.rcvNxt) {
		p := c.ooo[0]
		if skip := int(c.rcvNxt - p.seq); skip < len(p.data) {
			fresh := p.data[skip:]
			n := min(len(fresh), rcvBufLimit-c.rcv.n)
			c.rcv.push(s.ctx.Bufs(), rcvBufLimit, fresh[:n])
			c.rcvNxt += uint32(n)
			if n < len(fresh) {
				return // the window is full
			}
		}
		c.ooo = slices.Delete(c.ooo, 0, 1)
	}
}

// wakeReader completes a blocked TCPRecv if data or EOF is available.
func (s *Server) wakeReader(c *tcpConn) {
	if c.recvW == 0 {
		return
	}
	if c.rcv.n == 0 && !c.rcvFIN {
		return
	}
	waiter := c.recvW
	c.recvW = 0
	s.replyRecv(c, waiter, c.recvMax)
}

// replyRecv answers a TCPRecv with available data (or EOF) and closes
// the receive op span. Once the reader has taken EOF the receive ring is
// done with.
func (s *Server) replyRecv(c *tcpConn, to kernel.Endpoint, max int) {
	if c.rcv.n == 0 && c.rcvFIN {
		c.rcv.release(s.ctx.Bufs())
		s.reply(to, kernel.Message{Type: proto.SockReply, Arg1: 0}) // EOF
		s.ctx.EndWork(c.recvCtx, 0)
		c.recvCtx = obs.SpanContext{}
		return
	}
	n := min(c.rcv.n, max)
	payload := s.ctx.Bufs().Get(n) // the reader puts it back
	c.rcv.read(payload, 0)
	c.rcv.discard(n)
	// Reading opened the window: tell the sender.
	s.sendAck(c)
	s.reply(to, kernel.Message{Type: proto.SockReply, Arg1: int64(n), Payload: payload})
	s.ctx.EndWork(c.recvCtx, 0)
	c.recvCtx = obs.SpanContext{}
}

// admitBlockedSend moves bytes from a blocked TCPSend into freed buffer
// space, replying once everything is queued.
func (s *Server) admitBlockedSend(c *tcpConn) {
	if c.sendW == 0 {
		return
	}
	room := sndBufLimit - c.snd.n
	if room <= 0 {
		return
	}
	n := min(len(c.sendData), room)
	c.snd.push(s.ctx.Bufs(), sndBufLimit, c.sendData[:n])
	c.sendData = c.sendData[n:]
	c.sendDone += n
	if len(c.sendData) == 0 {
		s.reply(c.sendW, kernel.Message{Type: proto.SockReply, Arg1: int64(c.sendDone)})
		c.sendW = 0
		c.sendDone = 0
		s.ctx.EndWork(c.sendCtx, 0)
		c.sendCtx = obs.SpanContext{}
	}
	s.trySend(c)
}

// maybeFinish schedules connection teardown once both directions closed.
func (s *Server) maybeFinish(c *tcpConn) {
	if c.finSent && c.finAcked && c.rcvFIN && c.rcv.n == 0 && c.deleteAt == 0 {
		c.deleteAt = s.now() + 2*rtoInit
	}
	if c.rcvFIN {
		s.wakeReader(c)
	}
}

// abortConn errors out all waiters and closes the connection.
func (s *Server) abortConn(c *tcpConn, errCode int64) {
	if c.connectW != 0 {
		s.reply(c.connectW, kernel.Message{Type: proto.SockReply, Arg1: errCode})
		c.connectW = 0
	}
	if c.recvW != 0 {
		s.reply(c.recvW, kernel.Message{Type: proto.SockReply, Arg1: errCode})
		c.recvW = 0
	}
	if c.sendW != 0 {
		s.reply(c.sendW, kernel.Message{Type: proto.SockReply, Arg1: errCode})
		c.sendW = 0
	}
	s.ctx.EndWork(c.connectCtx, 1)
	s.ctx.EndWork(c.recvCtx, 1)
	s.ctx.EndWork(c.sendCtx, 1)
	c.connectCtx = obs.SpanContext{}
	c.recvCtx = obs.SpanContext{}
	c.sendCtx = obs.SpanContext{}
	c.state = stateClosed
	c.retxAt = 0
	s.removeConn(c)
}
