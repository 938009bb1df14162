// Package netlib is the application-side socket library: thin, blocking
// wrappers over the network server's message protocol, playing the role
// libc's socket calls play for MINIX applications.
package netlib

import (
	"errors"
	"fmt"
	"io"

	"resilientos/internal/kernel"
	"resilientos/internal/proto"
)

// Errors mapped from the network server's reply codes.
var (
	ErrClosed   = errors.New("netlib: connection closed")
	ErrRefused  = errors.New("netlib: connection refused")
	ErrNoServer = errors.New("netlib: network server unavailable")
)

func codeErr(code int64) error {
	switch code {
	case proto.ErrClosed:
		return ErrClosed
	case proto.ErrNotFound:
		return ErrRefused
	default:
		return fmt.Errorf("netlib: error %d", code)
	}
}

// Conn is one TCP socket belonging to the calling process.
type Conn struct {
	ctx  *kernel.Ctx
	inet kernel.Endpoint
	id   int64
}

// Dial opens a TCP connection through the network server at inetEp, over
// the named driver channel, to the remote port. It blocks until the
// handshake completes.
func Dial(c *kernel.Ctx, inetEp kernel.Endpoint, channel string, port uint16) (*Conn, error) {
	reply, err := c.SendRec(inetEp, kernel.Message{
		Type: proto.TCPConnect, Name: channel, Arg1: int64(port),
	})
	if err != nil {
		return nil, ErrNoServer
	}
	if reply.Arg1 < 0 {
		return nil, codeErr(reply.Arg1)
	}
	return &Conn{ctx: c, inet: inetEp, id: reply.Arg1}, nil
}

// Listener accepts inbound TCP connections on a port.
type Listener struct {
	ctx  *kernel.Ctx
	inet kernel.Endpoint
	id   int64
}

// Listen binds a TCP listener on the local port.
func Listen(c *kernel.Ctx, inetEp kernel.Endpoint, port uint16) (*Listener, error) {
	reply, err := c.SendRec(inetEp, kernel.Message{Type: proto.TCPListen, Arg1: int64(port)})
	if err != nil {
		return nil, ErrNoServer
	}
	if reply.Arg1 < 0 {
		return nil, codeErr(reply.Arg1)
	}
	return &Listener{ctx: c, inet: inetEp, id: reply.Arg1}, nil
}

// Accept blocks for the next inbound connection.
func (l *Listener) Accept() (*Conn, error) {
	reply, err := l.ctx.SendRec(l.inet, kernel.Message{Type: proto.TCPAccept, Arg1: l.id})
	if err != nil {
		return nil, ErrNoServer
	}
	if reply.Arg1 < 0 {
		return nil, codeErr(reply.Arg1)
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
	reply, err := cn.ctx.SendRec(cn.inet, kernel.Message{
		Type: proto.TCPSend, Arg1: cn.id, Payload: b,
	})
	if err != nil {
		return 0, ErrNoServer
	}
	if reply.Arg1 < 0 {
		return 0, codeErr(reply.Arg1)
	}
	return int(reply.Arg1), nil
}

// Read blocks for up to len(p) bytes into p; io.EOF after the peer's
// orderly close has drained. The reply buffer goes back to the system's
// free list.
func (cn *Conn) Read(p []byte) (int, error) {
	reply, err := cn.ctx.SendRec(cn.inet, kernel.Message{
		Type: proto.TCPRecv, Arg1: cn.id, Arg2: int64(len(p)),
	})
	if err != nil {
		return 0, ErrNoServer
	}
	if reply.Arg1 < 0 {
		return 0, codeErr(reply.Arg1)
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

// UDPSend transmits one datagram (fire and forget).
func UDPSend(c *kernel.Ctx, inetEp kernel.Endpoint, channel string, dstPort, srcPort uint16, payload []byte) error {
	reply, err := c.SendRec(inetEp, kernel.Message{
		Type: proto.UDPSend, Name: channel,
		Arg1: int64(dstPort), Arg2: int64(srcPort), Payload: payload,
	})
	if err != nil {
		return ErrNoServer
	}
	if reply.Arg1 < 0 {
		return codeErr(reply.Arg1)
	}
	return nil
}

// UDPRecv blocks for one datagram on the local port.
func UDPRecv(c *kernel.Ctx, inetEp kernel.Endpoint, port uint16) ([]byte, error) {
	reply, err := c.SendRec(inetEp, kernel.Message{Type: proto.UDPRecv, Arg1: int64(port)})
	if err != nil {
		return nil, ErrNoServer
	}
	if reply.Arg1 < 0 {
		return nil, codeErr(reply.Arg1)
	}
	return reply.Payload, nil
}
