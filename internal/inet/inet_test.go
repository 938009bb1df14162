package inet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
	"time"

	"resilientos/internal/ds"
	"resilientos/internal/kernel"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

// The inet tests run two network servers joined by a pair of loopback
// stub drivers, so TCP correctness is exercised without the full machine:
// the stubs can delay, drop, or duplicate frames on demand.

// stubPair is a software wire between two stub drivers.
type stubPair struct {
	env       *sim.Env
	k         *kernel.Kernel
	clientA   kernel.Endpoint // inet attached to eth.a
	clientB   kernel.Endpoint
	Delay     sim.Time
	DropEvery int // drop every Nth frame (0 = never)
	DupEvery  int // duplicate every Nth frame
	count     int
	AtoB      int
	BtoA      int
}

// msgWire carries a frame between the two stub drivers.
const msgWire int32 = 990

// stubDriver runs one side of the pair.
func (sp *stubPair) driver(side int) func(c *kernel.Ctx) {
	return func(c *kernel.Ctx) {
		var client *kernel.Endpoint
		if side == 0 {
			client = &sp.clientA
		} else {
			client = &sp.clientB
		}
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			switch m.Type {
			case proto.EthConf:
				*client = m.Source
				_ = c.Send(m.Source, kernel.Message{Type: proto.EthAck, Arg1: proto.OK})
			case proto.EthSend:
				sp.carry(side, m.Payload)
			case msgWire:
				// A frame arriving off the wire: hand it to our network
				// server like a real driver's receive path.
				if m.Source == kernel.System && *client != 0 {
					_ = c.AsyncSend(*client, kernel.Message{Type: proto.EthRecv, Payload: m.Payload})
				}
			case proto.RSPing:
				_ = c.AsyncSend(m.Source, kernel.Message{Type: proto.RSPong})
			}
		}
	}
}

func (sp *stubPair) carry(side int, frame []byte) {
	sp.count++
	if side == 0 {
		sp.AtoB++
	} else {
		sp.BtoA++
	}
	if sp.DropEvery > 0 && sp.count%sp.DropEvery == 0 {
		return
	}
	n := 1
	if sp.DupEvery > 0 && sp.count%sp.DupEvery == 0 {
		n = 2
	}
	peer := "eth.b"
	if side == 1 {
		peer = "eth.a"
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			// A frame has one owner: the wire's duplicate is a copy.
			frame = append([]byte(nil), frame...)
		}
		sp.env.Schedule(sp.Delay, func() {
			ep := sp.k.LookupLabel(peer)
			if ep == kernel.None {
				return
			}
			_ = sp.k.PostAsync(ep, kernel.Message{Type: msgWire, Payload: frame})
		})
	}
}

// rig boots kernel + DS + two inets + the stub drivers.
type rig struct {
	env  *sim.Env
	k    *kernel.Kernel
	a, b *Server
	aEp  kernel.Endpoint
	bEp  kernel.Endpoint
	sp   *stubPair
}

func newRig(t *testing.T) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	k := kernel.New(env)
	_, dsEp, err := ds.StartServer(k)
	if err != nil {
		t.Fatal(err)
	}
	sp := &stubPair{env: env, k: k, Delay: 100 * sim.Time(1e3)}
	r := &rig{env: env, k: k, sp: sp}
	// The publisher role (normally the reincarnation server).
	trusted := kernel.Privileges{AllowAllIPC: true, Calls: []kernel.Call{kernel.CallAlarm}}
	spawnAndPublish := func(label string, body func(*kernel.Ctx)) kernel.Endpoint {
		c, err := k.Spawn(label, trusted, body)
		if err != nil {
			t.Fatal(err)
		}
		return c.Endpoint()
	}
	drvA := spawnAndPublish("eth.a", sp.driver(0))
	drvB := spawnAndPublish("eth.b", sp.driver(1))
	r.a = New(Config{Pattern: "eth.a", DS: dsEp})
	r.b = New(Config{Pattern: "eth.b", DS: dsEp})
	aCtx, err := k.Spawn("inetA", trusted, r.a.Binary())
	if err != nil {
		t.Fatal(err)
	}
	bCtx, err := k.Spawn("inetB", trusted, r.b.Binary())
	if err != nil {
		t.Fatal(err)
	}
	r.aEp, r.bEp = aCtx.Endpoint(), bCtx.Endpoint()
	// Publish the drivers (as RS would).
	k.Spawn("rs", trusted, func(c *kernel.Ctx) {
		c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "eth.a", Arg1: int64(drvA)})
		c.SendRec(dsEp, kernel.Message{Type: proto.DSPublish, Name: "eth.b", Arg1: int64(drvB)})
		c.Sleep(time.Hour)
	})
	return r
}

func (r *rig) spawnApp(t *testing.T, name string, body func(c *kernel.Ctx)) {
	t.Helper()
	_, err := r.k.Spawn(name, kernel.Privileges{AllowAllIPC: true}, body)
	if err != nil {
		t.Fatal(err)
	}
}

// appSock is an application's end of a socket. The tests speak the
// socket protocol through this minimal client: the application-side
// calls live in the root package, which imports this one.
type appSock struct {
	c    *kernel.Ctx
	inet kernel.Endpoint
	id   int64
}

// sockCall sends m to the network server; a negative reply code is an
// error.
func sockCall(c *kernel.Ctx, inet kernel.Endpoint, m kernel.Message) (kernel.Message, error) {
	reply, err := c.SendRec(inet, m)
	if err == nil && reply.Arg1 < 0 {
		err = fmt.Errorf("inet reply code %d", reply.Arg1)
	}
	return reply, err
}

func dial(c *kernel.Ctx, inet kernel.Endpoint, channel string, port uint16) (*appSock, error) {
	reply, err := sockCall(c, inet, kernel.Message{Type: proto.TCPConnect, Name: channel, Arg1: int64(port)})
	return &appSock{c, inet, reply.Arg1}, err
}

func listen(c *kernel.Ctx, inet kernel.Endpoint, port uint16) (*appSock, error) {
	reply, err := sockCall(c, inet, kernel.Message{Type: proto.TCPListen, Arg1: int64(port)})
	return &appSock{c, inet, reply.Arg1}, err
}

func (s *appSock) Accept() (*appSock, error) {
	reply, err := sockCall(s.c, s.inet, kernel.Message{Type: proto.TCPAccept, Arg1: s.id})
	return &appSock{s.c, s.inet, reply.Arg1}, err
}

func (s *appSock) Write(b []byte) (int, error) {
	reply, err := sockCall(s.c, s.inet, kernel.Message{Type: proto.TCPSend, Arg1: s.id, Payload: b})
	return int(reply.Arg1), err
}

// Read copies the reply into p and recycles its buffer; io.EOF once the
// peer's orderly close has drained.
func (s *appSock) Read(p []byte) (int, error) {
	reply, err := sockCall(s.c, s.inet, kernel.Message{Type: proto.TCPRecv, Arg1: s.id, Arg2: int64(len(p))})
	if err != nil {
		return 0, err
	}
	if reply.Arg1 == 0 {
		return 0, io.EOF
	}
	n := copy(p, reply.Payload)
	s.c.Bufs().Put(reply.Payload)
	return n, nil
}

func (s *appSock) Close() error {
	_, err := s.c.SendRec(s.inet, kernel.Message{Type: proto.TCPClose, Arg1: s.id})
	return err
}

func TestTCPHandshakeAndEcho(t *testing.T) {
	r := newRig(t)
	r.spawnApp(t, "server", func(c *kernel.Ctx) {
		lst, err := listen(c, r.bEp, 7)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := lst.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		data := make([]byte, 4096)
		n, err := conn.Read(data)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		conn.Write(bytes.ToUpper(data[:n]))
		conn.Close()
	})
	var got []byte
	r.spawnApp(t, "client", func(c *kernel.Ctx) {
		c.Sleep(100 * time.Millisecond)
		conn, err := dial(c, r.aEp, "eth.a", 7)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		conn.Write([]byte("hello"))
		got = make([]byte, 4096)
		n, err := conn.Read(got)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = got[:n]
		conn.Close()
	})
	r.env.Run(time.Minute)
	if string(got) != "HELLO" {
		t.Fatalf("got %q", got)
	}
}

// transfer moves size patterned bytes from B (server) to A (client) and
// verifies content.
func transfer(t *testing.T, r *rig, size int) {
	t.Helper()
	serve(t, r, 80, size)
	done := false
	r.spawnApp(t, "client", func(c *kernel.Ctx) {
		c.Sleep(50 * time.Millisecond)
		conn, err := dial(c, r.aEp, "eth.a", 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		off := 0
		for data := make([]byte, 8192); ; {
			n, err := conn.Read(data)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if !patterned(t, 80, off, data[:n]) {
				return
			}
			off += n
		}
		if off != size {
			t.Errorf("received %d bytes, want %d", off, size)
		}
		done = true
	})
	r.env.Run(10 * time.Minute)
	if !done {
		t.Fatal("transfer did not complete")
	}
}

// pattern is byte i of the stream served on port: concurrent transfers
// carry different bytes.
func pattern(port uint16, i int) byte { return byte(i*7 + i>>8 + int(port)) }

// patterned checks that data is the stream of port from offset off on.
func patterned(t *testing.T, port uint16, off int, data []byte) bool {
	for i, b := range data {
		if b != pattern(port, off+i) {
			t.Errorf("port %d: corruption at %d", port, off+i)
			return false
		}
	}
	return true
}

// serve starts a server on B that streams size patterned bytes to the
// first connection on port and closes.
func serve(t *testing.T, r *rig, port uint16, size int) {
	t.Helper()
	r.spawnApp(t, "server", func(c *kernel.Ctx) {
		lst, err := listen(c, r.bEp, port)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := lst.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 8192)
		for off := 0; off < size; {
			n := len(buf)
			if n > size-off {
				n = size - off
			}
			for i := 0; i < n; i++ {
				buf[i] = pattern(port, off+i)
			}
			if _, err := conn.Write(buf[:n]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			off += n
		}
		conn.Close()
	})
}

// TestTwoReadersOneINET interleaves two transfers through one pair of
// network servers over a wire that drops and duplicates. The readers
// speak the socket protocol by hand so they can hold each read reply for
// a while — long enough for the server to answer the other — before
// checking it and recycling it, poisoned, the way appSock.Read does. A frame
// recycled before its payload was copied, or one reply buffer serving
// both readers, corrupts a stream.
func TestTwoReadersOneINET(t *testing.T) {
	poison(t)
	r := newRig(t)
	r.sp.DropEvery = 20
	r.sp.DupEvery = 7
	reader := func(port uint16, size int) (done *bool) {
		serve(t, r, port, size)
		done = new(bool)
		r.spawnApp(t, "client", func(c *kernel.Ctx) {
			c.Sleep(50 * time.Millisecond)
			conn, err := c.SendRec(r.aEp, kernel.Message{Type: proto.TCPConnect, Name: "eth.a", Arg1: int64(port)})
			if err != nil || conn.Arg1 < 0 {
				t.Errorf("port %d: connect: %v %d", port, err, conn.Arg1)
				return
			}
			off := 0
			for {
				rep, err := c.SendRec(r.aEp, kernel.Message{Type: proto.TCPRecv, Arg1: conn.Arg1, Arg2: 8192})
				if err != nil || rep.Arg1 < 0 {
					t.Errorf("port %d: read: %v %d", port, err, rep.Arg1)
					return
				}
				if rep.Arg1 == 0 {
					break
				}
				c.Sleep(300 * time.Microsecond)
				if !patterned(t, port, off, rep.Payload) {
					return
				}
				off += len(rep.Payload)
				c.Bufs().Put(rep.Payload)
			}
			*done = off == size
		})
		return done
	}
	first, second := reader(80, 512<<10), reader(81, 384<<10+3)
	r.env.Run(10 * time.Minute)
	if !*first || !*second {
		t.Fatalf("transfers completed in full: %v, %v", *first, *second)
	}
	if r.b.Stats().Retransmits+r.b.Stats().FastRetransmits == 0 || r.a.Stats().SegsFuture == 0 {
		t.Error("no retransmission or no out-of-order segment: the wire was too kind")
	}
}

func TestTCPBulkTransferClean(t *testing.T) {
	r := newRig(t)
	transfer(t, r, 1<<20)
	if r.a.Stats().Retransmits > 0 {
		t.Errorf("clean wire caused %d retransmits", r.a.Stats().Retransmits)
	}
}

func TestTCPBulkTransferWithLoss(t *testing.T) {
	r := newRig(t)
	r.sp.DropEvery = 20 // 5% loss both directions
	transfer(t, r, 512<<10)
	if r.b.Stats().Retransmits == 0 && r.b.Stats().FastRetransmits == 0 {
		t.Error("lossy wire caused no retransmissions")
	}
}

func TestTCPBulkTransferWithHeavyLoss(t *testing.T) {
	r := newRig(t)
	r.sp.DropEvery = 4 // 25% loss
	transfer(t, r, 64<<10)
}

func TestTCPBulkTransferWithDuplication(t *testing.T) {
	r := newRig(t)
	r.sp.DupEvery = 10
	transfer(t, r, 256<<10)
}

func TestTCPConnectRefused(t *testing.T) {
	r := newRig(t)
	var err error
	r.spawnApp(t, "client", func(c *kernel.Ctx) {
		c.Sleep(50 * time.Millisecond)
		_, err = dial(c, r.aEp, "eth.a", 9999) // nobody listens
	})
	r.env.Run(time.Minute)
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestTCPListenPortConflict(t *testing.T) {
	r := newRig(t)
	var second error
	r.spawnApp(t, "server", func(c *kernel.Ctx) {
		if _, err := listen(c, r.bEp, 80); err != nil {
			t.Errorf("first listen: %v", err)
			return
		}
		_, second = listen(c, r.bEp, 80)
	})
	r.env.Run(time.Second)
	if second == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

func TestTCPEOFAfterClose(t *testing.T) {
	r := newRig(t)
	r.spawnApp(t, "server", func(c *kernel.Ctx) {
		lst, _ := listen(c, r.bEp, 80)
		conn, err := lst.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("bye"))
		conn.Close()
	})
	var readErr error
	var first []byte
	r.spawnApp(t, "client", func(c *kernel.Ctx) {
		c.Sleep(50 * time.Millisecond)
		conn, err := dial(c, r.aEp, "eth.a", 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		first = make([]byte, 64)
		n, _ := conn.Read(first)
		first = first[:n]
		_, readErr = conn.Read(first[:cap(first)])
	})
	r.env.Run(time.Minute)
	if string(first) != "bye" {
		t.Fatalf("first read = %q", first)
	}
	if readErr != io.EOF {
		t.Fatalf("read after close = %v, want io.EOF", readErr)
	}
}

func TestTCPFlowControlSlowReader(t *testing.T) {
	// A reader that drains slowly must not lose data or deadlock: the
	// advertised window throttles the sender.
	r := newRig(t)
	const size = 300 << 10 // larger than rcvBufLimit + sndBufLimit
	r.spawnApp(t, "server", func(c *kernel.Ctx) {
		lst, _ := listen(c, r.bEp, 80)
		conn, err := lst.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 16<<10)
		for off := 0; off < size; {
			n := len(buf)
			if n > size-off {
				n = size - off
			}
			if _, err := conn.Write(buf[:n]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			off += n
		}
		conn.Close()
	})
	total := 0
	r.spawnApp(t, "client", func(c *kernel.Ctx) {
		c.Sleep(50 * time.Millisecond)
		conn, err := dial(c, r.aEp, "eth.a", 80)
		if err != nil {
			return
		}
		for data := make([]byte, 4<<10); ; {
			n, err := conn.Read(data)
			if err != nil {
				break
			}
			total += n
			c.Sleep(5 * time.Millisecond) // slow consumer
		}
	})
	r.env.Run(30 * time.Minute)
	if total != size {
		t.Fatalf("slow reader got %d of %d bytes", total, size)
	}
}

// dirtyFrame is a frame buffer as the free list hands them out: the
// previous holder's bytes still in it.
func dirtyFrame(n int) []byte { return bytes.Repeat([]byte{0xDB}, n) }

// TestFrameSumMatchesZeroedFieldCRC pins the wire format: the checksum a
// frame carries is the CRC-32 of the frame with the field zeroed — the
// definition the codec computed on a copy before it summed the three
// ranges around the field in place.
func TestFrameSumMatchesZeroedFieldCRC(t *testing.T) {
	reference := func(f []byte, off int) uint32 {
		cp := append([]byte(nil), f...)
		binary.BigEndian.PutUint32(cp[off:], 0)
		return crc32.ChecksumIEEE(cp)
	}
	for n := 0; n < 100; n++ {
		payload := bytes.Repeat([]byte{byte(n)}, n*17)
		tcp := encodeTCP(dirtyFrame(tcpHeaderLen+len(payload)), &segment{seq: uint32(n), payload: payload})
		if got, want := binary.BigEndian.Uint32(tcp[tcpSumOff:]), reference(tcp, tcpSumOff); got != want {
			t.Fatalf("tcp frame of %d bytes carries %#x, want %#x", len(tcp), got, want)
		}
	}
}

func TestSegmentCodecRoundtrip(t *testing.T) {
	seg := &segment{
		srcPort: 80, dstPort: 40001,
		seq: 12345, ack: 67890, flags: flagACK | flagFIN,
		wnd: 555, payload: []byte("payload bytes"),
	}
	f := dirtyFrame(tcpHeaderLen + len(seg.payload))
	copy(f[tcpHeaderLen:], seg.payload) // the sender fills the payload in place
	dec, ok := decodeTCP(encodeTCP(f, seg))
	if !ok {
		t.Fatal("decode failed")
	}
	if dec.srcPort != seg.srcPort || dec.dstPort != seg.dstPort ||
		dec.seq != seg.seq || dec.ack != seg.ack || dec.flags != seg.flags ||
		dec.wnd != seg.wnd || !bytes.Equal(dec.payload, seg.payload) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", dec, seg)
	}
}

func TestSegmentChecksumRejectsCorruption(t *testing.T) {
	f := encodeTCP(dirtyFrame(tcpHeaderLen+1), &segment{srcPort: 1, dstPort: 2, payload: []byte("x")})
	f[len(f)-1] ^= 0xFF
	if _, ok := decodeTCP(f); ok {
		t.Fatal("corrupted segment accepted")
	}
}

func TestSeqArithmetic(t *testing.T) {
	cases := []struct {
		a, b uint32
		lt   bool
	}{
		{1, 2, true},
		{2, 1, false},
		{0xFFFFFFFF, 0, true}, // wraparound
		{0, 0xFFFFFFFF, false},
		{5, 5, false},
	}
	for _, tc := range cases {
		if got := seqLT(tc.a, tc.b); got != tc.lt {
			t.Errorf("seqLT(%d,%d) = %v", tc.a, tc.b, got)
		}
	}
	if !seqLE(5, 5) || seqLE(6, 5) {
		t.Error("seqLE broken")
	}
}
