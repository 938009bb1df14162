package inet

import (
	"encoding/binary"
	"hash/crc32"
)

// Wire format: one Ethernet frame carries one TCP segment or UDP
// datagram. The header layout is fixed:
//
//	byte 0     protocol (1 = TCP, 2 = UDP)
//	bytes 1-2  source port
//	bytes 3-4  destination port
//
// TCP continues with:
//
//	bytes 5-8   sequence number
//	bytes 9-12  acknowledgment number
//	byte  13    flags (SYN/ACK/FIN/RST)
//	bytes 14-15 advertised receive window
//	bytes 16-19 checksum (CRC-32 over the frame with this field zeroed)
//	bytes 20+   payload
//
// UDP continues with:
//
//	bytes 5-8   checksum
//	bytes 9+    payload
//
// The end-to-end checksum is what guarantees that a buggy driver cannot
// silently corrupt a TCP stream (§6.1: TCP "will notice and reinsert the
// missing packets in the data stream").

// Protocol numbers.
const (
	protoTCP = 1
	protoUDP = 2
)

// TCP header flags.
const (
	flagSYN = 1 << iota
	flagACK
	flagFIN
	flagRST
)

// tcpHeaderLen is the byte length of the TCP-on-wire header, tcpSumOff
// the offset of its checksum field.
const (
	tcpHeaderLen = 20
	tcpSumOff    = 16
)

// udpHeaderLen is the byte length of the UDP-on-wire header, udpSumOff
// the offset of its checksum field.
const (
	udpHeaderLen = 9
	udpSumOff    = 5
)

// MSS is the maximum TCP payload per frame (Ethernet 1500 minus header).
const MSS = 1500 - tcpHeaderLen

// segment is a decoded TCP segment.
type segment struct {
	srcPort, dstPort uint16
	seq, ack         uint32
	flags            uint8
	wnd              uint16
	payload          []byte
}

// datagram is a decoded UDP datagram.
type datagram struct {
	srcPort, dstPort uint16
	payload          []byte
}

// frameSum is the CRC-32 of f with the four checksum bytes at off taken
// as zero: the sum over the three ranges around the field, so neither
// end has to copy the frame or clear the field to compute it.
func frameSum(f []byte, off int) uint32 {
	sum := crc32.Update(0, crc32.IEEETable, f[:off])
	sum = crc32.Update(sum, crc32.IEEETable, zeroSum[:])
	return crc32.Update(sum, crc32.IEEETable, f[off+4:])
}

var zeroSum [4]byte // a local would escape into crc32's assembly, one allocation a frame

// encodeTCP serializes a segment into f, which the caller sized to
// tcpHeaderLen+len(s.payload); every byte of f is written.
func encodeTCP(f []byte, s *segment) []byte {
	f[0] = protoTCP
	binary.BigEndian.PutUint16(f[1:], s.srcPort)
	binary.BigEndian.PutUint16(f[3:], s.dstPort)
	binary.BigEndian.PutUint32(f[5:], s.seq)
	binary.BigEndian.PutUint32(f[9:], s.ack)
	f[13] = s.flags
	binary.BigEndian.PutUint16(f[14:], s.wnd)
	copy(f[tcpHeaderLen:], s.payload)
	binary.BigEndian.PutUint32(f[tcpSumOff:], frameSum(f, tcpSumOff))
	return f
}

// decodeTCP parses a frame as a TCP segment, verifying the checksum. The
// segment's payload is a view of the frame.
func decodeTCP(f []byte) (segment, bool) {
	if len(f) < tcpHeaderLen || f[0] != protoTCP ||
		frameSum(f, tcpSumOff) != binary.BigEndian.Uint32(f[tcpSumOff:]) {
		return segment{}, false
	}
	return segment{
		srcPort: binary.BigEndian.Uint16(f[1:]),
		dstPort: binary.BigEndian.Uint16(f[3:]),
		seq:     binary.BigEndian.Uint32(f[5:]),
		ack:     binary.BigEndian.Uint32(f[9:]),
		flags:   f[13],
		wnd:     binary.BigEndian.Uint16(f[14:]),
		payload: f[tcpHeaderLen:],
	}, true
}

// encodeUDP serializes a datagram into a frame.
func encodeUDP(d *datagram) []byte {
	f := make([]byte, udpHeaderLen+len(d.payload))
	f[0] = protoUDP
	binary.BigEndian.PutUint16(f[1:], d.srcPort)
	binary.BigEndian.PutUint16(f[3:], d.dstPort)
	copy(f[udpHeaderLen:], d.payload)
	binary.BigEndian.PutUint32(f[udpSumOff:], frameSum(f, udpSumOff))
	return f
}

// decodeUDP parses a frame as a UDP datagram, verifying the checksum. The
// datagram's payload is a view of the frame.
func decodeUDP(f []byte) (*datagram, bool) {
	if len(f) < udpHeaderLen || f[0] != protoUDP ||
		frameSum(f, udpSumOff) != binary.BigEndian.Uint32(f[udpSumOff:]) {
		return nil, false
	}
	return &datagram{
		srcPort: binary.BigEndian.Uint16(f[1:]),
		dstPort: binary.BigEndian.Uint16(f[3:]),
		payload: f[udpHeaderLen:],
	}, true
}

// seqLT is modular sequence comparison (a < b in sequence space).
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLE is modular a <= b.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }
