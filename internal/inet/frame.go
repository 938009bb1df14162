package inet

import (
	"encoding/binary"
	"hash/crc32"
)

// Wire format: one Ethernet frame carries one TCP segment. The header
// layout is fixed:
//
//	byte 0      protocol (1 = TCP)
//	bytes 1-2   source port
//	bytes 3-4   destination port
//	bytes 5-8   sequence number
//	bytes 9-12  acknowledgment number
//	byte  13    flags (SYN/ACK/FIN/RST)
//	bytes 14-15 advertised receive window
//	bytes 16-19 checksum (CRC-32 over the frame with this field zeroed)
//	bytes 20+   payload
//
// The end-to-end checksum is what guarantees that a buggy driver cannot
// silently corrupt a TCP stream (§6.1: TCP "will notice and reinsert the
// missing packets in the data stream").

// protoTCP is the protocol number in byte 0 of every frame.
const protoTCP = 1

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

// frameSum is the CRC-32 of f with the four checksum bytes at off taken
// as zero. It zeroes them for one pass over the whole frame and puts them
// back, so the frame is neither copied nor changed.
func frameSum(f []byte, off int) uint32 {
	field := binary.BigEndian.Uint32(f[off:])
	binary.BigEndian.PutUint32(f[off:], 0)
	sum := crc32.ChecksumIEEE(f)
	binary.BigEndian.PutUint32(f[off:], field)
	return sum
}

// encodeTCP writes a segment's header and checksum into f, whose payload
// f[tcpHeaderLen:] the caller has filled; s.payload is not read.
func encodeTCP(f []byte, s *segment) []byte {
	f[0] = protoTCP
	binary.BigEndian.PutUint16(f[1:], s.srcPort)
	binary.BigEndian.PutUint16(f[3:], s.dstPort)
	binary.BigEndian.PutUint32(f[5:], s.seq)
	binary.BigEndian.PutUint32(f[9:], s.ack)
	f[13] = s.flags
	binary.BigEndian.PutUint16(f[14:], s.wnd)
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

// seqLT is modular sequence comparison (a < b in sequence space).
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLE is modular a <= b.
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }
