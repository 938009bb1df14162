// Package hw provides the simulated hardware the drivers in this
// reproduction drive: Ethernet NICs joined by a wire, a sector-addressed
// disk, and character devices (audio codec, line printer, CD burner).
//
// Each device is mapped into the kernel's port space, so a driver's
// *control path* (commands, status, configuration) goes through privileged
// port I/O that a fault-injected driver can garble; bulk data moves through
// a typed device handle, standing in for DMA. Devices raise IRQs through
// the kernel and model transfer timing in virtual time, which is what
// calibrates the throughput experiments (Figs. 7 and 8).
//
// The NIC also models the paper's §7.2 hardware gate: a garbled command
// stream can leave the card "confused"; ordinary confusion clears on a
// RESET command, deep confusion requires a master reset — and, like the
// authors' RealTek card, a NIC can be configured without master-reset
// support, in which case only a host-level BIOS reset recovers it.
package hw

import (
	"hash/crc32"

	"resilientos/internal/sim"
)

// Calibration constants for the simulated machine. These are the knobs
// that set the absolute throughput scale of the reproduced figures; see
// EXPERIMENTS.md for the calibration against the paper's testbed.
const (
	// NICRateBps is the NIC serialization rate. With TCP/IP header and ACK
	// overhead this yields roughly the paper's 10.8 MB/s wget throughput.
	NICRateBps = 11_000_000

	// NICResetDelay is how long a NIC RESET takes; a restarted network
	// driver pays this once during reinitialization.
	NICResetDelay = 120 * sim.Time(1e6) // 120ms

	// DiskRateBps is the disk media transfer rate; after per-command
	// overhead and server hops at 64 KiB transfers this yields the
	// paper's uninterrupted 32.7 MB/s.
	DiskRateBps = 33_600_000

	// DiskCmdOverhead is the fixed per-command cost (seek + submission).
	DiskCmdOverhead = 50 * sim.Time(1e3) // 50µs

	// DiskResetDelay is the reset+identify time a restarted disk driver
	// pays; this dominates the disk recovery cost in Fig. 8 (the paper's
	// per-kill loss at 1 s intervals works out to ~0.6 s, of which the
	// device reset is the bulk).
	DiskResetDelay = 600 * sim.Time(1e6) // 600ms
)

// FCS computes the frame check sequence the NIC appends on transmit and
// verifies on receive.
func FCS(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
