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
// There is one machine and one calibration: every rate, size and delay
// below is a constant, and a device is configured only by where it sits
// (port base, IRQ line) and, for the disk, by its size and content seed.
//
// The NIC also models the paper's §7.2 hardware gate. A confusable card
// (the machine's ConfusableNICs, what hw=on selects) can be wedged by a
// garbage value in a control register: ordinary confusion clears on a
// RESET command, deep confusion on nothing the driver can send. Like the
// authors' RealTek card it has no master reset, so only a host-level
// BIOS reset recovers it.
package hw

import (
	"hash/crc32"

	"resilientos/internal/sim"
)

// Calibration constants for the simulated machine: every rate, size and
// delay a device has. EXPERIMENTS.md's calibration table renders them
// beside the paper's numbers (TestExperimentsTablesMatchGoldens).
const (
	// NICRateBps is the NIC serialization rate. With TCP/IP header and ACK
	// overhead this yields roughly the paper's 10.8 MB/s wget throughput.
	NICRateBps = 11_000_000

	// NICResetDelay is how long a NIC RESET takes; a restarted network
	// driver pays this once during reinitialization.
	NICResetDelay = 120 * sim.Time(1e6) // 120ms

	// NICRingFrames is the receive ring's capacity. A confusable card
	// is wedged by a garbage control value with NICWedgeProb, deeply (only
	// a BIOS reset clears it) with NICDeepWedgeProb of those.
	NICRingFrames    = 64
	NICWedgeProb     = 0.5
	NICDeepWedgeProb = 0.25

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

	// The audio codec plays AudioPlayRate bytes/s (44.1 kHz, 16-bit
	// stereo) from an AudioBufSize buffer, asking for a refill below
	// AudioWatermark, and captures AudioInputRate bytes/s into an
	// AudioInputRing-byte ring nobody can read twice (§6.3); it does both
	// once per AudioTick. Only the ticks that can raise an edge or move
	// playback run as events; the rest are applied from the clock when
	// the codec is next read or changed (Audio.sync).
	AudioPlayRate  = 176_400
	AudioBufSize   = 65536
	AudioWatermark = AudioBufSize / 4
	AudioInputRate = 64000
	AudioInputRing = 16 << 10
	AudioTick      = 10 * sim.Time(1e6) // 10ms

	PrinterLineTime = 50 * sim.Time(1e6)  // to print one line
	BurnerMaxStall  = 300 * sim.Time(1e6) // the longest stall a burn survives
	RAMDiskSectors  = 2048                // 1 MiB
)

// FCS computes the frame check sequence the NIC appends on transmit and
// verifies on receive.
func FCS(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
