// Package rtl8139 implements the RealTek 8139-class Ethernet driver used
// by the Fig. 7 experiment (wget with driver kills). Its control paths —
// reset, receiver enable, transmit kick, receive pop — run as ucode on the
// driver VM, so the fault injector can mutate the running "binary"; bulk
// frame data moves through the NIC's DMA window.
//
// The package is the chip: its control program, the symbol table, and the
// receive-drain loop. Everything a driver does around them — message
// loop, transmit queue, client binding, and the driver half of every
// recovery mechanism — is drvlib's shared Ethernet half (drvlib.Eth).
package rtl8139

import (
	"resilientos/internal/drvlib"
	"resilientos/internal/hw"
	"resilientos/internal/kernel"
	"resilientos/internal/ucode"
)

// src is the driver's control-path program. Results are returned in r1.
const src = `
; RTL8139-class driver control paths.
.entry reset
reset:
	movi r1, BASE
	movi r2, CMDRESET
	out  [r1+REGCMD], r2
	halt

.entry status            ; r1 = status register
status:
	movi r1, BASE
	in   r2, [r1+REGSTATUS]
	mov  r1, r2
	halt

.entry enable            ; enable receiver in promiscuous mode
enable:
	movi r1, BASE
	movi r2, CFGPROMISC
	out  [r1+REGCFG], r2
	in   r3, [r1+REGCFG]
	cmp  r3, r2
	movi r4, 1
	jz   cfgok
	movi r4, 0
cfgok:
	assert r4              ; config readback must match what we wrote
	movi r2, CMDRXEN
	out  [r1+REGCMD], r2
	in   r3, [r1+REGSTATUS]
	andi r3, STENABLED
	assert r3              ; receiver must report enabled
	halt

.entry tx                ; transmit the DMA window; fails if tx busy
tx:
	movi r1, BASE
	in   r2, [r1+REGSTATUS]
	andi r2, STTXBUSY
	cmpi r2, 0
	jnz  txbusy
	movi r2, 1
	out  [r1+REGTXGO], r2
	movi r3, 40            ; tx accounting slot in driver RAM
	ld   r4, [r3+0]
	addi r4, 1
	st   [r3+0], r4
	assert r4              ; counter can never be zero after increment
	movi r1, 1
	halt
txbusy:
	movi r1, 0
	fail

.entry rx                ; pop one received frame; r1 = its length (0 none)
rx:
	movi r1, BASE
	in   r2, [r1+REGRXLEN]
	cmpi r2, 0
	jz   norx
	movi r3, 1
	out  [r1+REGRXPOP], r3
	movi r4, 41            ; rx accounting slot in driver RAM
	ld   r5, [r4+0]
	addi r5, 1
	st   [r4+0], r5
	assert r2              ; popped frame must have nonzero length
	mov  r1, r2
	halt
norx:
	movi r1, 0
	halt
`

// Image assembles the pristine driver binary for a NIC at the given base.
func Image(base uint32) *ucode.Image {
	return ucode.MustAssemble(src, map[string]uint32{
		"BASE":       base,
		"REGCMD":     hw.NICRegCmd,
		"REGSTATUS":  hw.NICRegStatus,
		"REGCFG":     hw.NICRegCfg,
		"REGRXLEN":   hw.NICRegRxLen,
		"REGRXPOP":   hw.NICRegRxPop,
		"REGTXGO":    hw.NICRegTxGo,
		"CMDRESET":   hw.NICCmdReset,
		"CMDRXEN":    hw.NICCmdRxEnable,
		"CFGPROMISC": hw.NICCfgPromisc,
		"STENABLED":  hw.NICStatEnabled,
		"STTXBUSY":   hw.NICStatTxBusy,
	})
}

// Config configures a driver instance factory.
type Config = drvlib.EthConfig

// Binary returns the service binary for this driver. Each (re)start runs
// a fresh copy of the pristine image.
func Binary(cfg Config) func(c *kernel.Ctx) {
	return drvlib.EthBinary(drvlib.EthChip{Name: "rtl8139", Image: Image, Drain: drain}, cfg)
}

// drain pops received frames one per "rx" call until the ring is empty.
func drain(c *kernel.Ctx, e *drvlib.Eth) {
	for e.Call(c, "rx") && e.VM.Regs[1] != 0 && e.Deliver(c) {
	}
}
