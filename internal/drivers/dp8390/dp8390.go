// Package dp8390 implements the DP8390 (NE2000-class) Ethernet driver —
// the target of the paper's §7.2 fault-injection campaign ("targeted the
// DP8390 Ethernet driver and repeatedly injected 1 randomly selected fault
// into the running driver until it crashed").
//
// Compared to the RTL8139 driver, its control program keeps more state in
// driver RAM (mirroring the real chip's ring pointers) and uses more
// loops, consistency asserts, and pointer arithmetic — the raw material
// binary-level faults act on: a garbled pointer lands out of RAM bounds
// (MMU exception), a failed assert panics the driver, and an inverted
// loop condition spins until the step budget marks the driver stuck
// (caught by heartbeats).
//
// Like rtl8139 the package is only the chip — control program, symbol
// table, planted state block, receive-drain loop; the rest of the driver
// is drvlib's shared Ethernet half (drvlib.Eth).
package dp8390

import (
	"resilientos/internal/drvlib"
	"resilientos/internal/hw"
	"resilientos/internal/kernel"
	"resilientos/internal/ucode"
)

// Driver RAM layout (word addresses).
const (
	ramBnry    = 8  // boundary pointer (last page the host consumed)
	ramCurr    = 9  // current page the card writes next
	ramRxCount = 10 // frames delivered to the host
	ramTxCount = 11 // frames handed to the card
	ramCanary  = 12 // state canary; corruption is a driver panic
	ramPageLog = 16 // log of popped frames, indexed per drain loop
)

// canaryMagic is the state canary value planted at reset.
const canaryMagic = 0x5A3C

// nPages is the simulated ring size in pages.
const nPages = 16

// src is the control program. Results in r1. The structure is tuned so
// that injected binary faults manifest the way they do in real driver
// code: most faults either trip one of the driver's own consistency
// checks (panic) or garble a pointer/computed address (MMU exception);
// only loops that touch no memory can spin silently until the heartbeat
// monitor notices.
const src = `
; DP8390-class driver control paths.
.entry reset
reset:
	movi r1, BASE
	movi r2, CMDRESET
	out  [r1+REGCMD], r2
	movi r2, 0              ; ring pointers restart at page 0
	movi r3, BNRY
	st   [r3+0], r2
	movi r3, CURR
	st   [r3+0], r2
	movi r2, MAGIC          ; plant the state canary
	movi r3, CANARY
	st   [r3+0], r2
	halt

; canary: every routine validates the driver-state canary first, the way
; real drivers panic on corrupted state.
canary:
	movi r9, CANARY
	ld   r10, [r9+0]
	cmpi r10, MAGIC
	movi r11, 1
	jz   canaryok
	movi r11, 0
canaryok:
	assert r11             ; driver state block is corrupt
	ret

.entry status            ; r1 = status register
status:
	call canary
	movi r1, BASE
	in   r2, [r1+REGSTATUS]
	mov  r3, r2
	shri r3, 6
	cmpi r3, 0
	movi r4, 1
	jz   stok
	movi r4, 0
stok:
	assert r4              ; reserved status bits must read zero
	mov  r1, r2
	halt

.entry enable
enable:
	call canary
	movi r1, BASE
	movi r2, CFGPROMISC
	out  [r1+REGCFG], r2
	in   r3, [r1+REGCFG]
	cmp  r3, r2
	movi r4, 1
	jz   cfgok
	movi r4, 0
cfgok:
	assert r4              ; config readback must match
	movi r2, CMDRXEN
	out  [r1+REGCMD], r2
	in   r3, [r1+REGSTATUS]
	andi r3, STENABLED
	assert r3              ; receiver must come up
	in   r3, [r1+REGSTATUS]
	andi r3, STCONFUSED
	cmpi r3, 0
	movi r4, 1
	jz   sane
	movi r4, 0
sane:
	assert r4              ; card must not be wedged after init
	halt

.entry tx
tx:
	call canary
	movi r1, BASE
	in   r2, [r1+REGSTATUS]
	mov  r3, r2
	shri r3, 6
	cmpi r3, 0
	movi r4, 1
	jz   txstok
	movi r4, 0
txstok:
	assert r4              ; reserved status bits must read zero
	andi r2, STTXBUSY
	cmpi r2, 0
	jnz  txbusy
	movi r2, 1
	out  [r1+REGTXGO], r2
	movi r3, TXCOUNT
	ld   r4, [r3+0]
	addi r4, 1
	st   [r3+0], r4
	ld   r5, [r3+0]
	cmp  r5, r4
	movi r6, 1
	jz   txacct
	movi r6, 0
txacct:
	assert r6              ; accounting readback must match
	assert r4              ; counter cannot be zero after increment
	movi r1, 1
	halt
txbusy:
	movi r1, 0
	fail

; rxdrain pops up to 8 frames, advancing the software ring pointers the
; way the real chip's BNRY/CURR dance works. r1 = frames popped. Each
; iteration logs into the page log indexed by the loop counter, so a
; runaway loop walks off the state block and faults instead of spinning.
.entry rxdrain
rxdrain:
	call canary
	movi r6, 0             ; popped count
	movi r7, 8             ; drain budget per interrupt
drainloop:
	cmp  r6, r7
	jge  drained
	movi r1, BASE
	in   r2, [r1+REGRXLEN]
	cmpi r2, 0
	jz   drained
	movi r3, 1
	out  [r1+REGRXPOP], r3
	assert r2              ; popped frame must have a length
	cmpi r2, 1519
	movi r3, 1
	jlt  lenok
	movi r3, 0
lenok:
	assert r3              ; frame cannot exceed wire MTU
	; log the pop, indexed by the loop counter (bounds-checked, like a
	; defensive C driver's array guard)
	movi r5, PAGELOG
	add  r5, r6
	cmpi r5, 1024
	movi r3, 1
	jlt  logok
	movi r3, 0
logok:
	assert r3              ; log index within the state block
	st   [r5+0], r2
	; advance boundary pointer modulo NPAGES
	movi r3, BNRY
	ld   r4, [r3+0]
	addi r4, 1
	cmpi r4, NPAGES
	jlt  nowrap
	movi r4, 0
nowrap:
	st   [r3+0], r4
	; program the card's boundary register, like the real chip requires —
	; a garbled value here is what wedges real hardware
	movi r5, BASE
	out  [r5+REGBNRY], r4
	movi r5, NPAGES
	cmp  r4, r5
	movi r2, 1
	jlt  bnryok
	movi r2, 0
bnryok:
	assert r2              ; bnry must remain a valid page index
	movi r3, RXCOUNT
	ld   r4, [r3+0]
	addi r4, 1
	st   [r3+0], r4
	addi r6, 1
	jmp  drainloop
drained:
	mov  r1, r6
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
		"REGBNRY":    hw.NICRegBnry,
		"CMDRESET":   hw.NICCmdReset,
		"CMDRXEN":    hw.NICCmdRxEnable,
		"CFGPROMISC": hw.NICCfgPromisc,
		"STENABLED":  hw.NICStatEnabled,
		"STTXBUSY":   hw.NICStatTxBusy,
		"STCONFUSED": hw.NICStatConfused,
		"BNRY":       ramBnry,
		"CANARY":     ramCanary,
		"MAGIC":      canaryMagic,
		"CURR":       ramCurr,
		"RXCOUNT":    ramRxCount,
		"TXCOUNT":    ramTxCount,
		"PAGELOG":    ramPageLog,
		"NPAGES":     nPages,
	})
}

// Config configures a driver instance factory.
type Config = drvlib.EthConfig

// Binary returns the service binary for this driver.
func Binary(cfg Config) func(c *kernel.Ctx) {
	return drvlib.EthBinary(drvlib.EthChip{Name: "dp8390", Image: Image, Plant: plantState, Drain: drain}, cfg)
}

// plantState seeds the software state block a fresh (zeroed) VM needs to
// pass its own consistency checks: the canary and ring pointers that the
// "reset" routine normally plants. An instance that takes the card over
// without a reset (promotion, microreboot) starts from it — the block
// lived in the dead VM, not in the card.
func plantState(vm *ucode.VM) {
	vm.RAM[ramCanary] = canaryMagic
	vm.RAM[ramBnry] = 0
	vm.RAM[ramCurr] = 0
}

// drain pops received frames in "rxdrain" batches of up to 8.
func drain(c *kernel.Ctx, e *drvlib.Eth) {
	for rounds := 0; ; rounds++ {
		if rounds > 32 {
			// A (faulty) drain that always claims a full batch would spin
			// here forever: that is a wedged interrupt handler, observable
			// only through missed heartbeats.
			drvlib.Stuck(c)
		}
		if !e.Call(c, "rxdrain") {
			return
		}
		popped := int(e.VM.Regs[1])
		// rxdrain pops register-side; the DMA window holds the frames in
		// pop order, so collect one per pop in lockstep.
		for i := 0; i < popped && e.Deliver(c); i++ {
		}
		if popped < 8 {
			return
		}
	}
}
