// Package proto defines the message protocol numbers and encodings shared
// by the servers and drivers of the simulated OS — the analogue of MINIX's
// <minix/com.h>. Each subsystem owns a hundreds-range of message types.
package proto

// Process manager (PM) protocol.
const (
	// PMExitEvent: PM -> RS (async). A system process died.
	// Name = label, Arg1 = endpoint, Arg2 = CauseKind, Arg3 = status or
	// signal number, Arg4 = exception type.
	PMExitEvent int32 = 100 + iota
	// 101 is retired (nothing sent it); the blank keeps the numbers
	// after it, which every IPC trace event records.
	_
	// PMSubscribe: RS registers for exit events. Reply: PMAck.
	PMSubscribe
	// PMAck: generic PM reply. Arg1 = 0 on success, else error code.
	PMAck
)

// Data store (DS) protocol.
const (
	// DSPublish: publish Name -> endpoint (Arg1). Authorized publishers
	// only (the reincarnation server). Reply: DSAck.
	DSPublish int32 = 200 + iota
	// DSWithdraw: remove Name from the naming table. Reply: DSAck.
	DSWithdraw
	// 202 is retired (nothing sent it); the blank keeps the numbers
	// after it, which every IPC trace event records.
	_
	// DSSubscribe: Name = glob pattern ("eth.*"); current matches are
	// replayed as DSUpdate messages. Reply: DSAck.
	DSSubscribe
	// DSUpdate: DS -> subscriber (async). Name = published name,
	// Arg1 = new endpoint (InvalidEndpoint when withdrawn).
	DSUpdate
	// DSStore: back up private state. Name = key, Payload = bytes. The
	// record is bound to the caller's stable label. Reply: DSAck.
	DSStore
	// DSRetrieve: fetch private state by key. Reply: DSAck with Payload.
	// Only the owning label may retrieve (authentication by stable name,
	// paper §5.3).
	DSRetrieve
	// DSAck: generic DS reply. Arg2 = 0 on success, else error code.
	DSAck
	// DSFailover: atomically republish Name -> endpoint (Arg1) during a
	// standby promotion. Authorized publishers only; refused (ErrExist)
	// when the currently published endpoint is still a live process —
	// a name never has two live owners. Reply: DSAck.
	DSFailover
)

// Reincarnation server (RS) protocol.
const (
	// RSPing: RS -> driver heartbeat request (async).
	RSPing int32 = 300 + iota
	// RSPong: driver -> RS heartbeat reply (async).
	RSPong
	// RSRestart: request a restart of service Name (used by policy
	// scripts' `service restart`). Reply: RSAck.
	RSRestart
	// RSStop: stop service Name (SIGTERM then SIGKILL). Reply: RSAck.
	RSStop
	// RSUpdate: a policy script's `service update Name`. A message
	// cannot name a new binary, so RS refuses it: RSAck with ErrBadCall.
	// Dynamic updates (defect class 6) go through core.RS.UpdateService.
	RSUpdate
	// RSComplain: an authorized server reports a malfunctioning component
	// (defect class 5). Name = accused label. Reply: RSAck.
	RSComplain
	// RSReboot: policy script requested a whole-system reboot.
	RSReboot
	// RSAck: generic RS reply. Arg1 = 0 on success, else error code.
	RSAck
	// RSPromote: RS -> standby replica (async): take over service Name.
	// The replica attaches to the device and starts serving.
	RSPromote
	// RSMicroAsk: driver -> RS: my ucode VM faulted (defect class Arg1);
	// may I microreboot it in place? Reply: RSAck with Arg1 = OK to
	// proceed, else the driver must fall back to dying (full respawn).
	RSMicroAsk
	// RSMicroDone: driver -> RS (async): the in-place microreboot
	// completed and the driver is serving again.
	RSMicroDone
)

// Ethernet driver protocol (network server <-> driver).
const (
	// EthConf: configure the driver (promiscuous mode etc.), Arg1 = flags.
	// Reply: EthAck.
	EthConf int32 = 400 + iota
	// EthSend: transmit Payload as one frame. Reply: EthAck (accepted).
	EthSend
	// EthRecv: driver -> network server (async): a frame arrived
	// (Payload).
	EthRecv
	// EthAck: driver reply. Arg1 = 0 on success, else error code.
	EthAck
)

// EthConfPromisc enables promiscuous mode in EthConf's Arg1 flags.
const EthConfPromisc int64 = 1

// Block device driver protocol (file server <-> driver).
const (
	// BdevOpen: open minor device Arg1. Reply: BdevReply.
	BdevOpen int32 = 500 + iota
	// BdevRead: read Arg2 sectors at LBA Arg1 into the caller's Grant.
	// Reply: BdevReply with Arg1 = bytes read.
	BdevRead
	// BdevWrite: write Arg2 sectors at LBA Arg1 from the caller's Grant.
	// Reply: BdevReply with Arg1 = bytes written.
	BdevWrite
	// BdevReply: driver reply. Arg1 = result (>= 0 bytes, < 0 error).
	BdevReply
)

// Character device driver protocol (VFS/app <-> driver).
const (
	// ChrOpen: open the device. Reply: ChrReply.
	ChrOpen int32 = 600 + iota
	// ChrWrite: write Payload to the output stream. Reply: ChrReply with
	// Arg1 = bytes accepted.
	ChrWrite
	// ChrRead: read up to Arg1 bytes. Reply: ChrReply with Payload.
	ChrRead
	// ChrIoctl: device-specific control. Arg1 = op, Arg2 = arg.
	// Reply: ChrReply.
	ChrIoctl
	// ChrReply: driver reply. Arg1 = result (>= 0 count, < 0 error).
	ChrReply
)

// Character device ioctl operations.
const (
	// ChrIoctlBurnBegin starts a CD burn of Arg2 total bytes.
	ChrIoctlBurnBegin int64 = 2
	// ChrIoctlBurnFinish finalizes a burn; reply Arg1 = 1 if disc is good.
	ChrIoctlBurnFinish int64 = 3
)

// Network server (INET) socket protocol (applications <-> inet).
const (
	// TCPConnect: open a TCP connection to remote port Arg1.
	// Reply: SockReply with Arg1 = socket id.
	TCPConnect int32 = 700 + iota
	// TCPListen: listen on local port Arg1. Reply: SockReply = socket id.
	TCPListen
	// TCPAccept: accept on listening socket Arg1 (blocks).
	// Reply: SockReply = connected socket id.
	TCPAccept
	// TCPSend: send Payload on socket Arg1. Reply: SockReply = bytes
	// queued.
	TCPSend
	// TCPRecv: receive up to Arg2 bytes from socket Arg1 (blocks).
	// Reply: SockReply with Payload; Arg1 = 0 on orderly close.
	TCPRecv
	// TCPClose: close socket Arg1. Reply: SockReply.
	TCPClose
	// 706 and 707 are retired (UDPSend, UDPRecv: nothing sent them);
	// the blanks keep the numbers after them, which every IPC trace
	// event records.
	_
	_
	// SockReply: INET reply. Arg1 = result (>= 0 ok, < 0 error code).
	SockReply
)

// File system protocol (applications <-> VFS, VFS <-> MFS).
const (
	// FSOpen: open path Name. Reply: FSReply = fd (from MFS to VFS: the
	// inode, Arg2 = size, Arg3 = 1 for a directory).
	FSOpen int32 = 800 + iota
	// FSRead: read Arg2 bytes at offset Arg3 from fd Arg1.
	// Reply: FSReply with Payload.
	FSRead
	// FSWrite: write Payload at offset Arg3 to fd Arg1.
	// Reply: FSReply = bytes written.
	FSWrite
	// FSClose: close fd Arg1. Reply: FSReply.
	FSClose
	// FSCreate: create file Name. Reply: FSReply = fd.
	FSCreate
	// 805, 806, 808 and 809 are retired (FSUnlink, FSStat, FSMkdir,
	// FSReaddir: nothing sent them), as 807 was before them; the blanks
	// keep the numbers after them, which every IPC trace event records.
	_
	_
	_
	_
	_
	// FSIoctl: device-specific control on fd Arg1 (VFS routes to the
	// character driver). Arg2 = op, Arg3 = arg. Reply: FSReply.
	FSIoctl
	// FSReply: reply. Arg1 = result (>= 0 ok, < 0 error code).
	FSReply
)

// Result codes carried in reply Arg fields (negative = error).
const (
	OK int64 = 0
	// ErrNotFound: no such name/file/socket.
	ErrNotFound int64 = -1
	// ErrPerm: caller not authorized.
	ErrPerm int64 = -2
	// ErrIO: device I/O failed (driver dead; retried transparently where
	// idempotent, pushed up otherwise).
	ErrIO int64 = -3
	// ErrBadCall: malformed request.
	ErrBadCall int64 = -4
	// ErrAgain: transient failure; retry later.
	ErrAgain int64 = -5
	// ErrClosed: socket/fd closed.
	ErrClosed int64 = -6
	// ErrExist: file already exists.
	ErrExist int64 = -7
	// ErrNoSpace: file system full.
	ErrNoSpace int64 = -8
)

// InvalidEndpoint is the Arg1 value in DSUpdate when a name is withdrawn.
const InvalidEndpoint int64 = -1

// CauseKind values carried in PMExitEvent.Arg2 (mirror kernel.CauseKind
// without importing it; proto stays dependency-free).
const (
	CauseExit      int64 = 1
	CauseSignal    int64 = 2
	CauseException int64 = 3
)
