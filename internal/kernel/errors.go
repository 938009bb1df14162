package kernel

import "errors"

// IPC and kernel-call errors. Names follow the MINIX error conditions they
// model.
var (
	// ErrDeadDst is returned when sending to a dead or stale endpoint
	// (MINIX EDEADSRCDST on the send side).
	ErrDeadDst = errors.New("kernel: destination endpoint dead or stale")

	// ErrSrcDied aborts a Receive (or the reply leg of SendRec) because the
	// awaited source died (MINIX EDEADSRCDST on the receive side). This is
	// the signal the file server uses to mark requests pending.
	ErrSrcDied = errors.New("kernel: awaited source died")

	// ErrNotAllowed is returned when the caller's privileges do not permit
	// the IPC target or kernel call.
	ErrNotAllowed = errors.New("kernel: operation not permitted")

	// ErrBadGrant is returned for invalid, revoked, or out-of-bounds grant
	// access.
	ErrBadGrant = errors.New("kernel: bad grant")

	// ErrBadPort is returned for device port access outside the caller's
	// granted ranges or with no device mapped.
	ErrBadPort = errors.New("kernel: bad device port")

	// ErrDying is returned for kernel calls from a process that is being
	// torn down.
	ErrDying = errors.New("kernel: process is dying")

	// ErrNoSlot is returned when the process table is full.
	ErrNoSlot = errors.New("kernel: process table full")
)
