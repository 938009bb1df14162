package kernel

import "resilientos/internal/obs"

// Message is the fixed-shape IPC unit, modeled on MINIX's small fixed-size
// messages: a type tag, a few scalar arguments, an optional grant reference
// for bulk data, and an inline payload used where real MINIX would use a
// grant for brevity's sake (network frames, read replies). The kernel fills
// in Source on delivery.
type Message struct {
	Source Endpoint
	Type   int32

	// Trace is the causal trace context the message carries. When
	// observability is on, the kernel stamps the sender's ambient context
	// here at Send (unless the sender set one explicitly) and the receiver
	// adopts it as its own ambient context on delivery; notifications are
	// always context-free. With a nil recorder the field stays zero and
	// costs nothing.
	Trace obs.SpanContext

	// Scalar arguments; meaning depends on Type (like MINIX's m1_i1 etc.).
	Arg1, Arg2, Arg3, Arg4 int64

	// Grant is a memory grant in the *sender's* grant table that the
	// receiver may access via SafeCopy while handling this request.
	Grant GrantID

	// Name carries a short string argument (device names, labels).
	Name string

	// Payload is inline data. The slice is handed over, not copied. A
	// bulk payload — a frame, a file- or socket-read reply — changes
	// owner with the message: the sender must not touch it again, and
	// the last receiver puts it back on the free list (Ctx.Bufs) once it
	// has copied the bytes out. A request's payload (data to write or
	// send, a data-store record) is only lent: the receiver copies what it
	// keeps before it replies.
	Payload []byte
}

// Message types used by the kernel itself. Servers and drivers define their
// own protocol types in higher packages; kernel-reserved values are negative
// to stay out of their way.
const (
	// MsgNotify is a notification; Source tells who sent it. For Hardware
	// notifications Arg1 holds the pending-IRQ bitmask; for System
	// notifications the pending signals must be fetched with SigPending.
	MsgNotify int32 = -100
)
