package kernel

// Call identifies a kernel call class for privilege checking, mirroring the
// per-process kernel call masks MINIX 3 enforces (principle of least
// authority, paper §4).
type Call int

// Kernel call classes.
const (
	CallSafeCopy Call = iota + 1 // copy via grants between address spaces
	CallDevIO                    // device port I/O
	CallIRQCtl                   // IRQ policy/enable/disable
	CallAlarm                    // clock alarms
	CallKill                     // send signals to other processes
	CallSpawn                    // create system processes
	CallPrivCtl                  // assign privileges (reincarnation server)
	CallExit                     // voluntary exit (all processes)
)

// PortRange is a half-open range [Lo, Hi) of device I/O ports.
type PortRange struct {
	Lo, Hi uint32
}

// Contains reports whether the range covers port p.
func (r PortRange) Contains(p uint32) bool { return p >= r.Lo && p < r.Hi }

// Privileges is the isolation policy for one system process: which
// components it may talk to, which kernel calls it may make, which I/O
// ports and IRQ lines it may touch, and whether it may file complaints
// about other components (paper §4, §5.1). The zero value permits nothing.
//
// A Privileges value is immutable once handed to Spawn: the kernel keeps
// it as given, shares its slices with every instance spawned from it, and
// writes none of them; the caller must not write them either. Derive a
// variant from a Clone.
type Privileges struct {
	// IPCTo lists the stable component labels this process may send to.
	// Nil means "may send to anything" is NOT implied; an empty list blocks
	// all sends. Use AllowAllIPC for trusted servers.
	IPCTo []string

	// AllowAllIPC lifts the IPC target restriction (used by the trusted
	// core servers: PM, RS, DS).
	AllowAllIPC bool

	// Calls lists the permitted kernel call classes.
	Calls []Call

	// Ports lists the device port ranges the process may access.
	Ports []PortRange

	// IRQs lists the IRQ lines the process may subscribe to.
	IRQs []int

	// MayComplain authorizes reporting malfunctioning components to the
	// reincarnation server (e.g. the file server complaining about a disk
	// driver that violates the protocol).
	MayComplain bool

	// UID is the unprivileged user ID system processes run under.
	UID int
}

// Clone returns a deep copy, whose slices can be written without
// touching the original's.
func (pr Privileges) Clone() Privileges {
	cp := pr
	cp.IPCTo = append([]string(nil), pr.IPCTo...)
	cp.Calls = append([]Call(nil), pr.Calls...)
	cp.Ports = append([]PortRange(nil), pr.Ports...)
	cp.IRQs = append([]int(nil), pr.IRQs...)
	return cp
}

func (pr *Privileges) allowsCall(c Call) bool {
	if c == CallExit {
		return true
	}
	for _, have := range pr.Calls {
		if have == c {
			return true
		}
	}
	return false
}

func (pr *Privileges) allowsIPCTo(label string) bool {
	if pr.AllowAllIPC {
		return true
	}
	for _, l := range pr.IPCTo {
		if l == label {
			return true
		}
	}
	return false
}

func (pr *Privileges) allowsPort(p uint32) bool {
	for _, r := range pr.Ports {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

func (pr *Privileges) allowsIRQ(line int) bool {
	for _, l := range pr.IRQs {
		if l == line {
			return true
		}
	}
	return false
}
