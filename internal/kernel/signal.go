package kernel

import "fmt"

// Signal is a POSIX-flavored signal number. Only the signals the recovery
// architecture uses are defined.
type Signal int

// Signals used by the recovery procedure.
const (
	SIGTERM Signal = 15 // polite shutdown request (dynamic update, §6)
	SIGKILL Signal = 9  // forced kill (crash simulation, unresponsive driver)
	SIGSEGV Signal = 11 // MMU exception
	SIGILL  Signal = 4  // CPU exception
	SIGCHLD Signal = 17 // child status change, PM -> RS
)

func (s Signal) String() string {
	switch s {
	case SIGTERM:
		return "SIGTERM"
	case SIGKILL:
		return "SIGKILL"
	case SIGSEGV:
		return "SIGSEGV"
	case SIGILL:
		return "SIGILL"
	case SIGCHLD:
		return "SIGCHLD"
	default:
		return fmt.Sprintf("SIG(%d)", int(s))
	}
}

// deliverSignal posts sig to the target. SIGKILL (and any signal a system
// process cannot catch) terminates immediately; catchable signals are
// queued and announced with a System notification so the target's message
// loop can fetch them with SigPending.
func (k *Kernel) deliverSignal(d *procEntry, sig Signal) {
	switch sig {
	case SIGKILL:
		k.kill(d, Cause{Kind: CauseSignal, Signal: SIGKILL})
	default:
		d.sigPending = append(d.sigPending, sig)
		k.notifyEntry(d, System)
	}
}
