// Quickstart: boot the failure-resilient OS, read a file while the disk
// driver is killed mid-transfer, and watch the system recover without the
// application noticing — the paper's §6.2 in thirty lines.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"resilientos"
)

func main() { run(os.Stdout) }

// run plays the scene and prints its outcome to w.
func run(w io.Writer) {
	sys := resilientos.New(resilientos.Config{
		DisableNet:    true,
		DisableChar:   true,
		PreallocFiles: []resilientos.PreallocFile{{Name: "bigdata", Size: 32 << 20}},
	})
	defer sys.Close()

	// dd if=/bigdata | sha1sum
	var dd resilientos.DdResult
	sys.Dd("/bigdata", 64<<10, &dd)

	// Murder the disk driver every second while the read runs.
	sys.Every(time.Second, func() {
		if dd.Duration == 0 {
			fmt.Fprintln(w, "  >> SIGKILL disk.sata (I/O in progress)")
			sys.KillDriver(resilientos.DriverSATA)
		}
	})

	sys.Run(5 * time.Minute)

	fmt.Fprintf(w, "\nread %d MB in %v of virtual time (%.1f MB/s), err=%v\n",
		dd.Bytes>>20, dd.Duration.Round(time.Millisecond),
		float64(dd.Bytes)/dd.Duration.Seconds()/1e6, dd.Err)
	fmt.Fprintf(w, "SHA-1: %x\n\n", dd.SHA1)

	fmt.Fprintln(w, "recovery log:")
	for _, e := range sys.RS.Events() {
		fmt.Fprintf(w, "  [%8v] %s: defect=%v, transparently recovered=%v\n",
			e.Time.Round(time.Millisecond), e.Label, e.Defect, e.Recovered)
	}
	st := sys.MFS.Stats()
	fmt.Fprintf(w, "\nfile server: %d driver calls, %d failed and were reissued — "+
		"the application saw none of it\n", st.DriverCalls, st.Reissues)
}
