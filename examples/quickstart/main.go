// Quickstart: boot the failure-resilient OS, read a file while the disk
// driver is killed mid-transfer, and watch the system recover without the
// application noticing — the paper's §6.2 in thirty lines.
package main

import (
	"fmt"
	"time"

	"resilientos"
)

func main() {
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
			fmt.Println("  >> SIGKILL disk.sata (I/O in progress)")
			sys.KillDriver(resilientos.DriverSATA)
		}
	})

	sys.Run(5 * time.Minute)

	fmt.Printf("\nread %d MB in %v of virtual time (%.1f MB/s), err=%v\n",
		dd.Bytes>>20, dd.Duration.Round(time.Millisecond),
		float64(dd.Bytes)/dd.Duration.Seconds()/1e6, dd.Err)
	fmt.Printf("SHA-1: %x\n\n", dd.SHA1)

	fmt.Println("recovery log:")
	for _, e := range sys.RS.Events() {
		fmt.Printf("  [%8v] %s: defect=%v, transparently recovered=%v\n",
			e.Time.Round(time.Millisecond), e.Label, e.Defect, e.Recovered)
	}
	st := sys.MFS.Stats()
	fmt.Printf("\nfile server: %d driver calls, %d failed and were reissued — "+
		"the application saw none of it\n", st.DriverCalls, st.Reissues)
}
