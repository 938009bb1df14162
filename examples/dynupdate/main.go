// Dynupdate: the paper's defect class 6 — dynamically update a device
// driver to a new version while I/O is in progress ("most other operating
// systems cannot dynamically replace active drivers on the fly like we
// do"). The read continues across the update; no backoff delay applies.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"resilientos"
	"resilientos/internal/core"
)

func main() { run(os.Stdout) }

// run plays the scene and prints its outcome to w.
func run(w io.Writer) {
	sys := resilientos.New(resilientos.Config{
		DisableNet:    true,
		DisableChar:   true,
		PreallocFiles: []resilientos.PreallocFile{{Name: "bigdata", Size: 48 << 20}},
	})
	defer sys.Close()
	sys.Run(3 * time.Second)

	var dd resilientos.DdResult
	sys.Dd("/bigdata", 64<<10, &dd)

	// Update the SATA driver to "v2" half a second into the transfer.
	sys.After(500*time.Millisecond, func() {
		fmt.Fprintf(w, "  >> service update disk.sata (I/O in progress, %d MB read)\n", dd.Bytes>>20)
		sys.UpdateDriver(core.ServiceConfig{Label: resilientos.DriverSATA, Version: "v2"})
	})

	sys.Run(5 * time.Minute)

	fmt.Fprintf(w, "\ndd finished: %d MB, err=%v, SHA-1 %x...\n", dd.Bytes>>20, dd.Err, dd.SHA1[:6])
	for _, e := range sys.RS.Events() {
		fmt.Fprintf(w, "[%8v] %s: defect=%v (class %d), repetition=%d — no backoff for updates\n",
			e.Time.Round(time.Millisecond), e.Label, e.Defect, int(e.Defect), e.Repetition)
	}
}
