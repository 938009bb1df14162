// Webfetch: the paper's Fig. 7 scenario at example scale — wget a file
// from "the Internet" over TCP while the Ethernet driver is repeatedly
// killed; TCP retransmission plus the reincarnation server mask every
// failure and the MD5 checksum still matches.
package main

import (
	"fmt"
	"time"

	"resilientos"
)

func main() {
	const size = 48 << 20
	const seed = 42

	sys := resilientos.New(resilientos.Config{
		Seed:        seed,
		DisableDisk: true,
		DisableChar: true,
	})
	defer sys.Close()
	sys.Run(3 * time.Second) // boot

	sys.ServeFile(80, seed, size)
	var res resilientos.WgetResult
	sys.Wget(resilientos.DriverRTL8139, 80, seed, size, &res)

	kills := 0
	sys.Every(2*time.Second, func() {
		if res.Duration == 0 && res.Err == nil {
			kills++
			fmt.Printf("  >> SIGKILL eth.rtl8139 (kill #%d, %d MB received so far)\n",
				kills, res.Bytes>>20)
			sys.KillDriver(resilientos.DriverRTL8139)
		}
	})

	sys.Run(10 * time.Minute)

	fmt.Printf("\nwget: %d MB in %v (%.1f MB/s) across %d driver kills\n",
		res.Bytes>>20, res.Duration.Round(time.Millisecond),
		float64(res.Bytes)/res.Duration.Seconds()/1e6, kills)
	fmt.Printf("MD5 matches original: %v\n", res.OK)
	st := sys.LocalInet.Stats()
	fmt.Printf("network server: %d frames out, %d dropped while the driver was dead,\n",
		st.FramesOut, st.FramesDropped)
	fmt.Printf("                %d channel reintegrations after restarts\n", st.ChannelRestarts)
}
