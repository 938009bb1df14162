// Faultstorm: a compact §7.2 fault-injection campaign — mutate the running
// DP8390 driver's binary one randomly drawn fault at a time and watch the
// reincarnation server classify and repair every crash. The paper's
// single-system run is a one-cell campaign matrix.
package main

import (
	"fmt"
	"os"

	"resilientos"
	"resilientos/internal/campaign"
	"resilientos/internal/fi"
)

func main() {
	fmt.Print("injecting 2,000 binary faults into the running DP8390 driver...\n\n")
	campaign.Run(campaign.Config{
		Seeds:         []int64{7},
		Victims:       []string{resilientos.DriverDP8390},
		FaultTypes:    []fi.FaultType{fi.FaultRandom},
		FaultsPerCell: 2000,
	}).Render(os.Stdout)
	fmt.Println("\n(compare the paper's §7.2: 65% panic / 31% exception / 4% heartbeat, 100% recovery)")
}
