// Policylab: policy-driven recovery (§5.2) and post-restart state
// recovery (§5.3) in one scene.
//
//   - A crash-looping driver is guarded by the paper's Fig. 2 generic
//     policy script: binary exponential backoff between restarts and a
//     failure alert mailed to the operator.
//   - A *stateful* service backs its counter up in the data store and
//     retrieves it after every crash, authenticated by its stable name —
//     the mechanism the paper says exists for servers even though device
//     drivers don't need it.
package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"resilientos"
	"resilientos/internal/core"
	"resilientos/internal/kernel"
	"resilientos/internal/policy"
	"resilientos/internal/proto"
)

func main() {
	sys := resilientos.New(resilientos.Config{
		DisableNet:  true,
		DisableDisk: true,
		DisableChar: true,
	})
	defer sys.Close()

	// --- Scene 1: Fig. 2 policy script guarding a crash-looping service.
	generic := policy.MustParse(`
component=$1
reason=$2
repetition=$3
shift 3
if [ ! $reason -eq 6 ]; then
	sleep $((1 << ($repetition - 1)))
fi
service restart $component
status=$?
while getopts a: option; do
	case $option in
	a)
		cat << END | mail -s "Failure Alert" "$OPTARG"
failure: $component, $reason, $repetition
restart status: $status
END
		;;
	esac
done
`)
	sys.RS.StartService(core.ServiceConfig{
		Label: "flaky",
		Binary: func(c *kernel.Ctx) {
			c.Sleep(200 * time.Millisecond)
			c.Panic("synthetic bug")
		},
		Priv:         kernel.Privileges{AllowAllIPC: true},
		Policy:       generic,
		PolicyParams: []string{"-a", "ops@example.org"},
		MaxRestarts:  4,
	})

	// --- Scene 2: a stateful service that survives its own crashes by
	// checkpointing into the data store.
	dsEp := sys.DSEp
	var lastCounter int64
	sys.RS.StartService(core.ServiceConfig{
		Label: "counter",
		Binary: func(c *kernel.Ctx) {
			// Retrieve the backup (empty on first boot).
			var count int64
			reply, err := c.SendRec(dsEp, kernel.Message{Type: proto.DSRetrieve, Name: "count"})
			if err == nil && reply.Arg2 == proto.OK && len(reply.Payload) == 8 {
				count = int64(binary.LittleEndian.Uint64(reply.Payload))
				c.Logf("recovered counter state: %d", count)
			}
			for {
				c.Sleep(100 * time.Millisecond)
				count++
				lastCounter = count
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, uint64(count))
				_, _ = c.SendRec(dsEp, kernel.Message{Type: proto.DSStore, Name: "count", Payload: buf})
			}
		},
		Priv: kernel.Privileges{AllowAllIPC: true},
	})
	// Kill the counter twice; its state must carry across instances.
	sys.After(2*time.Second, func() { sys.KillDriver("counter") })
	sys.After(4*time.Second, func() { sys.KillDriver("counter") })

	sys.Run(90 * time.Second)

	fmt.Println("=== recovery log ===")
	for _, e := range sys.RS.Events() {
		fmt.Printf("[%8v] %-8s defect=%-10v repetition=%d recovered=%v gaveUp=%v\n",
			e.Time.Round(time.Millisecond), e.Label, e.Defect, e.Repetition, e.Recovered, e.GaveUp)
	}
	fmt.Println("\n=== alerts mailed by the policy script ===")
	for _, a := range sys.RS.Alerts() {
		fmt.Printf("[%8v] to %s: %q\n", a.Time.Round(time.Millisecond), a.To, a.Subject)
	}
	fmt.Printf("\ncounter after two kills: %d (state recovered from the data store;\n", lastCounter)
	fmt.Println("a fresh instance without recovery would have restarted from ~20)")
}
