// Printfarm: the paper's §6.3 character-device story. Character streams
// cannot be recovered transparently, so failures are pushed to the
// application layer:
//
//   - a recovery-aware printer daemon redoes failed jobs (duplicates
//     possible, loss not);
//   - an MP3 player keeps playing through failures at the cost of hiccups;
//   - a CD burn ruined by a mid-burn failure must be reported to the user.
package main

import (
	"fmt"
	"time"

	"resilientos"
)

func main() {
	sys := resilientos.New(resilientos.Config{DisableNet: true, DisableDisk: true})
	defer sys.Close()
	sys.Run(time.Second)

	jobs := []string{"invoice-01", "invoice-02", "invoice-03", "invoice-04", "invoice-05"}
	var lpd resilientos.LpdResult
	sys.Lpd(jobs, &lpd)

	var mp3 resilientos.Mp3Result
	sys.Mp3(30, &mp3)

	var burn resilientos.BurnResult
	sys.Burn(512<<10, &burn)

	// The crash schedule: the printer dies twice, audio once, and the
	// burner once mid-burn.
	for _, when := range []time.Duration{400 * time.Millisecond, 900 * time.Millisecond} {
		sys.After(when, func() { sys.KillDriver(resilientos.DriverPrinter) })
	}
	sys.After(4*time.Second, func() { sys.KillDriver(resilientos.DriverAudio) })
	sys.After(300*time.Millisecond, func() { sys.KillDriver(resilientos.DriverBurner) }) // mid-burn

	sys.Run(2 * time.Minute)

	fmt.Println("=== lpd (recovery-aware: redoes failed jobs) ===")
	fmt.Printf("jobs submitted: %d/%d, driver failures ridden out: %d\n",
		lpd.Submitted, len(jobs), lpd.Errors)
	printed := map[string]int{}
	for _, l := range sys.Machine.Printer.Output {
		printed[l]++
	}
	for _, j := range jobs {
		dup := ""
		if printed[j] > 1 {
			dup = fmt.Sprintf("  (printed %d times — duplicate after recovery)", printed[j])
		}
		fmt.Printf("  %-12s on paper: %v%s\n", j, printed[j] > 0, dup)
	}

	fmt.Println("\n=== mp3 player (keeps playing; hiccups possible) ===")
	fmt.Printf("bytes played: %d, driver failures ridden out: %d, audible hiccups: %d\n",
		mp3.FedBytes, mp3.Errors, sys.Machine.Audio.Underruns)

	fmt.Println("\n=== cd burner (unrecoverable: the user must be told) ===")
	if burn.Err != nil {
		fmt.Printf("burn failed, reported to user: %v\n", burn.Err)
	} else {
		fmt.Printf("disc ok: %v\n", burn.DiscOK)
	}
	fmt.Println("\nrecovery log:")
	for _, e := range sys.RS.Events() {
		fmt.Printf("  [%8v] %-12s defect=%v recovered=%v\n",
			e.Time.Round(time.Millisecond), e.Label, e.Defect, e.Recovered)
	}
}
