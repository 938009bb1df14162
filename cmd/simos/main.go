// Command simos boots the full failure-resilient OS, runs a mixed
// workload (TCP download, disk reads, printing, audio), kills drivers on a
// schedule, and prints the reincarnation server's recovery log — a
// five-minute tour of the paper's architecture in one command. With
// -trace it also writes the run's lifecycle and recovery events as a JSONL
// trace (summarize it with tracestat).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"resilientos"
	"resilientos/internal/obs"
	"resilientos/internal/policy"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simos", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	trace := fs.String("trace", "", "write the run's lifecycle and recovery events to this JSONL file (summarize with tracestat)")
	minutes := fs.Int("minutes", 2, "virtual minutes to simulate")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The paper's Fig. 2 generic policy script guards the network drivers.
	generic := policy.MustParse(policy.Fig2)

	cfg := resilientos.Config{
		Seed:            *seed,
		NetPolicy:       generic,
		NetPolicyParams: []string{"-a", "operator@localhost"},
		PreallocFiles:   []resilientos.PreallocFile{{Name: "bigdata", Size: 64 << 20}},
	}
	traceDone := func() error { return nil }
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		js := obs.NewJSONLSink(bw)
		cfg.Obs = obs.NewRecorder(js)
		// Per-message IPC and request spans would make a tour's trace
		// hundreds of MB; figures -trace captures those for short runs.
		cfg.Obs.Disable(append([]obs.Kind{obs.KindIPCSend, obs.KindIPCRecv}, obs.SpanKinds...)...)
		traceDone = func() error {
			if err := errors.Join(js.Err(), bw.Flush(), f.Close()); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\ntrace written to %s\n", *trace)
			return nil
		}
	}
	sys := resilientos.New(cfg)
	defer sys.Close()

	fmt.Fprintln(stdout, "booting: microkernel, PM, DS, RS, INET, MFS, VFS, 7 drivers ...")
	sys.Run(3 * time.Second)

	// Workloads.
	sys.ServeFile(80, *seed, 256<<20)
	var wget resilientos.WgetResult
	sys.Wget(resilientos.DriverRTL8139, 80, *seed, 256<<20, &wget)
	var dd resilientos.DdResult
	sys.Dd("/bigdata", 64<<10, &dd)
	var lpd resilientos.LpdResult
	sys.Lpd([]string{"report-1", "report-2", "report-3", "report-4"}, &lpd)
	var mp3 resilientos.Mp3Result
	sys.Mp3(*minutes*60, &mp3)

	// The crash scheduler: different drivers at different cadences.
	sys.Every(5*time.Second, func() { sys.KillDriver(resilientos.DriverRTL8139) })
	sys.Every(7*time.Second, func() { sys.KillDriver(resilientos.DriverSATA) })
	sys.Every(11*time.Second, func() { sys.KillDriver(resilientos.DriverPrinter) })
	sys.Every(13*time.Second, func() { sys.KillDriver(resilientos.DriverAudio) })

	end := sys.Run(time.Duration(*minutes) * time.Minute)
	fmt.Fprintf(stdout, "\nsimulated %v of operation\n\n", end)

	fmt.Fprintln(stdout, "=== recovery log (reincarnation server) ===")
	for _, e := range sys.RS.Events() {
		fmt.Fprintf(stdout, "[%10v] %-14s defect=%-10v repetition=%d recovered=%v (%v)\n",
			e.Time.Round(time.Millisecond), e.Label, e.Defect, e.Repetition, e.Recovered,
			e.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(stdout, "\n=== failure alerts (policy script 'mail') ===\n")
	for _, a := range sys.RS.Alerts() {
		fmt.Fprintf(stdout, "[%10v] to %s: %s\n", a.Time.Round(time.Millisecond), a.To, a.Subject)
	}

	fmt.Fprintf(stdout, "\n=== workload outcomes ===\n")
	wgetState := fmt.Sprintf("ok=%v", wget.OK)
	if wget.Duration == 0 && wget.Err == nil {
		wgetState = "still in progress at cutoff"
	}
	fmt.Fprintf(stdout, "wget: %d bytes, %s, err=%v\n", wget.Bytes, wgetState, wget.Err)
	fmt.Fprintf(stdout, "dd:   %d bytes, err=%v\n", dd.Bytes, dd.Err)
	fmt.Fprintf(stdout, "lpd:  %d jobs printed, rode out %d driver failures\n", lpd.Submitted, lpd.Errors)
	fmt.Fprintf(stdout, "mp3:  %d bytes played, rode out %d driver failures, %d audible hiccups\n",
		mp3.FedBytes, mp3.Errors, sys.Machine.Audio.Underruns)
	fmt.Fprintf(stdout, "printer output lines: %d (duplicates possible after recovery)\n",
		len(sys.Machine.Printer.Output))
	return traceDone()
}
