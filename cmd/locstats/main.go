// Command locstats regenerates the paper's Fig. 9: source code statistics
// on the total code base and the reengineering effort specific to recovery,
// expressed in lines of executable code. Blank lines and comments are
// omitted, matching the paper's sclc.pl methodology; recovery-specific
// lines are the ones this code base marks with "// [recovery]" comments or
// [recovery:begin]/[recovery:end] regions.
//
//	locstats            # the Fig. 9 component table
//	locstats -all       # per-package totals for the whole repository
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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
	fs := flag.NewFlagSet("locstats", flag.ContinueOnError)
	all := fs.Bool("all", false, "also list every package's size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := moduleRoot(".")
	if err != nil {
		return err
	}
	rows, err := table(root)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Fig. 9: reengineering effort specific to recovery (executable LoC)")
	fmt.Fprintln(stdout, "(paper: RS 30%, DS 15%, VFS 5%, FS <1%, drivers ~5 lines, PM and kernel 0)")
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, render(rows))

	if *all {
		fmt.Fprintln(stdout, "\nAll packages (code / comment / blank):")
		totals, err := totalsByPackage(root)
		if err != nil {
			return err
		}
		var total lineCount
		for _, name := range sortedNames(totals) {
			c := totals[name]
			fmt.Fprintf(stdout, "  %-32s %6d %6d %6d\n", name, c.Code, c.Comment, c.Blank)
			total.add(c)
		}
		fmt.Fprintf(stdout, "  %-32s %6d %6d %6d\n", "TOTAL", total.Code, total.Comment, total.Blank)
	}
	return nil
}
