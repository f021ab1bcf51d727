// Command odpbench runs the evaluation suite: the constructed
// experiments E1–E16 of EXPERIMENTS.md, each keyed to a claim of "The
// Challenge of ODP". It prints one table per experiment.
//
// Usage:
//
//	odpbench            # run everything at full size
//	odpbench -quick     # reduced iteration counts
//	odpbench -run E1,E6 # selected experiments only
//
// Performance claims are arbitrated by the repo benchmark instead
// (`bash benchmark/run.sh`, `odpload -compare`; see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"odp/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	flag.Parse()
	if err := runAll(*quick, *run); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runAll(quick bool, filter string) error {
	selected := make(map[string]bool)
	if filter != "" {
		for _, id := range strings.Split(filter, ",") {
			selected[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	for _, exp := range bench.All() {
		if len(selected) > 0 && !selected[exp.ID] {
			continue
		}
		fmt.Printf("=== %s — %s\n", exp.ID, exp.Title)
		fmt.Printf("    claim: %s\n\n", exp.Claim)
		start := time.Now()
		rows, err := exp.Run(quick)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Print(bench.Format(rows))
		fmt.Printf("\n    (%s in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
