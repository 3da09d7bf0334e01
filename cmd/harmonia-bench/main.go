// Command harmonia-bench regenerates the paper's evaluation artifacts:
// every table and figure of the motivation (§2) and evaluation (§5)
// sections, printed as labelled series and tables.
//
// Usage:
//
//	harmonia-bench            # run everything
//	harmonia-bench -list      # list experiment IDs
//	harmonia-bench -run fig10a,fig18b
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"harmonia/internal/bench"
)

// csver is implemented by figures and tables.
type csver interface{ CSV() string }

// writeCSV stores an experiment's data as <dir>/<id>.csv.
func writeCSV(dir, id string, out fmt.Stringer) error {
	c, ok := out.(csver)
	if !ok {
		return fmt.Errorf("%s: output has no CSV form", id)
	}
	return os.WriteFile(filepath.Join(dir, id+".csv"), []byte(c.CSV()), 0o644)
}

func main() {
	os.Exit(run(os.Stdout, os.Args[1:]))
}

// run parses args, runs the selected experiments and prints each to w;
// errors go to stderr. It returns the process exit code.
func run(w io.Writer, args []string) int {
	fs := flag.NewFlagSet("harmonia-bench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	ids := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	ablations := fs.Bool("ablations", false, "also run the design-choice ablations")
	csvDir := fs.String("csv", "", "also write each experiment as <dir>/<id>.csv")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(w, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var selected []bench.Experiment
	if *ids == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, err := bench.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		out, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Fprintln(w, out.String())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.ID, out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed++
			}
		}
	}
	if *ablations {
		tab, err := bench.Ablations()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablations:", err)
			failed++
		} else {
			fmt.Fprintln(w, tab.String())
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
