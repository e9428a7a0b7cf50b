// Command experiments regenerates the paper-reproduction tables listed in
// README.md, "Reproducing the paper's claims".
//
// Usage:
//
//	experiments -list
//	experiments -run all
//	experiments -run E1,E5,E9 -seeds 10
//	experiments -run all -quick          # small sizes (CI-friendly)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"breathe/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		runIDs  = fs.String("run", "", "comma-separated experiment IDs, or 'all'")
		seeds   = fs.Int("seeds", 0, "seeds per configuration (0 = default)")
		quick   = fs.Bool("quick", false, "use reduced sizes")
		format  = fs.String("format", "text", "text | json")
		verbose = fs.Bool("v", false, "print progress while running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list || *runIDs == "" {
		fmt.Fprintln(out, "available experiments:")
		for _, e := range bench.All() {
			fmt.Fprintf(out, "  %-4s %-55s [%s]\n", e.ID, e.Title, e.PaperRef)
			fmt.Fprintf(out, "       expects: %s\n", e.Expectation)
		}
		if *runIDs == "" && !*list {
			fmt.Fprintln(out, "\nrun with: experiments -run all")
		}
		return nil
	}

	var selected []*bench.Experiment
	if *runIDs == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e := bench.ByID(id)
			if e == nil {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	opts := bench.Options{Seeds: *seeds, Quick: *quick}
	if *verbose {
		opts.Log = errOut
	}
	failures := 0
	var jsonReports []bench.JSONReport
	for _, e := range selected {
		rep, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch *format {
		case "text":
			if err := bench.WriteReport(out, e, rep); err != nil {
				return err
			}
		case "json":
			jsonReports = append(jsonReports, bench.ToJSON(e, rep))
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		if !rep.Passed() {
			failures++
		}
	}
	if *format == "json" {
		if err := bench.WriteJSON(out, jsonReports); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) had failing shape checks", failures)
	}
	return nil
}
