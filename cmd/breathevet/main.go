// breathevet is the determinism vettool: a multichecker over the
// analyzers in internal/lint that proves the invariants the kernels
// rely on — no wall clock or ambient randomness in the deterministic
// core (walltime), no map-iteration order in canonical bytes
// (maprange), every keyed draw addressed through a registered stream
// with no colliding call sites (streamconst), //breathe:drawfree
// contracts enforced over the static callgraph (drawfree), and the
// observability invariants — internal/telemetry stays a leaf package
// (the static byte-inertness proof) and every wall-clock read outside
// it carries a //breathe:walltime-ok reason (telemetry) — and the
// kernels' //breathe:leaf loops stay call-free (leafloop).
//
// Two modes share the analyzers:
//
//	breathevet ./...                    # standalone: load, check, report
//	go vet -vettool=$(which breathevet) ./...   # unitchecker protocol
//
// Standalone mode runs `go list -export` itself and analyzes test
// builds too (disable with -tests=false). Vettool mode speaks the go
// command's per-package .cfg protocol, including fact (vetx) files, so
// `go vet` caching and test-variant handling apply.
//
// Exit status: 0 clean, 1 diagnostics (standalone), 2 diagnostics
// (vettool, matching the convention go vet expects), 3 usage or load
// failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"breathe/internal/lint"
	"breathe/internal/lint/drawfree"
	"breathe/internal/lint/leafloop"
	"breathe/internal/lint/maprange"
	"breathe/internal/lint/streamconst"
	"breathe/internal/lint/telemetry"
	"breathe/internal/lint/walltime"
)

// analyzers is the suite, in reporting order.
var analyzers = []*lint.Analyzer{
	walltime.Analyzer,
	maprange.Analyzer,
	streamconst.Analyzer,
	drawfree.Analyzer,
	telemetry.Analyzer,
	leafloop.Analyzer,
}

func main() {
	// The go command probes its vettool before use: -V=full must print
	// a version fingerprint, -flags the supported flag set. Handle both
	// before normal flag parsing so they compose with any invocation.
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			fmt.Printf("breathevet version %s\n", buildFingerprint())
			return
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return
		}
	}

	tests := flag.Bool("tests", true, "also analyze test builds (standalone mode)")
	dir := flag.String("C", ".", "directory to load packages from (standalone mode)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: breathevet [-tests=false] [-C dir] [package patterns]\n")
		fmt.Fprintf(os.Stderr, "       go vet -vettool=$(which breathevet) ./...\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	args := flag.Args()

	// The go command invokes a vettool with a single *.cfg argument per
	// package; that file, not the flags, carries the whole unit of work.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0], analyzers))
	}

	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Main(*dir, *tests, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
