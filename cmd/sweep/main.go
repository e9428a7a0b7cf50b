// Command sweep runs full-scenario parameter grids — the paper's figures
// as an instrument. A sweep is a cross-product over the api.RunRequest
// scenario space: protocol ∈ {broadcast, consensus, async-offsets,
// async-selfsync} × population sizes × ε values × crash probabilities,
// with -seeds replications per cell (cell runs use seeds -seed ..
// -seed+-seeds-1 and are bit-for-bit reproducible).
//
// Cells execute through internal/sweep on either backend:
//
//   - locally (default) on a service.Service engine pool — engines reused
//     via Reset, identical requests single-flighted, results cached by
//     canonical config hash;
//   - remotely (-remote url[,url...]) against live breathed instances,
//     round-robin; results are the daemon's stored canonical bytes, so a
//     remote sweep is bit-identical to a local one, cell for cell.
//
// -checkpoint FILE writes a JSON checkpoint atomically as cells complete;
// an interrupted sweep rerun with -resume serves every checkpointed run
// from the file and recomputes nothing already finished. The final output
// is byte-identical either way.
//
// Usage:
//
//	sweep -ns 1024,4096,16384 -epss 0.2,0.3,0.45 -seeds 5 > results.csv
//	sweep -protocol broadcast,async-offsets,async-selfsync -ns 1024,4096 -crash 0,0.01
//	sweep -ns 65536 -epss 0.3 -seeds 20 -workers 8 -seed 100
//	sweep -ns 10000000 -epss 0.3 -seeds 1 -workers 1 -shards 0   # one huge cell, intra-run sharding
//	sweep -remote http://host:8344 -checkpoint grid.ckpt -resume -json grid.json
//
// -workers spreads a sweep's runs over cores (engine-pool size locally,
// client concurrency remotely); -shards additionally parallelizes
// *within* each run (sim.Config.Shards). Sharding never changes results.
// With -shards 0 (auto) the core budget is divided: each of the -workers
// concurrent runs gets cores/workers shard workers, so the two knobs
// compose instead of multiplying into workers × cores goroutines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"breathe/internal/service"
	"breathe/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		protoFlag = fs.String("protocol", "broadcast", "comma-separated protocols (broadcast | consensus | async-offsets | async-selfsync)")
		nsFlag    = fs.String("ns", "1024,4096", "comma-separated population sizes")
		epssFlag  = fs.String("epss", "0.2,0.3", "comma-separated ε values")
		crashFlag = fs.String("crash", "0", "comma-separated crash probabilities (agent 0 protected)")
		seeds     = fs.Int("seeds", 5, "seeds per cell")
		baseSeed  = fs.Uint64("seed", 0, "base seed: a cell runs seeds seed..seed+seeds-1")
		kernel    = fs.String("kernel", "auto", "kernel for every cell: auto | batched | per-agent")
		workers   = fs.Int("workers", 0, "concurrent runs: engine-pool size locally, client concurrency remotely (0 = all cores)")
		shards    = fs.Int("shards", 0, "intra-run sharded-kernel workers per engine (0 = auto: the core budget divided by -workers, so the knobs compose instead of multiplying)")
		remote    = fs.String("remote", "", "comma-separated breathed base URLs; empty = run locally")
		ckptPath  = fs.String("checkpoint", "", "JSON checkpoint file, rewritten atomically as cells complete")
		resume    = fs.Bool("resume", false, "serve runs already in -checkpoint instead of recomputing them")
		jsonPath  = fs.String("json", "", "also write the machine-readable sweep.Result artifact to this file")
		abort     = fs.Int("abort-after", 0, "deterministically interrupt the sweep after this many cells (testing/CI: simulates a mid-grid kill; > 0 suppresses the table output)")
		format    = fs.String("format", "csv", "csv | table | markdown")
		quiet     = fs.Bool("q", false, "suppress per-cell progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	protocols := strings.Split(*protoFlag, ",")
	for i := range protocols {
		protocols[i] = strings.TrimSpace(protocols[i])
	}
	ns, err := parseInts(*nsFlag)
	if err != nil {
		return err
	}
	epss, err := parseFloats(*epssFlag)
	if err != nil {
		return err
	}
	crashes, err := parseFloats(*crashFlag)
	if err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("need at least one seed")
	}
	switch *format {
	case "csv", "table", "markdown":
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	if *abort > 0 && *ckptPath == "" {
		// An interruption without a checkpoint would silently discard the
		// completed cells — there would be nothing to resume from.
		return fmt.Errorf("-abort-after needs -checkpoint")
	}

	cores := runtime.GOMAXPROCS(0)
	conc := *workers
	if conc <= 0 {
		conc = cores
	}
	// The shard budget split is a *local* concern: locally -workers
	// engine-pool workers and the per-run shard workers share this
	// machine's cores. Remotely -workers is client-side concurrency and
	// this machine's core count says nothing about the server's; pass the
	// explicit -shards through verbatim (0 = let each server auto-size).
	shardsEff := *shards
	if *remote == "" {
		shardsEff = sweep.EffectiveShards(*workers, *shards, cores)
	}
	spec := sweep.Spec{
		Protocols:  protocols,
		Ns:         ns,
		Epss:       epss,
		CrashProbs: crashes,
		Seeds:      *seeds,
		BaseSeed:   *baseSeed,
		Kernel:     *kernel,
		Shards:     shardsEff,
	}
	// Fail grid errors (unknown protocol, n < 2, ε out of range…) before
	// standing up a backend.
	if _, err := spec.Cells(); err != nil {
		return err
	}

	var runner sweep.Runner
	if *remote != "" {
		runner, err = sweep.NewRemoteRunner(strings.Split(*remote, ","), nil)
		if err != nil {
			return err
		}
	} else {
		svc := service.New(service.Config{Workers: conc, QueueDepth: conc})
		defer svc.Close()
		runner = sweep.NewLocalRunner(svc)
	}

	opts := sweep.Options{
		Checkpoint:      *ckptPath,
		Resume:          *resume,
		Concurrency:     conc,
		AbortAfterCells: *abort,
	}
	if !*quiet {
		opts.Progress = func(completed, total int, cell sweep.Cell, src sweep.Counters) {
			fmt.Fprintf(errOut, "sweep: cell %d/%d %s (computed %d, cache %d, checkpoint %d)\n",
				completed, total, cell.Key(), src.Computed, src.CacheHits, src.CheckpointHits)
		}
	}
	res, err := sweep.Run(spec, runner, opts)
	if err != nil {
		return err
	}
	c := res.Counters
	fmt.Fprintf(errOut, "sweep: %d/%d cells, %d runs: computed %d, cache %d, checkpoint %d\n",
		res.CompletedCells, res.TotalCells,
		c.Computed+c.CacheHits+c.CheckpointHits, c.Computed, c.CacheHits, c.CheckpointHits)

	if *jsonPath != "" {
		raw, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if res.Interrupted {
		// A partial grid must not masquerade as the sweep's output; the
		// checkpoint carries the completed cells to the resuming run.
		fmt.Fprintf(errOut, "sweep: interrupted after %d cells (resume with -checkpoint %s -resume)\n",
			res.CompletedCells, *ckptPath)
		return nil
	}
	tb := res.Table()
	switch *format {
	case "csv":
		return tb.WriteCSV(out)
	case "table":
		return tb.WriteText(out)
	default:
		return tb.WriteMarkdown(out)
	}
}
