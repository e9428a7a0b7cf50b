// Command bench measures the round kernel's throughput trajectory and
// writes it to a JSON artifact (BENCH_kernel.json by default): the
// ns/agent-round cost of the kernel on one worker (serial) and on every
// core (sharded) at a ladder of population sizes. Both replay the same
// addressed draws, so the two cells of one n run the same rounds; only
// the worker count differs.
// The committed BENCH_kernel.json is a full-ladder run, so the kernel
// cost trajectory accumulates across the repository's history instead of
// living only in commit messages; TestBenchWritesWellFormedArtifact
// checks every cell kind a -quick run writes.
//
// The workload is the kernels' design point — every agent pushes a bit
// each round (the shape of the protocol's Stage II) through a BSC — so
// the numbers are comparable across worker counts and scales. Rounds per
// cell are derived from a fixed agent-round budget, keeping every cell's
// wall-clock bounded regardless of n.
//
// Usage:
//
//	bench                          # full ladder: n = 10⁵, 10⁶, 10⁷
//	bench -quick                   # reduced scale: n = 10⁵, 10⁶, smaller budget
//	bench -out BENCH_kernel.json -shards 8
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
	"time"

	"breathe/internal/api"
	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/telemetry"
	"breathe/internal/trace"
)

// chatter is the all-senders benchmark protocol: every agent sends its
// parity bit every round, receptions accumulate in packed counters. It is
// the same workload the checked-in kernel benchmarks use.
type chatter struct {
	rounds int
	acc    []uint64
	zeros  []int32
	ones   []int32
}

func (c *chatter) Name() string { return "bench-chatter" }
func (c *chatter) Setup(n int, _ rng.Key) {
	c.acc = make([]uint64, n)
	c.zeros = c.zeros[:0]
	c.ones = c.ones[:0]
	for a := 0; a < n; a++ {
		if a%2 == 0 {
			c.zeros = append(c.zeros, int32(a))
		} else {
			c.ones = append(c.ones, int32(a))
		}
	}
}
func (c *chatter) Send(a, round int) (channel.Bit, bool) { return channel.Bit(a % 2), true }
func (c *chatter) Receive(a int, b channel.Bit, round int) {
	c.acc[a] += uint64(b)<<32 + 1
}
func (c *chatter) EndRound(int)        {}
func (c *chatter) Done(round int) bool { return round >= c.rounds }
func (c *chatter) Opinion(a int) (channel.Bit, bool) {
	total := c.acc[a] & (1<<32 - 1)
	if total == 0 {
		return 0, false
	}
	if 2*(c.acc[a]>>32) >= total {
		return channel.One, true
	}
	return channel.Zero, true
}

func (c *chatter) BulkSenders(int) ([]int32, []int32) { return c.zeros, c.ones }
func (c *chatter) Accumulators(int) []uint64          { return c.acc }

// sparseChatter is the sparse-activity variant of chatter: of n agents
// only the first k send — the SparseCell workload. With k·16 < n its
// rounds run on the sparse walker.
type sparseChatter struct {
	chatter
	k int
}

func (c *sparseChatter) Name() string { return "bench-sparse-chatter" }
func (c *sparseChatter) Setup(n int, _ rng.Key) {
	// Prefault the accumulator sequentially: the sparse walker touches
	// only ~k random slots per round, so without this the cell measures
	// first-touch page faults scattered across rounds instead of the
	// walker's steady-state cost. A sequential clear faults the whole
	// array in setup, where it belongs.
	if cap(c.acc) >= n {
		c.acc = c.acc[:n]
	} else {
		c.acc = make([]uint64, n)
	}
	clear(c.acc)
	c.zeros = c.zeros[:0]
	c.ones = c.ones[:0]
	for a := 0; a < c.k; a++ {
		if a%2 == 0 {
			c.zeros = append(c.zeros, int32(a))
		} else {
			c.ones = append(c.ones, int32(a))
		}
	}
}
func (c *sparseChatter) Send(a, round int) (channel.Bit, bool) {
	return channel.Bit(a % 2), a < c.k
}

// Cell is one measured (worker count, n) point.
type Cell struct {
	// Kernel names the cell: serial (one worker) or sharded (-shards).
	Kernel          string  `json:"kernel"`
	N               int     `json:"n"`
	Shards          int     `json:"shards"`
	Rounds          int     `json:"rounds"`
	Messages        int64   `json:"messages"`
	Sharded         int64   `json:"sharded_rounds"`
	WallSeconds     float64 `json:"wall_seconds"`
	NsPerAgentRound float64 `json:"ns_per_agent_round"`
	MMsgsPerSec     float64 `json:"mmsgs_per_sec"`
	// PhaseNs decomposes the cell's kernel time by round phase
	// (telemetry.RunProbe billing; schema v4). Regimes that fuse phases
	// bill the fused work to the first phase of the fusion, so tree
	// rounds report most of their time under "collision".
	PhaseNs map[string]int64 `json:"phase_ns"`
}

// SparseCell is the sparse-regime cell (schema v9): k senders in a
// population of n with k·16 < n, so every round runs on the sparse
// walker. The walker's saving over the swept tree is measured by
// BenchmarkKeyedSparseRound's walker=off leg in internal/sim.
type SparseCell struct {
	N int `json:"n"`
	// Senders is the number k of agents the protocol lists every round.
	Senders      int   `json:"senders"`
	Rounds       int   `json:"rounds"`
	SparseRounds int64 `json:"sparse_rounds"`
	// WallSeconds is the whole run, its O(n) setup and final opinion
	// tally included; NsPerRound is the rounds' own time (the run
	// probe's phase total) per round.
	WallSeconds float64 `json:"wall_seconds"`
	NsPerRound  float64 `json:"ns_per_round"`
}

// Report is the artifact schema. Schema v10 dropped v3–v9's async_cell,
// the measurement of the engine's retired quiet-span skipping.
type Report struct {
	Schema     string `json:"schema"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Budget     int64  `json:"agent_round_budget"`
	// WordPath is the path rng's AVX-512 gate chose, "avx512" or
	// "scalar": the path of its bulk word generator and of the tree
	// sweep's per-slot resolve. CPU is the processor's model name
	// (schema v8).
	WordPath string `json:"word_path"`
	CPU      string `json:"cpu"`
	Cells    []Cell `json:"cells"`
	// SparseCell is the sparse-regime walker measurement (schema v5,
	// the walker alone since v9).
	SparseCell *SparseCell `json:"sparse_cell,omitempty"`
}

// cpuModel returns the processor's model name from /proc/cpuinfo, or
// GOARCH where that cannot be read.
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchSparse measures the SparseCell: k senders in a population
// two-and-a-half decades larger (n = 10⁸, k = 10⁴ at full scale), every
// round on the sparse walker, which costs O(k + messages) per round
// against a swept tree's Θ(n) slot scans.
func benchSparse(quick bool, seed uint64, log io.Writer) (*SparseCell, error) {
	n, k, rounds := 100_000_000, 10_000, 200
	if quick {
		n, k, rounds = 1_000_000, 1_000, 40
	}
	probe := telemetry.NewRunProbe()
	cfg, err := api.RunRequest{N: n, Eps: 0.3, Seed: seed, Shards: 1, MaxRounds: 1 << 30}.EngineConfig()
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = probe
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	p := &sparseChatter{chatter: chatter{rounds: rounds}, k: k}
	//breathe:walltime-ok benchmark wall-time measurement
	start := time.Now()
	res := e.Run(p)
	//breathe:walltime-ok benchmark wall-time measurement
	wall := time.Since(start)
	var roundNs int64
	for _, ns := range probe.PhaseNanos() {
		roundNs += ns
	}
	cell := &SparseCell{
		N: n, Senders: k, Rounds: res.Rounds, SparseRounds: res.Paths.Sparse,
		WallSeconds: wall.Seconds(),
		NsPerRound:  float64(roundNs) / float64(res.Rounds),
	}
	fmt.Fprintf(log, "sparse n=%d k=%d: %d rounds (%d sparse)  %.2fs  %.0f ns/round\n",
		cell.N, cell.Senders, cell.Rounds, cell.SparseRounds, cell.WallSeconds, cell.NsPerRound)
	return cell, nil
}

func parseNs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad population size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(args []string, log io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		out    = fs.String("out", "BENCH_kernel.json", "output artifact path")
		quick  = fs.Bool("quick", false, "reduced scale (smaller ladder and budget)")
		nsFlag = fs.String("ns", "", "comma-separated population sizes (overrides the ladder)")
		budget = fs.Int64("budget", 0, "agent-rounds per cell (0 = 2e8, quick 2e7)")
		shards = fs.Int("shards", 0, "sharded-kernel workers (0 = all cores)")
		seed   = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ns := []int{100_000, 1_000_000, 10_000_000}
	if *quick {
		ns = []int{100_000, 1_000_000}
	}
	if *nsFlag != "" {
		var err error
		if ns, err = parseNs(*nsFlag); err != nil {
			return err
		}
	}
	b := *budget
	if b == 0 {
		b = 200_000_000
		if *quick {
			b = 20_000_000
		}
	}

	rep := Report{
		Schema:     "breathe-bench-kernel/v10",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		Budget:     b,
		WordPath:   rng.WordPath(),
		CPU:        cpuModel(),
	}
	fmt.Fprintf(log, "cpu %s, GOMAXPROCS %d, word path %s\n", rep.CPU, rep.GoMaxProcs, rep.WordPath)
	kernels := []struct {
		name   string
		shards int
	}{
		{"serial", 1},
		{"sharded", *shards},
	}
	// One probe serves every cell (Reset between runs). Its clock reads at
	// phase boundaries are part of the measured wall time — a handful of
	// monotonic reads per round, noise at these budgets.
	probe := telemetry.NewRunProbe()
	phaseNames := telemetry.PhaseNames()
	phaseTable := trace.NewTable("phase decomposition (% of kernel wall time)",
		append([]string{"kernel", "n"}, phaseNames[:]...)...)
	for _, n := range ns {
		for _, k := range kernels {
			// Equal work per cell: rounds × n ≈ the budget for every n, so
			// ns/agent-round figures are comparable across the ladder. Only
			// a floor is applied (populations larger than the budget still
			// get a few rounds).
			rounds := int(b / int64(n))
			if rounds < 3 {
				rounds = 3
			}
			probe.Reset()
			cfg, err := api.RunRequest{N: n, Eps: 0.3, Seed: *seed, Shards: k.shards, MaxRounds: 1 << 30}.EngineConfig()
			if err != nil {
				return err
			}
			cfg.Telemetry = probe
			e, err := sim.NewEngine(cfg)
			if err != nil {
				return err
			}
			p := &chatter{rounds: rounds}
			//breathe:walltime-ok benchmark wall-time measurement
			start := time.Now()
			res := e.Run(p)
			//breathe:walltime-ok benchmark wall-time measurement
			wall := time.Since(start)
			agentRounds := float64(n) * float64(res.Rounds)
			phaseNs := probe.PhaseNanos()
			phases := make(map[string]int64, len(phaseNames))
			var phaseTotal int64
			for i, name := range phaseNames {
				phases[name] = phaseNs[i]
				phaseTotal += phaseNs[i]
			}
			cell := Cell{
				Kernel:          k.name,
				N:               n,
				Shards:          k.shards,
				Rounds:          res.Rounds,
				Messages:        res.MessagesSent,
				Sharded:         res.Paths.Sharded,
				WallSeconds:     wall.Seconds(),
				NsPerAgentRound: float64(wall.Nanoseconds()) / agentRounds,
				MMsgsPerSec:     float64(res.MessagesSent) / wall.Seconds() / 1e6,
				PhaseNs:         phases,
			}
			rep.Cells = append(rep.Cells, cell)
			row := []string{k.name, strconv.Itoa(n)}
			for i := range phaseNames {
				pct := 0.0
				if phaseTotal > 0 {
					pct = 100 * float64(phaseNs[i]) / float64(phaseTotal)
				}
				row = append(row, fmt.Sprintf("%.1f", pct))
			}
			phaseTable.AddRow(row...)
			fmt.Fprintf(log, "%-9s n=%-9d rounds=%-4d %7.2f ns/agent-round  %8.1f M msgs/s  sharded-rounds=%d\n",
				cell.Kernel, n, cell.Rounds, cell.NsPerAgentRound, cell.MMsgsPerSec, cell.Sharded)
		}
	}
	if err := phaseTable.WriteText(log); err != nil {
		return err
	}

	sc, err := benchSparse(*quick, *seed, log)
	if err != nil {
		return err
	}
	rep.SparseCell = sc

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %s (%d cells)\n", *out, len(rep.Cells))
	return nil
}
