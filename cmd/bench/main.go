// Command bench measures the round kernels' throughput trajectory and
// writes it to a JSON artifact (BENCH_kernel.json by default): the
// ns/agent-round cost of per-agent collection, the single-worker batched
// kernel and the sharded kernel at a ladder of population sizes. The
// kernels replay the same addressed draws, so every cell of one n runs
// the same rounds; only the mechanism and the worker count differ.
// CI runs it at reduced scale (-quick) on every push and uploads the
// artifact, so the kernel cost trajectory accumulates across the
// repository's history instead of living only in commit messages.
//
// The workload is the kernels' design point — every agent pushes a bit
// each round (the shape of the protocol's Stage II) through a BSC — so
// the numbers are comparable across kernels and scales. Rounds per cell
// are derived from a fixed agent-round budget, keeping every cell's
// wall-clock bounded regardless of n.
//
// Usage:
//
//	bench                          # full ladder: n = 10⁵, 10⁶, 10⁷
//	bench -quick                   # CI scale: n = 10⁵, 10⁶, smaller budget
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

	"breathe/internal/async"
	"breathe/internal/channel"
	"breathe/internal/core"
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

func (c *chatter) BulkEnabled() bool                  { return true }
func (c *chatter) BulkSenders(int) ([]int32, []int32) { return c.zeros, c.ones }
func (c *chatter) BulkAccumulate(int) bool            { return true }
func (c *chatter) BulkAccumulators() []uint64         { return c.acc }
func (c *chatter) BulkDeliver(rs []int32, bs []channel.Bit, _ int) {
	for i, a := range rs {
		c.acc[a] += uint64(bs[i])<<32 + 1
	}
}

// sparseChatter is the sparse-activity variant of chatter: of n agents
// only the first k send — the SparseCell workload. It declares no sender
// index, so its rounds run on the dense tree; indexedChatter declares
// the same k ≪ n senders and so runs them on the sparse walker.
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
	// array in setup, where it belongs, for both executors alike.
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

// indexedChatter is sparseChatter with its sender set declared.
type indexedChatter struct{ sparseChatter }

// ActiveSenders implements sim.SenderIndex: k declared senders per round.
func (c *indexedChatter) ActiveSenders(int) int { return c.k }

// Cell is one measured (kernel, n) point.
type Cell struct {
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
	// (telemetry.RunProbe billing; schema v4). Kernels that fuse phases
	// bill the fused work to the first phase of the fusion, so dense
	// cells report most of their time under "collision".
	PhaseNs map[string]int64 `json:"phase_ns"`
}

// AsyncCell is the async-heavy quiet-span cell: one quiet-dominated
// selfsync scenario executed twice — quiet-span skipping on (the default)
// and off — on the per-agent collection mechanism, whose Θ(n) sender scans are what the dilation gaps cost
// without the skip. The crash plan thins the message traffic (the
// robustness scenario the sweep grids also exercise) and routes every
// scan through the failure filter, so the cell also covers the
// crash-boundary capping at speed.
type AsyncCell struct {
	Protocol    string  `json:"protocol"`
	Kernel      string  `json:"kernel"`
	N           int     `json:"n"`
	Eps         float64 `json:"eps"`
	PreludeLen  int     `json:"prelude_len"`
	CrashProb   float64 `json:"crash_prob"`
	Rounds      int     `json:"rounds"`
	QuietRounds int64   `json:"quiet_rounds"`
	QuietSpans  int64   `json:"quiet_spans"`
	WallSkipOn  float64 `json:"wall_seconds_skip_on"`
	WallSkipOff float64 `json:"wall_seconds_skip_off"`
	// Speedup is WallSkipOff / WallSkipOn. The full-scale budget for the
	// committed artifact is ≥ 10.
	Speedup float64 `json:"quiet_skip_speedup"`
	// Identical reports that both executions produced the same sim.Result
	// — the skip path's bit-identity contract, asserted here so a
	// regression fails the artifact, not just the test suite.
	Identical bool `json:"results_identical"`
}

// SparseCell is the sparse-regime cell (schema v5): one sparse-activity
// scenario — k senders in a population of n with k·64 < n — executed
// twice: with the sender set declared (sim.SenderIndex), so the
// event-driven sparse walker runs it, and undeclared, so the dense tree
// does. Both executors must produce the same sim.Result up to the regime
// counters; the speedup is the Θ(n)-round-floor saving the walker buys.
type SparseCell struct {
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	// ActiveSenders is the declared sender-set size k of every round.
	ActiveSenders int   `json:"active_senders"`
	Rounds        int   `json:"rounds"`
	SparseRounds  int64 `json:"sparse_rounds"`
	// Wall and per-round figures for each executor over the same rounds.
	WallTree         float64 `json:"wall_seconds_tree"`
	WallSparse       float64 `json:"wall_seconds_sparse"`
	TreeNsPerRound   float64 `json:"tree_ns_per_round"`
	SparseNsPerRound float64 `json:"sparse_ns_per_round"`
	// Speedup is TreeNsPerRound / SparseNsPerRound. The full-scale budget
	// for the committed artifact is ≥ 10.
	Speedup float64 `json:"sparse_speedup"`
	// Identical reports that both executors produced the same sim.Result
	// apart from Paths — the walker's bit-identity contract, asserted here
	// so a regression fails the artifact, not just the test suite.
	Identical bool `json:"results_identical"`
}

// Report is the artifact schema.
type Report struct {
	Schema     string `json:"schema"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Budget     int64  `json:"agent_round_budget"`
	Cells      []Cell `json:"cells"`
	// AsyncCell is the quiet-span skipping measurement (schema v3).
	AsyncCell *AsyncCell `json:"async_cell,omitempty"`
	// SparseCell is the sparse-regime walker measurement (schema v5).
	SparseCell *SparseCell `json:"sparse_cell,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchAsync measures the quiet-span AsyncCell: a dilation-amplified
// selfsync run (prelude L far above the standard 3·log₂ n, so the
// inter-phase gaps dominate the schedule) with 80% initial crash faults,
// executed with skipping on and off. Quick mode shrinks the scenario;
// the ≥10× budget applies to the full-scale committed artifact.
func benchAsync(quick bool, seed uint64, log io.Writer) (*AsyncCell, error) {
	n, prelude := 20_000, 12_000
	if quick {
		n, prelude = 4_096, 1_200
	}
	const eps, crashProb = 0.45, 0.8

	cell := &AsyncCell{
		Protocol: "breathe-async-selfsync", Kernel: "per-agent",
		N: n, Eps: eps, PreludeLen: prelude, CrashProb: crashProb,
	}
	var onRes, offRes sim.Result
	for _, noskip := range []bool{false, true} {
		params := core.DefaultParams(n, eps)
		p, err := async.NewSelfSync(params, channel.One, prelude)
		if err != nil {
			return nil, err
		}
		cfg := sim.Config{
			N: n, Channel: channel.FromEpsilon(eps), Seed: seed,
			AllowSelfMessages: true,
			Kernel:            sim.KernelPerAgent, Shards: 1, MaxRounds: 1 << 30,
			Failures: sim.NewRandomCrashes(n, crashProb, 0, rng.NewKey(seed), 0),
		}
		if noskip {
			// An observer without a declared cadence makes the engine
			// execute every round.
			cfg.Observer = func(int, *sim.Engine) {}
		}
		e, err := sim.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		//breathe:walltime-ok benchmark wall-time measurement
		start := time.Now()
		res := e.Run(p)
		//breathe:walltime-ok benchmark wall-time measurement
		wall := time.Since(start).Seconds()
		if noskip {
			offRes = res
			cell.WallSkipOff = wall
		} else {
			onRes = res
			cell.WallSkipOn = wall
			cell.Rounds = res.Rounds
			cell.QuietRounds = res.Paths.Quiet
			cell.QuietSpans = e.QuietSpans()
		}
	}
	cell.Speedup = cell.WallSkipOff / cell.WallSkipOn
	cell.Identical = onRes == offRes
	fmt.Fprintf(log, "async selfsync n=%d L=%d crash=%.1f: %d rounds (%d quiet, %d spans)  skip on %.2fs / off %.2fs  %.1fx  identical=%v\n",
		cell.N, cell.PreludeLen, cell.CrashProb, cell.Rounds, cell.QuietRounds, cell.QuietSpans,
		cell.WallSkipOn, cell.WallSkipOff, cell.Speedup, cell.Identical)
	return cell, nil
}

// benchSparse measures the SparseCell: k senders in a population
// two-and-a-half decades larger (n = 10⁸, k = 10⁴ at full scale), run
// once with the sender set declared, so the sparse walker executes every
// round, and once undeclared, so the dense tree does. The draws are the
// same; only the executor changes, and with it the per-round cost:
// O(k + messages) against the tree's Θ(n) slot scans.
func benchSparse(quick bool, seed uint64, log io.Writer) (*SparseCell, error) {
	// 200 rounds at full scale: enough for the walker's steady state —
	// ~k random accumulator touches per round — to dominate the one-time
	// setup (prefault, engine arrays), which wall/rounds bills to both
	// executors alike.
	n, k, rounds := 100_000_000, 10_000, 200
	if quick {
		n, k, rounds = 1_000_000, 1_000, 40
	}
	cell := &SparseCell{
		Kernel: "auto", N: n, ActiveSenders: k,
	}
	var treeRes, sparseRes sim.Result
	for _, walker := range []bool{true, false} {
		e, err := sim.NewEngine(sim.Config{
			N: n, Channel: channel.NewBSC(0.2), Seed: seed,
			AllowSelfMessages: true, Shards: 1, MaxRounds: 1 << 30,
		})
		if err != nil {
			return nil, err
		}
		var p sim.Protocol = &sparseChatter{chatter: chatter{rounds: rounds}, k: k}
		if walker {
			p = &indexedChatter{sparseChatter{chatter: chatter{rounds: rounds}, k: k}}
		}
		//breathe:walltime-ok benchmark wall-time measurement
		start := time.Now()
		res := e.Run(p)
		//breathe:walltime-ok benchmark wall-time measurement
		wall := time.Since(start)
		perRound := float64(wall.Nanoseconds()) / float64(res.Rounds)
		if walker {
			sparseRes = res
			cell.Rounds = res.Rounds
			cell.SparseRounds = res.Paths.Sparse
			cell.WallSparse = wall.Seconds()
			cell.SparseNsPerRound = perRound
		} else {
			treeRes = res
			cell.WallTree = wall.Seconds()
			cell.TreeNsPerRound = perRound
		}
	}
	cell.Speedup = cell.TreeNsPerRound / cell.SparseNsPerRound
	// Only the regime counters may differ: they name the executor.
	treeRes.Paths = sparseRes.Paths
	cell.Identical = treeRes == sparseRes
	fmt.Fprintf(log, "sparse n=%d k=%d: %d rounds (%d sparse)  walker %.2fs / tree %.2fs  %.1fx ns/round  identical=%v\n",
		cell.N, cell.ActiveSenders, cell.Rounds, cell.SparseRounds,
		cell.WallSparse, cell.WallTree, cell.Speedup, cell.Identical)
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
		quick  = fs.Bool("quick", false, "reduced CI scale (smaller ladder and budget)")
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
		Schema:     "breathe-bench-kernel/v6",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		Budget:     b,
	}
	kernels := []struct {
		name   string
		kernel sim.Kernel
		shards int
	}{
		{"per-agent", sim.KernelPerAgent, 0},
		{"batched", sim.KernelAuto, 1},
		{"sharded", sim.KernelAuto, *shards},
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
			e, err := sim.NewEngine(sim.Config{
				N: n, Channel: channel.NewBSC(0.2), Seed: *seed,
				AllowSelfMessages: true, Kernel: k.kernel,
				Shards: k.shards, MaxRounds: 1 << 30,
				Telemetry: probe,
			})
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

	ac, err := benchAsync(*quick, *seed, log)
	if err != nil {
		return err
	}
	rep.AsyncCell = ac

	if !rep.AsyncCell.Identical {
		return fmt.Errorf("quiet-span skip diverged: skip-on and skip-off runs disagree")
	}

	sc, err := benchSparse(*quick, *seed, log)
	if err != nil {
		return err
	}
	rep.SparseCell = sc

	if !rep.SparseCell.Identical {
		return fmt.Errorf("sparse walker diverged: walker-on and walker-off runs disagree")
	}

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
