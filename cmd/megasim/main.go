// Command megasim runs one Flip-model execution (§1.3.2) and prints it:
// by default the production-scale scenario, noisy broadcast over a
// population of one million agents, executed by the engine's batched
// machinery (bulk sender lists, scatter and tree sampling regimes). The
// §3 asynchronous protocols (-protocol async-offsets | async-selfsync),
// the no-breathe ablation (broadcast-no-breathe), the §1.6 baselines
// (immediate-forward | voter | two-choice | silent-wait) and crash faults
// (-crash) run on the same machinery: async rounds cost O(senders)
// instead of Θ(n) even through the quiescent dilation gaps, and crash
// plans filter the batched sender lists per round. After the summary, the
// broadcast and consensus schedules print their Stage I and Stage II
// phase tables (core.Telemetry).
//
// The scenario standardizes on the classical push-gossip convention in
// which a sender may draw itself as the recipient (-self, default true):
// the difference from the thesis model's self-exclusion is O(1/n) — at
// n = 10⁶ far below measurement noise — and exchangeable messages let the
// engine sample recipients in aggregate instead of per message. -self=false
// runs the thesis model's self-exclusion, in which every speaking round
// takes the scatter regime.
//
// Usage:
//
//	megasim                                  # broadcast, n = 1,000,000
//	megasim -protocol consensus -n 2000000
//	megasim -protocol async-offsets -n 100000    # §3.1, clocks offset by D
//	megasim -protocol async-selfsync -n 100000   # §3.2, activation-phase sync
//	megasim -protocol voter -n 4096 -self=false  # a §1.6 baseline, thesis convention
//	megasim -crash 0.1 -n 1000000            # 10% initial crash faults
//	megasim -n 10000000 -shards 8            # 10⁷ agents across 8 worker cores
//	megasim -n 1000000 -json > result.json   # machine-readable api.RunResponse
//	megasim -n 1000000 -phases               # kernel phase decomposition (byte-inert)
//
// The scenario flags are exactly the fields of an api.RunRequest — the
// same configuration the breathed service accepts — and -json emits the
// service's api.RunResponse on stdout (the human-readable commentary
// moves to stderr), so a batch result is directly comparable, hash and
// all, with a served one.
//
// Above ~32k agents the large tree rounds run *sharded*: the round's
// receiver buckets are swept on -shards worker goroutines (0 = all
// cores). Every draw is addressed by (seed, stream, round, index), so
// results are bit-identical for every -shards value — a pure performance
// knob.
//
// The engine collects every protocol through its bulk sender lists; the
// "paths:" line (and the response's paths field) reports which sampling
// regime executed every round. There is no flag to force per-agent
// collection: the test adapter simtest.PerAgent is the cross-check of
// the bulk sender lists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"breathe/internal/api"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/sim"
	"breathe/internal/telemetry"
	"breathe/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "megasim:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("megasim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		protocol = fs.String("protocol", "broadcast", strings.Join(api.Protocols, " | "))
		n        = fs.Int("n", 1_000_000, "population size")
		eps      = fs.Float64("eps", 0.3, "channel parameter ε (flip prob = 1/2−ε)")
		seed     = fs.Uint64("seed", 1, "random seed")
		self     = fs.Bool("self", true, "allow self-messages (classical push convention; enables aggregate recipient sampling)")
		aBias    = fs.Float64("abias", 0.2, "consensus: majority-bias of the initial set")
		crash    = fs.Float64("crash", 0, "crash each agent at round 0 with this probability (agent 0 is protected)")
		shards   = fs.Int("shards", 0, "sharded-kernel workers (0 = all cores, 1 = serial; results are identical for every value)")
		jsonOut  = fs.Bool("json", false, "emit the api.RunResponse JSON on stdout (commentary on stderr)")
		phases   = fs.Bool("phases", false, "arm a telemetry probe and report the kernel phase decomposition (byte-inert: the response does not change)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate the raw flags before api.Normalize resolves defaults: an
	// explicit -eps 0 must be the old clean usage error, not "default to
	// 0.3" (and the schedule commentary below derives from these values,
	// so they must already be the ones the engine will run).
	if *n < 2 || !(0 < *eps && *eps <= 0.5) {
		return fmt.Errorf("need n >= 2 and eps in (0, 0.5]")
	}

	req := api.RunRequest{
		Protocol:       *protocol,
		N:              *n,
		Eps:            *eps,
		Seed:           *seed,
		NoSelfMessages: !*self,
		ABias:          *aBias,
		CrashProb:      *crash,
		Shards:         *shards,
	}
	built, err := req.Build()
	if err != nil {
		return err
	}

	// Under -json, out carries the response and the commentary goes to errOut.
	response := out
	if *jsonOut {
		out = errOut
	}

	schedule := fmt.Sprintf("%d rounds", built.ScheduleRounds)
	switch {
	case built.OffsetSpread > 0:
		schedule += fmt.Sprintf(" (clock spread D = %d)", built.OffsetSpread)
	case built.ActivationPrelude > 0:
		schedule += fmt.Sprintf(" (activation prelude L = %d)", built.ActivationPrelude)
	}
	if built.Crashed > 0 {
		fmt.Fprintf(out, "crashes:   %d of %d agents down from round 0 (p = %.3g)\n",
			built.Crashed, *n, *crash)
	}
	fmt.Fprintf(out, "scenario:  %s  n=%d eps=%.3g seed=%d self=%v shards=%d\n",
		*protocol, *n, *eps, *seed, *self, *shards)
	fmt.Fprintf(out, "schedule:  %s\n", schedule)

	var probe *telemetry.RunProbe
	if *phases {
		probe = telemetry.NewRunProbe()
		built.Config.Telemetry = probe
	}

	//breathe:walltime-ok run wall-time for the report, not simulation state
	start := time.Now()
	engine, err := sim.NewEngine(built.Config)
	if err != nil {
		return err
	}
	proto := built.NewProtocol()
	res := engine.Run(proto)
	//breathe:walltime-ok run wall-time for the report, not simulation state
	wall := time.Since(start)

	agentRounds := float64(*n) * float64(res.Rounds)
	fmt.Fprintf(out, "rounds:    %d   messages: %d (accepted %d, dropped %d)\n",
		res.Rounds, res.MessagesSent, res.MessagesAccepted, res.MessagesDropped)
	fmt.Fprintf(out, "paths:     %s (primary %s)\n", res.Paths, res.Paths.Primary())
	fmt.Fprintf(out, "opinions:  0:%d  1:%d  undecided:%d   correct: %.6f  unanimous: %v\n",
		res.Opinions[0], res.Opinions[1], res.Undecided,
		res.CorrectFraction(channel.One), res.AllCorrect(channel.One))
	fmt.Fprintf(out, "wall:      %.2fs   %.2f ns/agent-round   %.1f M msgs/s   %.1f M agent-rounds/s\n",
		wall.Seconds(),
		float64(wall.Nanoseconds())/agentRounds,
		float64(res.MessagesSent)/wall.Seconds()/1e6,
		agentRounds/wall.Seconds()/1e6)
	if probe != nil {
		names := telemetry.PhaseNames()
		ns := probe.PhaseNanos()
		var total int64
		for _, v := range ns {
			total += v
		}
		fmt.Fprintf(out, "phases:  ")
		for i, name := range names {
			if total > 0 && ns[i] > 0 {
				fmt.Fprintf(out, "  %s %.1f%%", name, 100*float64(ns[i])/float64(total))
			}
		}
		fmt.Fprintln(out)
	}
	if tp, ok := proto.(interface{ Telemetry() *core.Telemetry }); ok {
		if err := writePhaseTables(out, tp.Telemetry()); err != nil {
			return err
		}
	}

	if *jsonOut {
		resp := api.NewResponse(req, res, built.Crashed, proto)
		enc := json.NewEncoder(response)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}
	return nil
}

// writePhaseTables prints the per-phase Stage I and Stage II statistics
// the synchronous schedules record (§2.1 and §2.2).
func writePhaseTables(w io.Writer, t *core.Telemetry) error {
	if len(t.StageI) > 0 {
		tb := trace.NewTable("\nStage I phases", "phase", "rounds", "Y_i", "X_i", "eps_i")
		for _, st := range t.StageI {
			tb.AddRowValues(st.Phase, st.Rounds, st.NewlyActivated, st.Activated, st.Bias())
		}
		if err := tb.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "bias after Stage I: %.4f\n", t.BiasAfterStageI)
	}
	if len(t.StageII) > 0 {
		tb := trace.NewTable("\nStage II phases", "phase", "rounds", "successful", "correct", "bias")
		for _, st := range t.StageII {
			tb.AddRowValues(st.Phase, st.Rounds, st.Successful, st.Correct, st.Bias())
		}
		return tb.WriteText(w)
	}
	return nil
}
