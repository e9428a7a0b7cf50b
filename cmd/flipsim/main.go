// Command flipsim runs a single protocol execution in the Flip model and
// prints its phase trace.
//
// It runs the paper's self-exclusion: a sender never draws itself as the
// recipient (self=false on its n= line). Every speaking round therefore
// takes the scatter regime; megasim -self (its default) runs the
// classical push convention, whose exchangeable rounds take the tree.
//
// Usage:
//
//	flipsim -protocol broadcast -n 4096 -eps 0.3 -seed 1
//	flipsim -protocol consensus -n 4096 -eps 0.3 -asize 800 -abias 0.2
//	flipsim -protocol async -n 4096 -eps 0.3 -mode selfsync
//	flipsim -protocol immediate-forward -n 4096 -eps 0.3
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"breathe/internal/async"
	"breathe/internal/baseline"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/sim"
	"breathe/internal/trace"
	"breathe/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flipsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flipsim", flag.ContinueOnError)
	var (
		protocol = fs.String("protocol", "broadcast", "broadcast | consensus | async | immediate-forward | voter | two-choice | silent-wait")
		n        = fs.Int("n", 4096, "population size")
		eps      = fs.Float64("eps", 0.3, "channel parameter ε (flip prob = 1/2−ε)")
		seed     = fs.Uint64("seed", 1, "random seed")
		aSize    = fs.Int("asize", 0, "consensus: size of initial opinionated set (default 4·βs)")
		aBias    = fs.Float64("abias", 0.2, "consensus: majority-bias of the initial set")
		mode     = fs.String("mode", "offsets", "async: offsets | selfsync")
		rounds   = fs.Int("rounds", 0, "baselines: execution length (default ≈ protocol length)")
		variant  = fs.String("variant", "paper", "broadcast ablation: paper | no-breathe | first-message | prefix-subset | full-majority")
		plotOut  = fs.Bool("plot", false, "render an ASCII bias-trajectory plot")
		quiet    = fs.Bool("quiet", false, "suppress the phase trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 || !(0 < *eps && *eps <= 0.5) {
		return fmt.Errorf("need n >= 2 and eps in (0, 0.5]")
	}
	params, err := core.ParamsFor(*n, *eps, core.DefaultConstants)
	if err != nil {
		return err
	}
	ch := channel.FromEpsilon(*eps)
	defRounds := *rounds
	if defRounds == 0 {
		defRounds = params.TotalRounds()
	}

	var proto sim.Protocol
	var tele func() *core.Telemetry
	switch *protocol {
	case "broadcast":
		v, err := parseVariant(*variant)
		if err != nil {
			return err
		}
		p, err := core.NewBroadcastVariant(params, channel.One, v)
		if err != nil {
			return err
		}
		proto, tele = p, p.Telemetry
	case "consensus":
		size := *aSize
		if size == 0 {
			size = 4 * params.BetaS
			if size > *n/2 {
				size = *n / 2
			}
		}
		correct := int(float64(size) * (0.5 + *aBias))
		p, err := core.NewConsensus(params, channel.One, correct, size-correct)
		if err != nil {
			return err
		}
		proto, tele = p, p.Telemetry
	case "async":
		var p *async.Protocol
		var err error
		if *mode == "selfsync" {
			p, err = async.NewSelfSync(params, channel.One, 3*int(math.Ceil(math.Log2(float64(*n)))))
		} else {
			p, err = async.NewKnownOffsets(params, channel.One, 2*int(math.Ceil(math.Log2(float64(*n)))))
		}
		if err != nil {
			return err
		}
		proto = p
	case "immediate-forward":
		proto = &baseline.ImmediateForward{Target: channel.One, Rounds: defRounds}
	case "voter":
		proto = &baseline.NoisyVoter{Target: channel.One, InitialCorrect: *n * 9 / 10, Rounds: defRounds}
	case "two-choice":
		proto = &baseline.TwoChoiceMajority{Target: channel.One, InitialCorrect: *n * 9 / 10, Rounds: defRounds}
	case "silent-wait":
		proto = &baseline.SilentWait{Target: channel.One, Needed: 2, Rounds: 1 << 20}
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}

	simCfg := sim.Config{N: *n, Channel: ch, Seed: *seed}
	var traj *sim.Trajectory
	if *plotOut {
		traj = sim.NewTrajectory(proto, channel.One)
		simCfg.Observer = traj.Observe
	}
	engine, err := sim.NewEngine(simCfg)
	if err != nil {
		return err
	}
	res := engine.Run(proto)

	fmt.Printf("protocol:  %s\n", res.Protocol)
	fmt.Printf("n=%d eps=%.3g seed=%d self=%v channel=%s\n", *n, *eps, *seed, simCfg.AllowSelfMessages, ch.Name())
	fmt.Printf("rounds:    %d\n", res.Rounds)
	fmt.Printf("messages:  %d (accepted %d, dropped %d)\n",
		res.MessagesSent, res.MessagesAccepted, res.MessagesDropped)
	fmt.Printf("opinions:  0:%d  1:%d  undecided:%d\n",
		res.Opinions[0], res.Opinions[1], res.Undecided)
	fmt.Printf("correct:   %.4f  unanimous: %v\n",
		res.CorrectFraction(channel.One), res.AllCorrect(channel.One))
	fmt.Printf("paths:     %s (primary %s, quiet-spans %d)\n",
		res.Paths, res.Paths.Primary(), engine.QuietSpans())
	if sw, ok := proto.(*baseline.SilentWait); ok {
		fmt.Printf("first double reception at round %d (√n = %.0f)\n",
			sw.FirstDoneRound, math.Sqrt(float64(*n)))
	}

	if tele != nil && !*quiet {
		t := tele()
		if len(t.StageI) > 0 {
			tb := trace.NewTable("\nStage I phases", "phase", "rounds", "Y_i", "X_i", "eps_i")
			var biases []float64
			for _, st := range t.StageI {
				tb.AddRowValues(st.Phase, st.Rounds, st.NewlyActivated, st.Activated, st.Bias())
				biases = append(biases, st.Bias())
			}
			if err := tb.WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("bias trajectory: %s  (bias after Stage I: %.4f)\n",
				trace.Sparkline(biases), t.BiasAfterStageI)
		}
		if len(t.StageII) > 0 {
			tb := trace.NewTable("\nStage II phases", "phase", "rounds", "successful", "correct", "bias")
			var biases []float64
			for _, st := range t.StageII {
				tb.AddRowValues(st.Phase, st.Rounds, st.Successful, st.Correct, st.Bias())
				biases = append(biases, st.Bias())
			}
			if err := tb.WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("bias trajectory: %s\n", trace.Sparkline(biases))
		}
	}
	if traj != nil {
		plot := viz.NewPlot("\nper-round bias toward B", 72, 14).
			XLabel("round").YLabel("bias").
			YRange(-0.55, 0.55).
			Series(res.Protocol, '*', traj.BiasSeries(*n))
		if err := plot.Render(os.Stdout); err != nil {
			return err
		}
		if first := traj.FirstRoundAllCorrect(*n); first >= 0 {
			fmt.Printf("all agents correct from round %d on\n", first)
		}
	}
	return nil
}

// parseVariant maps the -variant flag to a core.Variant.
func parseVariant(s string) (core.Variant, error) {
	switch s {
	case "paper", "":
		return core.Variant{}, nil
	case "no-breathe":
		return core.Variant{NoBreathe: true}, nil
	case "first-message":
		return core.Variant{FirstMessage: true}, nil
	case "prefix-subset":
		return core.Variant{PrefixSubset: true}, nil
	case "full-majority":
		return core.Variant{FullSampleMajority: true}, nil
	default:
		return core.Variant{}, fmt.Errorf("unknown variant %q", s)
	}
}
