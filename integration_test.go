package breathe

import (
	"math"
	"testing"

	"breathe/internal/analysis"
	"breathe/internal/baseline"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/sim"
)

// Cross-module integration tests: these exercise the public API, the
// analytic predictions, the baselines and the parallel runner together,
// the way a downstream user would.

func TestIntegrationPredictionsMatchPublicRun(t *testing.T) {
	const n = 2048
	eps := 0.3
	params := core.DefaultParams(n, eps)
	pred := analysis.PredictComplexity(params)

	res, err := Broadcast(Config{N: n, Epsilon: eps, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != pred.Rounds {
		t.Errorf("rounds %d, predicted %d", res.Rounds, pred.Rounds)
	}
	if got := float64(res.Messages); math.Abs(got-pred.MessageEstimate) > 0.1*pred.MessageEstimate {
		t.Errorf("messages %v, predicted %v", got, pred.MessageEstimate)
	}
	if res.Messages > pred.MessageUpperBound {
		t.Errorf("messages %d exceed hard bound %d", res.Messages, pred.MessageUpperBound)
	}
}

func TestIntegrationBreatheBeatsEveryBaseline(t *testing.T) {
	// The headline comparison at equal round budgets: breathe ends
	// unanimous, every baseline ends materially worse.
	const n = 1024
	eps := 0.25
	res, err := Broadcast(Config{N: n, Epsilon: eps, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous {
		t.Fatal("breathe failed; comparison moot")
	}
	budget := res.Rounds

	protos := []sim.Protocol{
		&baseline.ImmediateForward{Target: channel.One, Rounds: budget},
		&baseline.NoisyVoter{Target: channel.One, InitialCorrect: n * 9 / 10, Rounds: budget},
		&baseline.TwoChoiceMajority{Target: channel.One, InitialCorrect: n * 9 / 10, Rounds: budget},
	}
	for _, p := range protos {
		bres, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: 2}, p)
		if err != nil {
			t.Fatal(err)
		}
		if bres.AllCorrect(channel.One) {
			t.Errorf("%s reached unanimity under noise — unexpected", p.Name())
		}
		if frac := bres.CorrectFraction(channel.One); frac > 0.99 {
			t.Errorf("%s ended at %.4f correct, too close to breathe", p.Name(), frac)
		}
	}
}

// TestIntegrationParallelSeedsWithCoreProtocol replicates a broadcast over
// six seeds, one run per seed, and checks the success rate and that each
// protocol instance's telemetry survives its run.
func TestIntegrationParallelSeedsWithCoreProtocol(t *testing.T) {
	const n, seeds = 512, 6
	eps := 0.3
	params := core.DefaultParams(n, eps)
	success := 0
	for seed := uint64(0); seed < seeds; seed++ {
		p, err := core.NewBroadcast(params, channel.One)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: seed}, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.AllCorrect(channel.One) {
			success++
		}
		if p.Telemetry().ActivatedAfterStageI == 0 {
			t.Errorf("seed %d: telemetry empty after run", seed)
		}
	}
	if rate := float64(success) / seeds; rate < 0.8 {
		t.Fatalf("success rate %v", rate)
	}
}

func TestIntegrationPaperParamsScheduleOnly(t *testing.T) {
	// PaperParams are not runnable at interesting sizes (r = 2²²/ε²) but
	// their schedule must be arithmetically sound and strictly larger
	// than the calibrated one.
	paper := core.PaperParams(1024, 0.3)
	def := core.DefaultParams(1024, 0.3)
	if err := paper.Validate(); err != nil {
		t.Fatal(err)
	}
	if paper.TotalRounds() <= def.TotalRounds() {
		t.Error("paper constants should dwarf the calibrated ones")
	}
	if _, err := core.NewSchedule(paper, 0); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrationLowerBoundConsistency(t *testing.T) {
	// The §1.4 chain: closed-form floor ≤ exact direct-source need ≤
	// protocol rounds, for a sweep of (n, ε).
	for _, n := range []int{512, 4096} {
		for _, eps := range []float64{0.2, 0.4} {
			floor := baseline.DirectSourceLowerBound(n, eps, 0.01)
			need := baseline.DirectSourceRoundsNeeded(n, eps, 0.01)
			rounds := core.DefaultParams(n, eps).TotalRounds()
			if float64(need) > 4*floor {
				t.Errorf("n=%d eps=%v: need %d far above floor %v", n, eps, need, floor)
			}
			if rounds < need {
				t.Errorf("n=%d eps=%v: protocol rounds %d below the per-agent need %d — impossible",
					n, eps, rounds, need)
			}
		}
	}
}
