package analysis

import (
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/sim"
)

func TestPredictStageIStructure(t *testing.T) {
	p := core.DefaultParams(16384, 0.3)
	preds := PredictStageI(p)
	if len(preds) != p.T+2 {
		t.Fatalf("got %d predictions, want %d", len(preds), p.T+2)
	}
	prev := 0.0
	for i, pr := range preds {
		if pr.Phase != i && !(i == len(preds)-1 && pr.Phase == p.T+1) {
			t.Errorf("prediction %d has phase %d", i, pr.Phase)
		}
		if pr.ExpectedActivated < prev {
			t.Errorf("phase %d: activated decreased", i)
		}
		if pr.ExpectedActivated > float64(p.N) {
			t.Errorf("phase %d: activated %v exceeds n", i, pr.ExpectedActivated)
		}
		if pr.ExpectedNewly < 0 {
			t.Errorf("phase %d: negative newly", i)
		}
		prev = pr.ExpectedActivated
	}
	// Bias follows the (2ε)-per-phase decay from ε/2.
	if math.Abs(preds[0].ExpectedBias-0.15) > 1e-12 {
		t.Errorf("phase-0 bias %v, want 0.15", preds[0].ExpectedBias)
	}
	for i := 1; i < len(preds); i++ {
		want := preds[i-1].ExpectedBias * 2 * 0.3
		if math.Abs(preds[i].ExpectedBias-want) > 1e-12 {
			t.Errorf("phase %d bias %v, want %v", i, preds[i].ExpectedBias, want)
		}
	}
}

func TestPredictStageIEventuallyEveryone(t *testing.T) {
	p := core.DefaultParams(4096, 0.3)
	preds := PredictStageI(p)
	last := preds[len(preds)-1]
	if last.ExpectedActivated < float64(p.N)*0.99 {
		t.Fatalf("prediction says only %v of %d activated", last.ExpectedActivated, p.N)
	}
}

// TestPredictionMatchesSimulation is the package's reason to exist: the
// expectation recursion should track measured Stage I telemetry within
// Monte-Carlo error.
func TestPredictionMatchesSimulation(t *testing.T) {
	const n = 8192
	eps := 0.3
	params := core.DefaultParams(n, eps)
	preds := PredictStageI(params)

	var sums []float64
	const seeds = 5
	for seed := uint64(0); seed < seeds; seed++ {
		p, err := core.NewBroadcast(params, channel.One)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: seed}, p); err != nil {
			t.Fatal(err)
		}
		tel := p.Telemetry()
		if sums == nil {
			sums = make([]float64, len(tel.StageI))
		}
		for i, st := range tel.StageI {
			sums[i] += float64(st.Activated)
		}
	}
	for i := range sums {
		got := sums[i] / seeds
		want := preds[i].ExpectedActivated
		if math.Abs(got-want) > 0.15*want+10 {
			t.Errorf("phase %d: simulated X=%v vs predicted %v", i, got, want)
		}
	}
}

func TestPredictComplexity(t *testing.T) {
	p := core.DefaultParams(4096, 0.3)
	c := PredictComplexity(p)
	if c.Rounds != p.TotalRounds() {
		t.Errorf("rounds %d != schedule %d", c.Rounds, p.TotalRounds())
	}
	if c.MessageUpperBound != int64(p.N)*int64(c.Rounds) {
		t.Errorf("upper bound arithmetic wrong")
	}
	if c.MessageEstimate <= 0 || c.MessageEstimate > float64(c.MessageUpperBound) {
		t.Errorf("estimate %v outside (0, upper]", c.MessageEstimate)
	}
	if c.AsyncRounds <= c.Rounds {
		t.Errorf("async rounds %d not above sync %d", c.AsyncRounds, c.Rounds)
	}
}

// TestMessageEstimateMatchesSimulation ties the analytic message estimate
// to the measured total.
func TestMessageEstimateMatchesSimulation(t *testing.T) {
	const n = 4096
	eps := 0.3
	params := core.DefaultParams(n, eps)
	pred := PredictComplexity(params)
	p, err := core.NewBroadcast(params, channel.One)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(res.MessagesSent)
	if math.Abs(got-pred.MessageEstimate) > 0.1*pred.MessageEstimate {
		t.Errorf("measured %v vs estimated %v messages", got, pred.MessageEstimate)
	}
}
