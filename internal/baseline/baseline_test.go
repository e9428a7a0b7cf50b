package baseline

import (
	"fmt"
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/stats"
)

func TestImmediateForwardNoiselessSpreads(t *testing.T) {
	// Without noise, immediate forwarding is classical rumor spreading:
	// everyone learns the true opinion in O(log n) rounds.
	const n = 1024
	p := &ImmediateForward{Target: channel.One, Rounds: 200}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.NewBSC(0), Seed: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect(channel.One) {
		t.Fatalf("noiseless immediate forward failed: %+v", res)
	}
}

func TestImmediateForwardNoisyDegrades(t *testing.T) {
	// §1.6: with noise, a relayed message at depth c is correct with
	// probability only 1/2 + (2ε)^c, so the final population bias must be
	// far below the per-hop bias ε. Average over seeds.
	const n, seeds = 4096, 5
	eps := 0.2
	var sum float64
	for seed := uint64(0); seed < seeds; seed++ {
		p := &ImmediateForward{Target: channel.One, Rounds: 300}
		res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: seed}, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Undecided > n/100 {
			t.Fatalf("seed %d: %d agents never informed", seed, res.Undecided)
		}
		sum += res.Bias(channel.One)
	}
	avg := sum / seeds
	if avg > eps/2 {
		t.Fatalf("immediate forwarding retained bias %v — expected severe decay below %v", avg, eps/2)
	}
}

func TestImmediateForwardActivatesEveryone(t *testing.T) {
	const n = 512
	p := &ImmediateForward{Target: channel.One, Rounds: 100}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 3}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Undecided != 0 {
		t.Fatalf("%d agents undecided after 100 rounds", res.Undecided)
	}
}

func TestSilentWaitBirthdayScaling(t *testing.T) {
	// §1.6: with only the source talking, the first agent to hear two
	// messages needs Ω(√n) rounds. Check the median stopping round grows
	// roughly like √n (between n^0.3 and n^0.8 to absorb noise).
	medians := map[int]float64{}
	for _, n := range []int{256, 1024, 4096} {
		var rounds []float64
		for seed := uint64(0); seed < 9; seed++ {
			p := &SilentWait{Target: channel.One, Needed: 2, Rounds: 100000}
			_, err := sim.Run(sim.Config{N: n, Channel: channel.NewBSC(0), Seed: seed}, p)
			if err != nil {
				t.Fatal(err)
			}
			if p.FirstDoneRound < 0 {
				t.Fatalf("n=%d seed=%d: never finished", n, seed)
			}
			rounds = append(rounds, float64(p.FirstDoneRound))
		}
		// median of 9
		m := rounds[0]
		{
			s := append([]float64(nil), rounds...)
			for i := range s {
				for j := i + 1; j < len(s); j++ {
					if s[j] < s[i] {
						s[i], s[j] = s[j], s[i]
					}
				}
			}
			m = s[len(s)/2]
		}
		medians[n] = m
	}
	r1 := medians[1024] / medians[256]
	r2 := medians[4096] / medians[1024]
	// √ scaling would give ratio 2 per 4x n; accept [1.2, 3.5].
	for _, r := range []float64{r1, r2} {
		if r < 1.2 || r > 3.5 {
			t.Fatalf("silent-wait scaling ratios %v, %v — want about 2 (sqrt)", r1, r2)
		}
	}
}

func TestSilentWaitNeededValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Needed=0 did not panic")
		}
	}()
	p := &SilentWait{Target: channel.One, Needed: 0, Rounds: 10}
	_, _ = sim.Run(sim.Config{N: 10, Channel: channel.NewBSC(0), Seed: 1}, p)
}

func TestSilentWaitStopsAtCap(t *testing.T) {
	p := &SilentWait{Target: channel.One, Needed: 1000, Rounds: 50}
	res, err := sim.Run(sim.Config{N: 64, Channel: channel.NewBSC(0), Seed: 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 50 {
		t.Fatalf("expected cap at 50 rounds, ran %d", res.Rounds)
	}
	if p.FirstDoneRound >= 0 {
		t.Fatal("cannot have collected 1000 messages in 50 rounds")
	}
}

func TestNoisyVoterMixesToCoinFlip(t *testing.T) {
	// Under noise, the voter model forgets its initial majority: starting
	// from a 90% correct population, after O(n) rounds the bias should
	// have collapsed toward zero (|bias| small), not consensus.
	const n = 512
	p := &NoisyVoter{Target: channel.One, InitialCorrect: n * 9 / 10, Rounds: 3000}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.1), Seed: 5}, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Abs(res.Bias(channel.One)); got > 0.25 {
		t.Fatalf("noisy voter retained bias %v — expected mixing toward 0", got)
	}
	if len(p.Trajectory) != 3000 {
		t.Fatalf("trajectory length %d", len(p.Trajectory))
	}
}

func TestNoisyVoterTrajectoryConsistent(t *testing.T) {
	const n = 128
	p := &NoisyVoter{Target: channel.One, InitialCorrect: 64, Rounds: 100}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 7}, p)
	if err != nil {
		t.Fatal(err)
	}
	last := p.Trajectory[len(p.Trajectory)-1]
	if last != res.Opinions[channel.One] {
		t.Fatalf("trajectory end %d != result %d", last, res.Opinions[channel.One])
	}
	for _, c := range p.Trajectory {
		if c < 0 || c > n {
			t.Fatalf("trajectory value %d out of range", c)
		}
	}
}

func TestNoisyVoterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid InitialCorrect did not panic")
		}
	}()
	p := &NoisyVoter{Target: channel.One, InitialCorrect: 11, Rounds: 5}
	_, _ = sim.Run(sim.Config{N: 10, Channel: channel.NewBSC(0), Seed: 1}, p)
}

func TestTwoChoiceMajorityNoiselessConverges(t *testing.T) {
	// Doerr et al.: with a clear initial majority and no noise, the
	// two-choice rule reaches consensus in O(log n) rounds.
	const n = 1024
	p := &TwoChoiceMajority{Target: channel.One, InitialCorrect: n * 2 / 3, Rounds: 400}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.NewBSC(0), Seed: 11}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect(channel.One) {
		t.Fatalf("noiseless two-choice failed: correct %d/%d", res.Opinions[channel.One], n)
	}
}

func TestTwoChoiceMajorityNoisyStalls(t *testing.T) {
	if err := checkTwoChoiceCollapse(0, twoChoiceSeeds); err != nil {
		t.Fatal(err)
	}
}

// twoChoiceSeeds is TestTwoChoiceMajorityNoisyStalls's replication count.
const twoChoiceSeeds = 20

// checkTwoChoiceCollapse runs the two-choice rule from an all-correct
// start under strong noise (ε = 0.1, flip probability 0.4) for seeds
// base .. base+seeds−1. The §1.6 point: noise makes the dynamic
// symmetric — a sample is correct with probability 0.4 + 0.2·f at
// correct fraction f, and majority-of-three maps f = ½ to itself — so
// the population forgets its majority and the correct fraction
// collapses to ½ ± O(1/√n), with no side favoured. Every run must lose
// unanimity, and the 95% Wilson lower bound on the share of runs ending
// within 0.1 of ½ must exceed one half.
func checkTwoChoiceCollapse(base uint64, seeds int) error {
	const n = 1024
	collapsed := 0
	for seed := base; seed < base+uint64(seeds); seed++ {
		p := &TwoChoiceMajority{Target: channel.One, InitialCorrect: n, Rounds: 1000}
		res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.1), Seed: seed}, p)
		if err != nil {
			return err
		}
		if res.AllCorrect(channel.One) {
			return fmt.Errorf("seed %d: two-choice under heavy noise stayed unanimous — noise not biting?", seed)
		}
		if math.Abs(res.CorrectFraction(channel.One)-0.5) < 0.1 {
			collapsed++
		}
	}
	if lo, _ := stats.WilsonInterval(collapsed, seeds, 1.96); lo <= 0.5 {
		return fmt.Errorf("correct fraction collapsed to ½ ± 0.1 in only %d of %d runs (Wilson lower bound %.2f)",
			collapsed, seeds, lo)
	}
	return nil
}

func TestTwoChoiceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid InitialCorrect did not panic")
		}
	}()
	p := &TwoChoiceMajority{Target: channel.One, InitialCorrect: -1, Rounds: 5}
	_, _ = sim.Run(sim.Config{N: 10, Channel: channel.NewBSC(0), Seed: 1}, p)
}

// --- direct source ---

func TestDirectSourceErrProbShape(t *testing.T) {
	// More samples -> fewer errors; stronger signal -> fewer errors.
	if DirectSourceErrProb(1, 0.3) <= DirectSourceErrProb(31, 0.3) {
		t.Error("error should fall with more samples")
	}
	if DirectSourceErrProb(11, 0.1) <= DirectSourceErrProb(11, 0.4) {
		t.Error("error should fall with larger eps")
	}
	// One sample errs with the flip probability.
	if got := DirectSourceErrProb(1, 0.3); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("single sample error = %v, want 0.2", got)
	}
}

func TestDirectSourceRoundsNeededScaling(t *testing.T) {
	// Θ(log n / ε²): quadrupling 1/ε should multiply rounds by ~16;
	// squaring n should roughly double them.
	base := DirectSourceRoundsNeeded(1000, 0.2, 0.01)
	finer := DirectSourceRoundsNeeded(1000, 0.05, 0.01)
	ratio := float64(finer) / float64(base)
	if ratio < 8 || ratio > 32 {
		t.Errorf("eps scaling ratio %v, want about 16", ratio)
	}
	big := DirectSourceRoundsNeeded(1000*1000, 0.2, 0.01)
	nRatio := float64(big) / float64(base)
	if nRatio < 1.3 || nRatio > 3 {
		t.Errorf("n scaling ratio %v, want about 2", nRatio)
	}
}

func TestDirectSourceRoundsNeededValidation(t *testing.T) {
	for _, c := range []struct {
		n    int
		fail float64
	}{{0, 0.1}, {10, 0}, {10, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DirectSourceRoundsNeeded(%d, _, %v) did not panic", c.n, c.fail)
				}
			}()
			DirectSourceRoundsNeeded(c.n, 0.3, c.fail)
		}()
	}
}

func TestDirectSourceLowerBoundBelowNeeded(t *testing.T) {
	// The closed-form floor must not exceed the exact threshold by much;
	// they agree up to constants.
	for _, n := range []int{100, 10000} {
		for _, eps := range []float64{0.1, 0.3} {
			lb := DirectSourceLowerBound(n, eps, 0.01)
			need := float64(DirectSourceRoundsNeeded(n, eps, 0.01))
			if need < lb/4 {
				t.Errorf("n=%d eps=%v: needed %v far below floor %v", n, eps, need, lb)
			}
			if need > lb*8 {
				t.Errorf("n=%d eps=%v: needed %v far above floor %v", n, eps, need, lb)
			}
		}
	}
}

func TestSimulateDirectSourceMatchesAnalytic(t *testing.T) {
	const n, m = 20000, 21
	eps := 0.2
	got := SimulateDirectSource(n, m, eps, rng.NewKey(17))
	want := 1 - DirectSourceErrProb(m, eps)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("simulated fraction %v vs analytic %v", got, want)
	}
}

func TestSimulateDirectSourceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid args did not panic")
		}
	}()
	SimulateDirectSource(0, 1, 0.3, rng.NewKey(1))
}

func TestDirectSourceSufficientSamplesSucceed(t *testing.T) {
	// Using the computed threshold, all agents decide correctly in most
	// trials — the "as if informed directly" gold standard of §1.4.
	const n = 2000
	eps := 0.25
	m := DirectSourceRoundsNeeded(n, eps, 0.05)
	perfect := 0
	const trials = 10
	for i := uint64(0); i < trials; i++ {
		if SimulateDirectSource(n, m, eps, rng.NewKey(19+i)) == 1 {
			perfect++
		}
	}
	if perfect < trials-2 {
		t.Fatalf("all-correct in only %d/%d trials with m = %d", perfect, trials, m)
	}
}
